// Operands and the brute-force oracle.
#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "monge/brute.hpp"
#include "monge/generators.hpp"
#include "serve/json.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using pmonge::serve::Json;

Operand Operand::random(Kind kind, std::size_t rows, std::size_t cols,
                        std::uint64_t seed) {
  Operand op;
  op.kind = kind;
  op.rows = rows;
  op.cols = cols;
  op.seed = seed;
  pmonge::Rng rng(seed);
  if (kind == Kind::Monge) {
    op.data = pmonge::monge::random_monge(rows, cols, rng);
  } else {
    auto inst = pmonge::monge::random_staircase_monge(rows, cols, rng);
    op.data = std::move(inst.base);
    op.frontier = std::move(inst.frontier);
  }
  op.fill_row_tables();
  return op;
}

void Operand::fill_row_tables() {
  if (kind == Kind::Monge) {
    rmin = pmonge::monge::row_minima_brute(data);
    rmax = pmonge::monge::row_maxima_brute(data);
  } else {
    pmonge::monge::StaircaseArray<pmonge::monge::DenseArray<std::int64_t>> s(
        data, frontier);
    rmin = pmonge::monge::row_minima_brute(s);
    rmax = pmonge::monge::row_maxima_brute(s);
  }
}

std::string Operand::register_random_line() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"op\":\"register_random\",\"rows\":%zu,\"cols\":%zu,"
                "\"seed\":%" PRIu64 ",\"kind\":\"%s\"}",
                rows, cols, seed,
                kind == Kind::Monge ? "monge" : "staircase");
  return buf;
}

std::string Operand::register_data_line() const {
  std::string s;
  s.reserve(rows * cols * 9 + 64);
  s += kind == Kind::Monge ? "{\"op\":\"register_dense\""
                           : "{\"op\":\"register_staircase\"";
  s += ",\"rows\":" + std::to_string(rows);
  s += ",\"cols\":" + std::to_string(cols);
  s += ",\"data\":[";
  char num[24];
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      const int n = std::snprintf(num, sizeof num, "%" PRId64 ",",
                                  data(i, j));
      s.append(num, static_cast<std::size_t>(n));
    }
  }
  s.back() = ']';
  if (kind == Kind::Staircase) {
    s += ",\"frontier\":[";
    for (const std::size_t f : frontier) s += std::to_string(f) + ",";
    s.back() = ']';
  }
  s += '}';
  return s;
}

namespace oracle {

RegionOpt region_brute(const Operand& op, bool maxima, std::size_t r0,
                       std::size_t r1, std::size_t c0, std::size_t c1) {
  RegionOpt best;
  for (std::size_t i = r0; i <= r1; ++i) {
    std::size_t hi = c1 + 1;
    if (op.kind == Operand::Kind::Staircase && op.frontier[i] < hi) {
      hi = op.frontier[i];
    }
    for (std::size_t j = c0; j < hi; ++j) {
      const std::int64_t v = op.data(i, j);
      // The library's order on candidates: optimum value, then leftmost
      // column, then topmost row (docs/indexing.md).
      const bool better = !best.found ||
                          (maxima ? v > best.value : v < best.value) ||
                          (v == best.value && j < best.col);
      if (better) best = {true, v, i, j};
    }
  }
  return best;
}

std::int64_t edit_dp(const std::string& x, const std::string& y,
                     std::int64_t ins, std::int64_t del, std::int64_t sub) {
  std::vector<std::int64_t> prev(y.size() + 1), cur(y.size() + 1);
  for (std::size_t j = 0; j <= y.size(); ++j) {
    prev[j] = static_cast<std::int64_t>(j) * ins;
  }
  for (std::size_t i = 1; i <= x.size(); ++i) {
    cur[0] = static_cast<std::int64_t>(i) * del;
    for (std::size_t j = 1; j <= y.size(); ++j) {
      const std::int64_t s = prev[j - 1] + (x[i - 1] == y[j - 1] ? 0 : sub);
      cur[j] = std::min({s, prev[j] + del, cur[j - 1] + ins});
    }
    std::swap(prev, cur);
  }
  return prev[y.size()];
}

std::string error_of(std::string_view resp) {
  try {
    const Json j = Json::parse(resp);
    const Json* ok = j.find("ok");
    if (ok != nullptr && ok->type() == Json::Type::Bool && ok->as_bool()) {
      return "";
    }
    const Json* e = j.find("error");
    if (e != nullptr && e->type() == Json::Type::String) {
      const std::string& s = e->as_string();
      return s.substr(0, s.find(':'));
    }
  } catch (const std::exception&) {
  }
  return "unparsable";
}

const Json* ok_result(const Json& j, std::int64_t want_id, Verdict& v) {
  const Json* id = j.find("id");
  if (id == nullptr || id->type() != Json::Type::Int ||
      id->as_int() != want_id) {
    v = Verdict::Error;
    return nullptr;
  }
  const Json* ok = j.find("ok");
  if (ok == nullptr || ok->type() != Json::Type::Bool) {
    v = Verdict::Error;
    return nullptr;
  }
  if (!ok->as_bool()) {
    const Json* e = j.find("error");
    const std::string msg =
        e != nullptr && e->type() == Json::Type::String ? e->as_string() : "";
    v = msg.starts_with("overloaded") || msg.starts_with("deadline_")
            ? Verdict::Rejected
            : Verdict::Error;
    return nullptr;
  }
  const Json* r = j.find("result");
  if (r == nullptr || r->type() != Json::Type::Object) {
    v = Verdict::Error;
    return nullptr;
  }
  return r;
}

namespace {

bool int_is(const Json* p, std::int64_t want) {
  return p != nullptr && p->type() == Json::Type::Int && p->as_int() == want;
}

}  // namespace

Verdict check_row(const Operand& op, bool maxima, std::size_t row,
                  std::int64_t want_id, std::string_view resp) {
  try {
    const Json j = Json::parse(resp);
    Verdict v = Verdict::Ok;
    const Json* r = ok_result(j, want_id, v);
    if (r == nullptr) return v;
    const auto& want = maxima ? op.rmax[row] : op.rmin[row];
    if (want.col == pmonge::monge::kNoCol) {
      const Json* val = r->find("value");
      return int_is(r->find("col"), -1) && val != nullptr && val->is_null()
                 ? Verdict::Ok
                 : Verdict::Wrong;
    }
    return int_is(r->find("col"), static_cast<std::int64_t>(want.col)) &&
                   int_is(r->find("value"), want.value)
               ? Verdict::Ok
               : Verdict::Wrong;
  } catch (const std::exception&) {
    return Verdict::Error;
  }
}

Verdict check_region(const Operand& op, bool maxima, std::size_t r0,
                     std::size_t r1, std::size_t c0, std::size_t c1,
                     std::int64_t want_id, std::string_view resp) {
  try {
    const Json j = Json::parse(resp);
    Verdict v = Verdict::Ok;
    const Json* r = ok_result(j, want_id, v);
    if (r == nullptr) return v;
    const RegionOpt want = region_brute(op, maxima, r0, r1, c0, c1);
    if (!want.found) {
      const Json* val = r->find("value");
      return int_is(r->find("row"), -1) && val != nullptr && val->is_null()
                 ? Verdict::Ok
                 : Verdict::Wrong;
    }
    return int_is(r->find("value"), want.value) &&
                   int_is(r->find("row"),
                          static_cast<std::int64_t>(want.row)) &&
                   int_is(r->find("col"), static_cast<std::int64_t>(want.col))
               ? Verdict::Ok
               : Verdict::Wrong;
  } catch (const std::exception&) {
    return Verdict::Error;
  }
}

}  // namespace oracle

}  // namespace perfbench
