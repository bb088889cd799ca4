#include "workloads.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "apps/empty_rect.hpp"
#include "apps/largest_rect.hpp"
#include "apps/polygon_neighbors.hpp"
#include "geom/geometry.hpp"
#include "monge/generators.hpp"
#include "support/rng.hpp"

namespace perfbench {

using pmonge::Rng;
using pmonge::serve::Json;

const char* op_name(Op op) {
  switch (op) {
    case Op::RowMin: return "rowmin";
    case Op::RowMax: return "rowmax";
    case Op::StairMin: return "staircase_rowmin";
    case Op::SubMin: return "submatrix_min";
    case Op::SubMax: return "submatrix_max";
    case Op::Tube: return "tubemax";
    case Op::Edit: return "string_edit";
    case Op::LargestRect: return "largest_rect";
    case Op::EmptyRect: return "empty_rect";
    case Op::Neighbors: return "polygon_neighbors";
    case Op::Register: return "register";
    case Op::Unregister: return "unregister";
  }
  return "?";
}

std::uint32_t Workload::issue(const Query& q) {
  issued_.push_back(q);
  return static_cast<std::uint32_t>(issued_.size() - 1);
}

std::string Workload::line_for(std::uint32_t tag, std::int64_t) const {
  return line_of(tag);
}

Verdict Workload::check(std::uint32_t tag, std::string_view resp) const {
  return check_search(issued_[tag], resp, tag);
}

Verdict Workload::check_search(const Query& q, std::string_view resp,
                               std::uint32_t tag) const {
  const Operand& op = ops_[q.target];
  Verdict v = Verdict::Error;
  switch (q.op) {
    case Op::RowMin:
    case Op::StairMin:
      v = oracle::check_row(op, false, q.a, tag, resp);
      break;
    case Op::RowMax:
      v = oracle::check_row(op, true, q.a, tag, resp);
      break;
    case Op::SubMin:
    case Op::SubMax:
      v = oracle::check_region(op, q.op == Op::SubMax, q.a, q.b, q.c, q.d,
                               tag, resp);
      break;
    default:
      break;
  }
  return v == Verdict::Wrong && op.non_monge ? Verdict::DefectWrong : v;
}

namespace {

// The line of a search descriptor.
std::string search_line(const Query& q, std::uint32_t tag) {
  char buf[200];
  int n = 0;
  switch (q.op) {
    case Op::SubMin:
    case Op::SubMax:
      n = std::snprintf(buf, sizeof buf,
                        "{\"op\":\"%s\",\"id\":%u,\"array\":%" PRId64
                        ",\"r0\":%u,\"r1\":%u,\"c0\":%u,\"c1\":%u}",
                        op_name(q.op), tag, q.array_id, q.a, q.b, q.c, q.d);
      break;
    case Op::Unregister:
      n = std::snprintf(buf, sizeof buf,
                        "{\"op\":\"unregister\",\"id\":%u,\"array\":%" PRId64
                        "}",
                        tag, q.array_id);
      break;
    default:
      n = std::snprintf(buf, sizeof buf,
                        "{\"op\":\"%s\",\"id\":%u,\"array\":%" PRId64
                        ",\"row\":%u}",
                        op_name(q.op), tag, q.array_id, q.a);
      break;
  }
  return std::string(buf, static_cast<std::size_t>(n));
}

// A uniformly drawn sub-interval [lo, hi] of [0, n).
void draw_interval(Rng& rng, std::size_t n, std::uint32_t& lo,
                   std::uint32_t& hi) {
  auto a = static_cast<std::uint32_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  auto b = static_cast<std::uint32_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  lo = std::min(a, b);
  hi = std::max(a, b);
}

std::int64_t array_id_of(std::string_view resp) {
  const Json j = Json::parse(resp);
  const Json* ok = j.find("ok");
  if (ok == nullptr || !ok->as_bool()) return -1;
  return j.at("result").at("array").as_int();
}

void register_all(Link& link, std::vector<Operand>& ops) {
  for (Operand& op : ops) {
    const std::string resp = link.request(op.register_random_line());
    op.id = array_id_of(resp);
    if (op.id < 0) throw std::runtime_error("register failed: " + resp);
    if (op.indexed) {
      const std::string r = link.request(
          "{\"op\":\"index_build\",\"array\":" + std::to_string(op.id) + "}");
      if (oracle::error_of(r) != "") {
        throw std::runtime_error("index_build failed: " + r);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// hot_cached
// ---------------------------------------------------------------------------

class HotCached : public Workload {
 public:
  const char* name() const override { return "hot_cached"; }
  PhasePlan plan() const override {
    PhasePlan p;
    p.closed_window = 16;
    p.closed_share = 0.5;
    p.open_rate = 5000;
    p.rotate_cpus = true;
    return p;
  }

  void prepare(std::uint64_t seed, double) override {
    rng_ = Rng(seed);
    for (std::uint64_t k = 0; k < 4; ++k) {
      ops_.push_back(Operand::random(
          k < 2 ? Operand::Kind::Monge : Operand::Kind::Staircase, 64, 48,
          seed * 16 + k));
    }
    for (std::uint32_t t = 0; t < 4; ++t) {
      for (std::uint32_t r = 0; r < 64; ++r) {
        if (t < 2) {
          keys_.push_back({Op::RowMin, t, -1, r});
          keys_.push_back({Op::RowMax, t, -1, r});
        } else {
          keys_.push_back({Op::StairMin, t, -1, r});
        }
      }
    }
  }

  void setup(Link& link) override {
    register_all(link, ops_);
    for (Query& k : keys_) k.array_id = ops_[k.target].id;
    expected_.clear();
    for (const Query& k : keys_) {
      const auto& want = (k.op == Op::RowMax ? ops_[k.target].rmax
                                             : ops_[k.target].rmin)[k.a];
      expected_.push_back(
          want.col == pmonge::monge::kNoCol
              ? std::string(",\"ok\":true,\"result\":{\"col\":-1,\"value\":null}}")
              : ",\"ok\":true,\"result\":{\"col\":" + std::to_string(want.col) +
                    ",\"value\":" + std::to_string(want.value) + "}}");
    }
    // Warm-up: every distinct question once, so the measured phases hit.
    std::vector<std::string> lines;
    for (const Query& k : keys_) lines.push_back(search_line(k, 0));
    for (const std::string& r : link.pipeline(lines)) {
      if (oracle::error_of(r) != "") {
        throw std::runtime_error("warm-up failed: " + r);
      }
    }
  }

  bool begin(std::uint32_t, std::size_t, Sender& out) override {
    const auto key = static_cast<std::uint32_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(keys_.size()) - 1));
    Query q = keys_[key];
    q.b = key;
    const std::uint32_t tag = issue(q);
    verdicts_.push_back(Verdict::Error);
    out.send(tag, search_line(q, tag));
    return true;
  }

  // Answers are checked on arrival, so the driver keeps no response
  // bytes: the canonical response is compared byte for byte, and only a
  // mismatch goes through the JSON oracle (which tells wrong from error).
  bool on_response(std::uint32_t, std::uint32_t tag, std::string_view resp,
                   Sender&) override {
    const Query& q = issued_[tag];
    char head[32];
    const int n = std::snprintf(head, sizeof head, "{\"id\":%u", tag);
    const std::string& tail = expected_[q.b];
    const bool same =
        resp.size() == static_cast<std::size_t>(n) + tail.size() &&
        resp.compare(0, static_cast<std::size_t>(n), head) == 0 &&
        resp.compare(static_cast<std::size_t>(n), tail.size(), tail) == 0;
    verdicts_[tag] = same ? Verdict::Ok : check_search(q, resp, tag);
    return true;
  }
  bool keep_responses() const override { return false; }
  Verdict check(std::uint32_t tag, std::string_view resp) const override {
    return resp.empty() ? verdicts_[tag] : check_search(issued_[tag], resp, tag);
  }
  std::string line_of(std::uint32_t tag) const override {
    return search_line(issued_[tag], tag);
  }
  std::string line_for(std::uint32_t tag, std::int64_t id) const override {
    Query q = issued_[tag];
    q.array_id = id;
    return search_line(q, tag);
  }

 private:
  Rng rng_;
  std::vector<Query> keys_;
  std::vector<std::string> expected_;  // canonical response after the id
  std::vector<Verdict> verdicts_;      // per issued request
};

// ---------------------------------------------------------------------------
// cold_search
// ---------------------------------------------------------------------------

class ColdSearch : public Workload {
 public:
  const char* name() const override { return "cold_search"; }
  PhasePlan plan() const override {
    PhasePlan p;
    p.closed_window = 32;
    p.open_rate = 2000;
    return p;
  }

  void prepare(std::uint64_t seed, double) override {
    rng_ = Rng(seed);
    warm_rng_ = Rng(seed ^ 0x5bd1e995u);
    // The operands are the same for every seed (the seed draws the
    // queries): the cost of a staircase search follows its frontier, so
    // per-seed operands would make run cost a property of the seed.
    using K = Operand::Kind;
    ops_.push_back(Operand::random(K::Monge, 2048, 2048, 101));
    ops_.push_back(Operand::random(K::Staircase, 2048, 2048, 102));
    ops_.push_back(Operand::random(K::Monge, 2048, 2048, 103));
    ops_.push_back(Operand::random(K::Monge, 512, 512, 104));
    ops_[2].indexed = true;
    ops_[3].indexed = true;
  }

  void setup(Link& link) override {
    register_all(link, ops_);
    std::vector<std::string> lines;
    for (int i = 0; i < 2000; ++i) lines.push_back(search_line(draw(warm_rng_), 0));
    for (const std::string& r : link.pipeline(lines)) {
      if (oracle::error_of(r) != "") {
        throw std::runtime_error("warm-up failed: " + r);
      }
    }
  }

  bool begin(std::uint32_t, std::size_t, Sender& out) override {
    const std::uint32_t tag = issue(draw(rng_));
    out.send(tag, search_line(issued_[tag], tag));
    return true;
  }
  bool on_response(std::uint32_t, std::uint32_t, std::string_view,
                   Sender&) override {
    return true;
  }
  std::string line_of(std::uint32_t tag) const override {
    return search_line(issued_[tag], tag);
  }
  std::string line_for(std::uint32_t tag, std::int64_t id) const override {
    Query q = issued_[tag];
    q.array_id = id;
    return search_line(q, tag);
  }

 private:
  // Mix: 20% rowmin, 15% rowmax (Monge 2048), 20% staircase_rowmin,
  // 45% submatrix min/max spread evenly over the four operands.
  Query draw(Rng& rng) const {
    Query q;
    const double u = rng.uniform01();
    if (u < 0.55) {
      q.op = u < 0.20 ? Op::RowMin : u < 0.35 ? Op::RowMax : Op::StairMin;
      q.target = q.op == Op::StairMin ? 1 : 0;
      q.a = static_cast<std::uint32_t>(rng.uniform_int(0, 2047));
    } else {
      q.op = u < 0.775 ? Op::SubMin : Op::SubMax;
      q.target = static_cast<std::uint32_t>(rng.uniform_int(0, 3));
      const std::size_t n = ops_[q.target].rows;
      draw_interval(rng, n, q.a, q.b);
      draw_interval(rng, ops_[q.target].cols, q.c, q.d);
    }
    q.array_id = ops_[q.target].id;
    return q;
  }

  Rng rng_, warm_rng_;
};

// ---------------------------------------------------------------------------
// apps_mixed
// ---------------------------------------------------------------------------

struct AppItem {
  Op op = Op::Edit;
  std::string body;  // the request line after its opening '{'
  bool long_edit = false;
  std::string x, y;
  std::int64_t ins = 1, del = 1, sub = 1;
  std::vector<pmonge::apps::IPoint> ipts;
  std::vector<pmonge::apps::DPoint> dpts;
  pmonge::apps::Rect bound;
  pmonge::geom::ConvexPolygon P, Q;
  pmonge::apps::NeighborKind kind = pmonge::apps::NeighborKind::NearestVisible;
  std::uint32_t i = 0, k = 0;
};

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string random_string(Rng& rng, std::size_t n) {
  static const char kAlpha[] = "acgt";
  std::string s(n, 'a');
  for (char& c : s) c = kAlpha[rng.uniform_int(0, 3)];
  return s;
}

class AppsMixed : public Workload {
 public:
  const char* name() const override { return "apps_mixed"; }
  PhasePlan plan() const override {
    PhasePlan p;
    p.closed_window = 1;
    p.fixed_list = true;
    return p;
  }

  void prepare(std::uint64_t seed, double seconds) override {
    Rng rng(seed);
    using K = Operand::Kind;
    ops_.push_back(Operand::random(K::Monge, 512, 512, seed * 16 + 1));
    ops_.push_back(Operand::random(K::Monge, 512, 512, seed * 16 + 2));
    const auto per_s = [&](double r) {
      return static_cast<std::size_t>(std::max(1.0, std::round(r * seconds)));
    };
    // Connection 0 carries every string edit, one at a time, so no two
    // edits ever share a batch: the number of edits the planner sends to
    // the metered parallel path is the number of long ones, two per run.
    const std::size_t edits = per_s(kEditsPerS);
    for (std::size_t e = 0; e < edits; ++e) {
      lists_[0].push_back(static_cast<std::uint32_t>(items_.size()));
      const bool is_long = e == edits / 3 || e == 2 * edits / 3;
      items_.push_back(make_edit(rng, is_long));
    }
    std::vector<AppItem> rest;
    for (std::size_t n = per_s(kLargestRectPerS); n > 0; --n) {
      rest.push_back(make_largest_rect(rng));
    }
    for (std::size_t n = per_s(kEmptyRectPerS); n > 0; --n) {
      rest.push_back(make_empty_rect(rng));
    }
    for (std::size_t n = per_s(kNeighborsPerS); n > 0; --n) {
      rest.push_back(make_neighbors(rng));
    }
    std::set<std::pair<std::uint32_t, std::uint32_t>> tube_points;
    for (std::size_t n = per_s(kTubePerS); n > 0; --n) {
      AppItem it;
      it.op = Op::Tube;
      do {
        it.i = static_cast<std::uint32_t>(rng.uniform_int(0, 511));
        it.k = static_cast<std::uint32_t>(rng.uniform_int(0, 511));
      } while (!tube_points.insert({it.i, it.k}).second);
      rest.push_back(std::move(it));
    }
    // Seeded shuffle, then dealt round-robin to connections 1..3.
    for (std::size_t a = rest.size(); a > 1; --a) {
      std::swap(rest[a - 1],
                rest[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(a) - 1))]);
    }
    for (std::size_t n = 0; n < rest.size(); ++n) {
      lists_[1 + n % 3].push_back(static_cast<std::uint32_t>(items_.size()));
      items_.push_back(std::move(rest[n]));
    }
  }

  void setup(Link& link) override {
    register_all(link, ops_);
    for (AppItem& it : items_) {
      if (it.op == Op::Tube) set_tube_body(it, ops_[0].id, ops_[1].id);
    }
    // Warm-up: a few requests of every kind outside the measured list,
    // one at a time (coalesced string edits would take the slow path).
    Rng rng(0x77);
    for (int n = 0; n < 2; ++n) {
      for (const AppItem& it : {make_edit(rng, false), make_largest_rect(rng),
                                make_empty_rect(rng), make_neighbors(rng),
                                make_tube(rng, ops_[0].id, ops_[1].id)}) {
        const std::string r = link.request("{" + it.body);
        if (oracle::error_of(r) != "") {
          throw std::runtime_error("warm-up failed: " + r);
        }
      }
    }
  }

  bool begin(std::uint32_t, std::size_t conn, Sender& out) override {
    auto& list = lists_[conn % 4];
    std::size_t& next = next_[conn % 4];
    if (next >= list.size()) return false;
    Query q;
    q.target = list[next++];
    q.op = items_[q.target].op;
    const std::uint32_t tag = issue(q);
    out.send(tag, line_of(tag));
    return true;
  }
  bool on_response(std::uint32_t, std::uint32_t, std::string_view,
                   Sender&) override {
    return true;
  }
  std::string line_of(std::uint32_t tag) const override {
    return "{\"id\":" + std::to_string(tag) + "," +
           items_[issued_[tag].target].body;
  }

  Verdict check(std::uint32_t tag, std::string_view resp) const override {
    const AppItem& it = items_[issued_[tag].target];
    try {
      const Json j = Json::parse(resp);
      Verdict v = Verdict::Ok;
      const Json* r = oracle::ok_result(j, tag, v);
      if (r == nullptr) return v;
      return check_item(it, *r) ? Verdict::Ok : Verdict::Wrong;
    } catch (const std::exception&) {
      return Verdict::Error;
    }
  }

  bool skip_in_replay(std::uint32_t tag) const override {
    return items_[issued_[tag].target].long_edit;
  }

  static AppItem make_edit(Rng& rng, bool is_long) {
    AppItem it;
    it.op = Op::Edit;
    it.long_edit = is_long;
    const auto len = [&] {
      return static_cast<std::size_t>(is_long ? 260 : rng.uniform_int(48, 256));
    };
    it.x = random_string(rng, len());
    it.y = random_string(rng, len());
    it.ins = rng.uniform_int(1, 2);
    it.del = rng.uniform_int(1, 2);
    it.sub = rng.uniform_int(1, 3);
    it.body = "\"op\":\"string_edit\",\"x\":\"" + it.x + "\",\"y\":\"" + it.y +
              "\",\"ins\":" + std::to_string(it.ins) +
              ",\"del\":" + std::to_string(it.del) +
              ",\"sub\":" + std::to_string(it.sub) + "}";
    return it;
  }

  static AppItem make_largest_rect(Rng& rng) {
    AppItem it;
    it.op = Op::LargestRect;
    it.ipts = pmonge::apps::random_points(1000, rng);
    it.body = "\"op\":\"largest_rect\",\"points\":[";
    for (const auto& p : it.ipts) {
      it.body += "[" + std::to_string(p.x) + "," + std::to_string(p.y) + "],";
    }
    it.body.back() = ']';
    it.body += '}';
    return it;
  }

  static AppItem make_empty_rect(Rng& rng) {
    AppItem it;
    it.op = Op::EmptyRect;
    it.bound = {0, 0, 1000, 1000};
    it.dpts = pmonge::apps::random_dpoints(400, rng, it.bound);
    it.body = "\"op\":\"empty_rect\",\"bound\":[0,0,1000,1000],\"points\":[";
    for (const auto& p : it.dpts) {
      it.body += "[" + fmt_double(p.x) + "," + fmt_double(p.y) + "],";
    }
    it.body.back() = ']';
    it.body += '}';
    return it;
  }

  static AppItem make_neighbors(Rng& rng) {
    static const char* kKinds[] = {"nearest_visible", "nearest_invisible",
                                   "farthest_visible", "farthest_invisible"};
    AppItem it;
    it.op = Op::Neighbors;
    const auto m = static_cast<std::size_t>(rng.uniform_int(48, 160));
    const auto n = static_cast<std::size_t>(rng.uniform_int(48, 160));
    auto [P, Q] = pmonge::geom::random_disjoint_polygons(m, n, rng);
    it.P = std::move(P);
    it.Q = std::move(Q);
    const auto kind = static_cast<std::size_t>(rng.uniform_int(0, 3));
    it.kind = static_cast<pmonge::apps::NeighborKind>(kind);
    const auto poly = [](const pmonge::geom::ConvexPolygon& g) {
      std::string s = "[";
      for (const auto& v : g.vertices()) {
        s += "[" + fmt_double(v.x) + "," + fmt_double(v.y) + "],";
      }
      s.back() = ']';
      return s;
    };
    it.body = "\"op\":\"polygon_neighbors\",\"kind\":\"" +
              std::string(kKinds[kind]) + "\",\"p\":" + poly(it.P) +
              ",\"q\":" + poly(it.Q) + "}";
    return it;
  }

  static AppItem make_tube(Rng& rng, std::int64_t d, std::int64_t e) {
    AppItem it;
    it.op = Op::Tube;
    it.i = static_cast<std::uint32_t>(rng.uniform_int(0, 511));
    it.k = static_cast<std::uint32_t>(rng.uniform_int(0, 511));
    set_tube_body(it, d, e);
    return it;
  }

  static void set_tube_body(AppItem& it, std::int64_t d, std::int64_t e) {
    it.body = "\"op\":\"tubemax\",\"d\":" + std::to_string(d) +
              ",\"e\":" + std::to_string(e) + ",\"i\":" + std::to_string(it.i) +
              ",\"k\":" + std::to_string(it.k) + "}";
  }

 private:
  // Requests per second of --seconds.
  static constexpr double kEditsPerS = 20;
  static constexpr double kLargestRectPerS = 8;
  static constexpr double kEmptyRectPerS = 3;
  static constexpr double kNeighborsPerS = 8;
  static constexpr double kTubePerS = 20;

  bool check_item(const AppItem& it, const Json& r) const {
    switch (it.op) {
      case Op::Edit:
        return r.at("cost").as_int() ==
               oracle::edit_dp(it.x, it.y, it.ins, it.del, it.sub);
      case Op::Tube: {
        const auto& d = ops_[0].data;
        const auto& e = ops_[1].data;
        std::int64_t best = d(it.i, 0) + e(0, it.k);
        std::size_t bestj = 0;
        for (std::size_t j = 1; j < d.cols(); ++j) {
          const std::int64_t v = d(it.i, j) + e(j, it.k);
          if (v > best) {
            best = v;
            bestj = j;
          }
        }
        return r.at("value").as_int() == best &&
               r.at("j").as_int() == static_cast<std::int64_t>(bestj);
      }
      case Op::LargestRect: {
        const auto want = pmonge::apps::largest_rect_brute(it.ipts);
        const auto& a = r.at("a").arr();
        const auto& b = r.at("b").arr();
        const pmonge::apps::IPoint pa{a.at(0).as_int(), a.at(1).as_int()};
        const pmonge::apps::IPoint pb{b.at(0).as_int(), b.at(1).as_int()};
        const auto has = [&](const pmonge::apps::IPoint& p) {
          return std::find(it.ipts.begin(), it.ipts.end(), p) != it.ipts.end();
        };
        return r.at("area").as_int() == want.area && has(pa) && has(pb) &&
               std::abs(pa.x - pb.x) * std::abs(pa.y - pb.y) == want.area;
      }
      case Op::EmptyRect: {
        const auto want = pmonge::apps::largest_empty_rect_brute(it.dpts,
                                                                 it.bound);
        const pmonge::apps::Rect got{r.at("x1").as_double(),
                                     r.at("y1").as_double(),
                                     r.at("x2").as_double(),
                                     r.at("y2").as_double()};
        const double area = r.at("area").as_double();
        return std::abs(area - want.area()) <= 1e-9 * std::max(1.0, want.area()) &&
               std::abs(got.area() - area) <= 1e-9 * std::max(1.0, area) &&
               pmonge::apps::rect_is_empty(got, it.dpts, it.bound);
      }
      case Op::Neighbors: {
        const auto want = pmonge::apps::neighbors_brute(it.P, it.Q, it.kind);
        const auto& nb = r.at("neighbor").arr();
        const auto& dist = r.at("distance").arr();
        if (nb.size() != want.neighbor.size() || dist.size() != nb.size()) {
          return false;
        }
        for (std::size_t v = 0; v < nb.size(); ++v) {
          if (want.neighbor[v] == pmonge::apps::NeighborResult::npos) {
            if (nb[v].as_int() != -1 || !dist[v].is_null()) return false;
            continue;
          }
          // Equal distances are ties: either vertex is a right answer.
          const double dw = want.distance[v];
          if (dist[v].is_null() ||
              std::abs(dist[v].as_double() - dw) > 1e-9 * std::max(1.0, dw)) {
            return false;
          }
        }
        return true;
      }
      default:
        return false;
    }
  }

  std::vector<AppItem> items_;
  std::vector<std::uint32_t> lists_[4];
  std::size_t next_[4] = {0, 0, 0, 0};
};

// ---------------------------------------------------------------------------
// register_churn
// ---------------------------------------------------------------------------

class RegisterChurn : public Workload {
 public:
  const char* name() const override { return "register_churn"; }
  PhasePlan plan() const override {
    PhasePlan p;
    p.closed_window = 1;
    p.closed_share = 0.3;
    p.open_rate = 15;
    p.rotate_cpus = true;
    return p;
  }

  void prepare(std::uint64_t seed, double) override {
    rng_ = Rng(seed);
    Rng gen(seed * 31 + 7);
    // 40 client-generated arrays; two are not Monge, and 5% of sessions
    // register one of those.  Their
    // shapes are the same for every seed, so a run's cost does not
    // depend on the seed; the data and the session draws do.
    Rng shape(40);
    for (std::size_t p = 0; p < kPool; ++p) {
      Operand op;
      op.kind = p % 2 ? Operand::Kind::Staircase : Operand::Kind::Monge;
      op.non_monge = p == kBad0 || p == kBad1;
      op.rows = static_cast<std::size_t>(shape.uniform_int(192, 320));
      op.cols = static_cast<std::size_t>(shape.uniform_int(192, 320));
      if (op.kind == Operand::Kind::Monge) {
        op.data = pmonge::monge::random_monge(op.rows, op.cols, gen);
        if (op.non_monge) {
          for (std::size_t i = 0; i < op.rows; ++i) {
            for (std::size_t j = 0; j < op.cols; ++j) {
              op.data.at(i, j) = gen.uniform_int(-999999, 999999);
            }
          }
        }
      } else {
        auto inst = pmonge::monge::random_staircase_monge(op.rows, op.cols, gen);
        op.data = std::move(inst.base);
        op.frontier = std::move(inst.frontier);
      }
      op.fill_row_tables();
      std::string line = op.register_data_line();
      if (line.size() >= kMaxLine) {
        throw std::runtime_error("register line over the 1 MiB limit");
      }
      bodies_.push_back(line.substr(1));
      ops_.push_back(std::move(op));
    }
  }

  void setup(Link& link) override {
    // Warm-up: register, query and unregister the first eight arrays.
    for (std::uint32_t p = 0; p < 8; ++p) {
      const std::string resp =
          link.request("{\"id\":0," + bodies_[p]);
      const std::int64_t id = array_id_of(resp);
      if (id < 0) throw std::runtime_error("register failed: " + resp);
      Query q;
      q.op = ops_[p].kind == Operand::Kind::Monge ? Op::RowMin : Op::StairMin;
      q.array_id = id;
      link.request(search_line(q, 0));
      q.op = Op::Unregister;
      link.request(search_line(q, 0));
    }
  }

  bool begin(std::uint32_t s, std::size_t, Sender& out) override {
    if (sessions_.size() <= s) sessions_.resize(s + 1);
    Session& ss = sessions_[s];
    // Every twentieth session registers one of the two non-Monge arrays;
    // the rest draw among the Monge ones.
    if (started_++ % 20 == 7) {
      ss.pool = rng_.chance(0.5) ? kBad0 : kBad1;
    } else {
      do {
        ss.pool = static_cast<std::uint32_t>(rng_.uniform_int(0, kPool - 1));
      } while (ops_[ss.pool].non_monge);
    }
    Query q;
    q.op = Op::Register;
    q.target = ss.pool;
    const std::uint32_t tag = issue(q);
    out.send(tag, "{\"id\":" + std::to_string(tag) + "," + bodies_[ss.pool]);
    return true;
  }

  bool on_response(std::uint32_t s, std::uint32_t tag, std::string_view resp,
                   Sender& out) override {
    Session& ss = sessions_[s];
    const Query& done = issued_[tag];
    if (done.op == Op::Register) {
      std::int64_t id = -1;
      try {
        id = array_id_of(resp);
      } catch (const std::exception&) {
      }
      if (id < 0) return true;  // rejected: the session ends here
      ss.array_id = id;
      const Operand& op = ops_[ss.pool];
      // Four row searches and a submatrix min and max on the new array.
      for (int n = 0; n < 6; ++n) {
        Query q;
        q.target = ss.pool;
        q.array_id = id;
        if (n < 4) {
          q.op = op.kind == Operand::Kind::Staircase ? Op::StairMin
                 : rng_.chance(0.5)                  ? Op::RowMin
                                                     : Op::RowMax;
          q.a = static_cast<std::uint32_t>(
              rng_.uniform_int(0, static_cast<std::int64_t>(op.rows) - 1));
        } else {
          q.op = n == 4 ? Op::SubMin : Op::SubMax;
          draw_interval(rng_, op.rows, q.a, q.b);
          draw_interval(rng_, op.cols, q.c, q.d);
        }
        const std::uint32_t t = issue(q);
        out.send(t, search_line(q, t));
      }
      ss.pending = 6;
      return false;
    }
    if (done.op == Op::Unregister) return true;
    if (--ss.pending == 0) {
      Query q;
      q.op = Op::Unregister;
      q.target = ss.pool;
      q.array_id = ss.array_id;
      const std::uint32_t t = issue(q);
      out.send(t, search_line(q, t));
    }
    return false;
  }

  Verdict check(std::uint32_t tag, std::string_view resp) const override {
    const Query& q = issued_[tag];
    if (q.op == Op::Register || q.op == Op::Unregister) {
      try {
        const Json j = Json::parse(resp);
        Verdict v = Verdict::Ok;
        const Json* r = oracle::ok_result(j, tag, v);
        if (r == nullptr) {
          const bool rejected_bad_input =
              q.op == Op::Register && ops_[q.target].non_monge &&
              oracle::error_of(resp).starts_with("not_");
          return rejected_bad_input ? Verdict::ExpectedReject : v;
        }
        if (q.op == Op::Unregister) {
          const Json* removed = r->find("removed");
          return removed != nullptr && removed->as_bool() ? Verdict::Ok
                                                           : Verdict::Wrong;
        }
        return r->find("array") != nullptr ? Verdict::Ok : Verdict::Wrong;
      } catch (const std::exception&) {
        return Verdict::Error;
      }
    }
    return check_search(q, resp, tag);
  }

  std::string line_of(std::uint32_t tag) const override {
    const Query& q = issued_[tag];
    if (q.op == Op::Register) {
      return "{\"id\":" + std::to_string(tag) + "," + bodies_[q.target];
    }
    return search_line(q, tag);
  }
  std::string line_for(std::uint32_t tag, std::int64_t id) const override {
    Query q = issued_[tag];
    if (q.op == Op::Register) return line_of(tag);
    q.array_id = id;
    return search_line(q, tag);
  }

 private:
  static constexpr std::int64_t kPool = 40;
  static constexpr std::uint32_t kBad0 = 6, kBad1 = 26;  // the non-Monge two
  static constexpr std::size_t kMaxLine = std::size_t{1} << 20;
  struct Session {
    std::uint32_t pool = 0;
    std::int64_t array_id = -1;
    int pending = 0;
  };
  Rng rng_;
  std::uint64_t started_ = 0;  // sessions begun, over every phase
  std::vector<std::string> bodies_;
  std::vector<Session> sessions_;
};

}  // namespace

std::vector<std::pair<std::string, std::string>> app_probe_lines(
    std::uint64_t seed, std::size_t per_op) {
  Rng rng(seed);
  std::vector<std::pair<std::string, std::string>> out;
  for (std::size_t n = 0; n < per_op; ++n) {
    for (const AppItem& it :
         {AppsMixed::make_edit(rng, false), AppsMixed::make_largest_rect(rng),
          AppsMixed::make_empty_rect(rng), AppsMixed::make_neighbors(rng),
          AppsMixed::make_tube(rng, 0, 1)}) {
      out.emplace_back(op_name(it.op), "{" + it.body);
    }
  }
  return out;
}

std::unique_ptr<Workload> Workload::make(const std::string& name) {
  if (name == "hot_cached") return std::make_unique<HotCached>();
  if (name == "cold_search") return std::make_unique<ColdSearch>();
  if (name == "apps_mixed") return std::make_unique<AppsMixed>();
  if (name == "register_churn") return std::make_unique<RegisterChurn>();
  return nullptr;
}

}  // namespace perfbench
