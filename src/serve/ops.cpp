#include "serve/ops.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "apps/empty_rect.hpp"
#include "apps/largest_rect.hpp"
#include "apps/polygon_neighbors.hpp"
#include "apps/string_edit.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault.hpp"
#include "geom/geometry.hpp"
#include "index/index.hpp"
#include "monge/staircase_seq.hpp"
#include "obs/trace.hpp"
#include "par/monge_rowminima.hpp"
#include "par/staircase_rowminima.hpp"
#include "par/tube_maxima.hpp"

namespace pmonge::serve {

using Member = detail::BatchMember;

namespace {

using monge::kNoCol;
using monge::RowOpt;
using Rows = std::vector<RowOpt<std::int64_t>>;

/// Close out a parallel-path kernel: fold the machine's charged PRAM
/// costs into the service totals and onto the kernel span, so exported
/// traces show predicted cost next to measured wall time.
void charge(ServiceMetrics& metrics, const pram::Machine& mach,
            obs::Span& span) {
  metrics.charged_time().add(mach.meter().time);
  metrics.charged_work().add(mach.meter().work);
  span.set_charged(mach.meter().time, mach.meter().work);
}

std::int64_t int_field_or(const Json& body, const std::string& key,
                          std::int64_t def) {
  const Json* p = body.find(key);
  return p == nullptr ? def : p->as_int();
}

/// Non-negative index field, checked against an exclusive bound.
std::size_t index_field(const Json& body, const std::string& key,
                        std::size_t bound, const char* what) {
  const std::int64_t v = body.at(key).as_int();
  if (v < 0 || static_cast<std::size_t>(v) >= bound) {
    throw JsonError(std::string("bad_request: ") + what + " out of range");
  }
  return static_cast<std::size_t>(v);
}

Json rowopt_result(const RowOpt<std::int64_t>& r) {
  Json::Obj o;
  if (r.col == kNoCol) {
    o["col"] = -1;
    o["value"] = nullptr;
  } else {
    o["col"] = static_cast<std::int64_t>(r.col);
    o["value"] = r.value;
  }
  return Json(std::move(o));
}

/// Parse every member's fields with `parse`, which returns a value or
/// throws JsonError.  A member that throws answers that error here; the
/// rest come back as (value, member) pairs in member order.
template <class Parse>
auto parse_members(std::vector<Member>& members, Parse&& parse) {
  std::vector<std::pair<decltype(parse(members.front().req->body)), Member*>>
      live;
  for (Member& m : members) {
    try {
      live.emplace_back(parse(m.req->body), &m);
    } catch (const JsonError& e) {
      set_error(*m.out, e.what());
    }
  }
  return live;
}

/// A list of [x,y] pairs; `what` names one element in the error.
template <class P>
std::vector<P> xy_list(const Json& list, const char* what) {
  std::vector<P> out;
  for (const Json& p : list.arr()) {
    const auto& xy = p.arr();
    if (xy.size() != 2) {
      throw JsonError(std::string("bad_request: ") + what + " is not [x,y]");
    }
    if constexpr (std::is_integral_v<decltype(P::x)>) {
      out.push_back({xy[0].as_int(), xy[1].as_int()});
    } else {
      out.push_back({xy[0].as_double(), xy[1].as_double()});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Group handlers.  Each answers every member (outcome or error) and never
// throws across the job boundary.
// ---------------------------------------------------------------------------

/// Queried rows of a Monge / inverse-Monge array under the group's plan.
Rows dense_rows(const Group& g, const std::vector<std::size_t>& rows,
                obs::Span& kspan) {
  const bool maxima = g.op.maxima;
  const bool inverse = g.arrays[0]->kind == ArrayEntry::Kind::InverseMonge;
  const auto& a = g.arrays[0]->data;
  Rows res;
  if (g.plan.algo == plan::Algo::Brute) {
    res.reserve(rows.size());
    for (const std::size_t r : rows) {
      RowOpt<std::int64_t> best{a(r, 0), 0};
      for (std::size_t j = 1; j < a.cols(); ++j) {
        const std::int64_t v = a(r, j);
        if (maxima ? v > best.value : v < best.value) best = {v, j};
      }
      res.push_back(best);
    }
  } else if (g.plan.algo == plan::Algo::Sequential) {
    Rows all;
    if (!inverse && !maxima) {
      all = monge::smawk_row_minima(a);
    } else if (!inverse && maxima) {
      all = monge::smawk_row_maxima_monge(a);
    } else if (inverse && !maxima) {
      all = monge::smawk_row_minima_inverse_monge(a);
    } else {
      all = monge::smawk_row_maxima_inverse_monge(a);
    }
    res.reserve(rows.size());
    for (const std::size_t r : rows) res.push_back(all[r]);
  } else {
    pram::Machine mach(g.model);
    exec::GrainScope grain(g.plan.grain);
    if (!inverse && !maxima) {
      res = par::monge_row_minima_rows(mach, a, rows);
    } else if (!inverse && maxima) {
      res = par::monge_row_maxima_rows(mach, a, rows);
    } else if (inverse && !maxima) {
      res = par::inverse_monge_row_minima_rows(mach, a, rows);
    } else {
      res = par::inverse_monge_row_maxima_rows(mach, a, rows);
    }
    charge(g.metrics, mach, kspan);
  }
  return res;
}

/// Queried rows of a staircase-Monge array under the group's plan.
Rows staircase_rows(const Group& g, const std::vector<std::size_t>& rows,
                    obs::Span& kspan) {
  const bool maxima = g.op.maxima;
  const ArrayEntry& entry = *g.arrays[0];
  monge::StaircaseArray<monge::DenseArray<std::int64_t>> s(entry.data,
                                                           entry.frontier);
  Rows res;
  if (g.plan.algo == plan::Algo::Brute) {
    // Leftmost optimum over each queried row's finite prefix.
    res.reserve(rows.size());
    for (const std::size_t r : rows) {
      const std::size_t width = s.frontier(r);
      RowOpt<std::int64_t> best{0, kNoCol};
      for (std::size_t j = 0; j < width; ++j) {
        const std::int64_t v = entry.data(r, j);
        if (best.col == kNoCol || (maxima ? v > best.value : v < best.value)) {
          best = {v, j};
        }
      }
      res.push_back(best);
    }
  } else if (g.plan.algo == plan::Algo::Sequential) {
    auto all = maxima ? monge::staircase_row_maxima_seq(s)
                      : monge::staircase_row_minima_seq(s);
    res.reserve(rows.size());
    for (const std::size_t r : rows) res.push_back(all[r]);
  } else {
    pram::Machine mach(g.model);
    exec::GrainScope grain(g.plan.grain);
    res = maxima ? par::staircase_row_maxima_rows(mach, s, rows)
                 : par::staircase_row_minima_rows(mach, s, rows);
    charge(g.metrics, mach, kspan);
  }
  return res;
}

/// Row queries, dense or staircase: each distinct queried row is solved
/// once for the whole group and read off by every member asking it.
void run_rows(Group& g) {
  const ArrayEntry& entry = *g.arrays[0];
  const auto live = parse_members(g.members, [&](const Json& b) {
    return index_field(b, "row", entry.data.rows(), "row");
  });
  if (live.empty()) return;
  std::vector<std::size_t> rows;
  for (const auto& [row, m] : live) rows.push_back(row);
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());

  // Every variant returns the *leftmost* optimum of each queried row, so
  // the plan choice never shows in the response bytes.
  obs::Span kspan("serve.kernel");
  kspan.set_detail(plan::algo_name(g.plan.algo));
  const Rows res = entry.kind == ArrayEntry::Kind::Staircase
                       ? staircase_rows(g, rows, kspan)
                       : dense_rows(g, rows, kspan);
  for (const auto& [row, m] : live) {
    const auto it = std::lower_bound(rows.begin(), rows.end(), row);
    set_ok(*m->out, rowopt_result(res[static_cast<std::size_t>(
                        it - rows.begin())]));
  }
}

Json region_result(const index::RegionOpt& r) {
  Json::Obj o;
  if (!r.has) {
    o["value"] = nullptr;
    o["row"] = -1;
    o["col"] = -1;
  } else {
    o["value"] = r.value;
    o["row"] = static_cast<std::int64_t>(r.row);
    o["col"] = static_cast<std::int64_t>(r.col);
  }
  return Json(std::move(o));
}

/// Submatrix min/max over a registered array.  With `g.idx` set, every
/// member is answered through the query index; otherwise each runs the
/// direct sub-block solver under the planned algorithm.  Both paths
/// reduce candidates under the same total order (value, leftmost col,
/// topmost row), so the route never shows in the response bytes.
void run_submatrix(Group& g) {
  const ArrayEntry& entry = *g.arrays[0];
  obs::Span kspan("serve.kernel");
  kspan.set_detail(g.idx != nullptr ? "index" : plan::algo_name(g.plan.algo));
  for (Member& m : g.members) {
    try {
      const Json& b = m.req->body;
      const std::size_t r0 = index_field(b, "r0", entry.data.rows(), "r0");
      const std::size_t r1 = index_field(b, "r1", entry.data.rows(), "r1");
      const std::size_t c0 = index_field(b, "c0", entry.data.cols(), "c0");
      const std::size_t c1 = index_field(b, "c1", entry.data.cols(), "c1");
      if (r1 < r0) throw JsonError("bad_request: r1 < r0");
      if (c1 < c0) throw JsonError("bad_request: c1 < c0");
      const index::RegionOpt r =
          g.idx != nullptr
              ? g.idx->submatrix_opt(g.op.maxima, r0, r1, c0, c1)
              : index::submatrix_direct(entry, g.op.maxima, g.plan.algo, r0,
                                        r1, c0, c1);
      set_ok(*m.out, region_result(r));
    } catch (const JsonError& e) {
      set_error(*m.out, e.what());
    }
  }
}

void run_tube(Group& g) {
  const ArrayEntry& d = *g.arrays[0];
  const ArrayEntry& e = *g.arrays[1];
  if (d.data.cols() != e.data.rows()) {
    fail_unanswered(g.members, "bad_request: composite dimensions mismatch");
    return;
  }
  const auto live = parse_members(g.members, [&](const Json& b) {
    par::TubeQuery q;
    q.i = index_field(b, "i", d.data.rows(), "i");
    q.k = index_field(b, "k", e.data.cols(), "k");
    return q;
  });
  if (live.empty()) return;
  std::vector<par::TubeQuery> qs;
  for (const auto& [q, m] : live) qs.push_back(q);
  obs::Span kspan("serve.kernel");
  kspan.set_detail(plan::algo_name(g.plan.algo));
  const bool maxima = g.op.maxima;
  if (g.plan.algo != plan::Algo::Parallel) {
    // Per-point scan over the middle index, smallest j on ties --
    // exactly the tube_*_brute convention of monge/composite.hpp.
    const std::size_t q = d.data.cols();
    for (std::size_t t = 0; t < live.size(); ++t) {
      const par::TubeQuery& tq = qs[t];
      std::int64_t best = d.data(tq.i, 0) + e.data(0, tq.k);
      std::size_t bestj = 0;
      for (std::size_t j = 1; j < q; ++j) {
        const std::int64_t v = d.data(tq.i, j) + e.data(j, tq.k);
        if (maxima ? v > best : v < best) {
          best = v;
          bestj = j;
        }
      }
      Json::Obj o;
      o["value"] = best;
      o["j"] = static_cast<std::int64_t>(bestj);
      set_ok(*live[t].second->out, Json(std::move(o)));
    }
    return;
  }
  pram::Machine mach(g.model);
  exec::GrainScope grain(g.plan.grain);
  auto res = maxima ? par::tube_maxima_points(mach, d.data, e.data, qs)
                    : par::tube_minima_points(mach, d.data, e.data, qs);
  charge(g.metrics, mach, kspan);
  for (std::size_t t = 0; t < live.size(); ++t) {
    Json::Obj o;
    o["value"] = res[t].value;
    o["j"] = static_cast<std::int64_t>(res[t].j);
    set_ok(*live[t].second->out, Json(std::move(o)));
  }
}

void run_edit(Group& g) {
  auto live = parse_members(g.members, [](const Json& b) {
    apps::EditJob job;
    job.x = b.at("x").as_string();
    job.y = b.at("y").as_string();
    job.costs.ins = int_field_or(b, "ins", 1);
    job.costs.del = int_field_or(b, "del", 1);
    job.costs.sub = int_field_or(b, "sub", 1);
    return job;
  });
  if (live.empty()) return;
  std::vector<apps::EditJob> jobs;
  for (auto& [job, m] : live) jobs.push_back(std::move(job));
  obs::Span kspan("serve.kernel");
  kspan.set_detail(plan::algo_name(g.plan.algo));
  std::vector<std::int64_t> costs;
  if (g.plan.algo != plan::Algo::Parallel) {
    costs.reserve(jobs.size());
    for (const apps::EditJob& job : jobs) {
      costs.push_back(apps::edit_distance_seq(job.x, job.y, job.costs).cost);
    }
  } else {
    pram::Machine mach(g.model);
    costs = apps::edit_distance_par_batch(mach, jobs);
    charge(g.metrics, mach, kspan);
  }
  for (std::size_t t = 0; t < live.size(); ++t) {
    Json::Obj o;
    o["cost"] = costs[t];
    set_ok(*live[t].second->out, Json(std::move(o)));
  }
}

void run_largest_rect(Group& g) {
  auto live = parse_members(g.members, [](const Json& b) {
    auto pts = xy_list<apps::IPoint>(b.at("points"), "point");
    if (pts.size() < 2) {
      throw JsonError("bad_request: need at least two points");
    }
    return pts;
  });
  if (live.empty()) return;
  std::vector<std::vector<apps::IPoint>> instances;
  for (auto& [pts, m] : live) instances.push_back(std::move(pts));
  obs::Span kspan("serve.kernel");
  kspan.set_detail("parallel");
  pram::Machine mach(g.model);
  const auto best = apps::largest_rect_par_batch(mach, instances);
  charge(g.metrics, mach, kspan);
  for (std::size_t t = 0; t < live.size(); ++t) {
    Json::Obj o;
    o["area"] = best[t].area;
    o["a"] = Json(Json::Arr{Json(best[t].a.x), Json(best[t].a.y)});
    o["b"] = Json(Json::Arr{Json(best[t].b.x), Json(best[t].b.y)});
    set_ok(*live[t].second->out, Json(std::move(o)));
  }
}

/// Fan a group out as parallel branches of one machine, one member per
/// branch; `answer` returns the member's result or throws its error.
template <class Answer>
void run_branches(Group& g, Answer&& answer) {
  obs::Span kspan("serve.kernel");
  kspan.set_detail("parallel");
  pram::Machine mach(g.model);
  mach.parallel_branches(g.members.size(), [&](std::size_t t,
                                               pram::Machine& sub) {
    Member& m = g.members[t];
    try {
      set_ok(*m.out, answer(m.req->body, sub));
    } catch (const JsonError& e) {
      set_error(*m.out, e.what());
    } catch (const fault::InjectedFault&) {
      // Transient by contract: let it reach the group retry loop instead
      // of freezing into a per-member "internal" error.
      throw;
    } catch (const std::exception& e) {
      set_error(*m.out, std::string("internal: ") + e.what());
    }
  });
  charge(g.metrics, mach, kspan);
}

void run_empty_rect(Group& g) {
  run_branches(g, [](const Json& body, pram::Machine& sub) {
    const auto& b = body.at("bound").arr();
    if (b.size() != 4) throw JsonError("bad_request: bound is not [x1,y1,x2,y2]");
    apps::Rect bound{b[0].as_double(), b[1].as_double(), b[2].as_double(),
                     b[3].as_double()};
    const apps::Rect r = apps::largest_empty_rect_par(
        sub, xy_list<apps::DPoint>(body.at("points"), "point"), bound);
    Json::Obj o;
    o["x1"] = r.x1;
    o["y1"] = r.y1;
    o["x2"] = r.x2;
    o["y2"] = r.y2;
    o["area"] = r.area();
    return Json(std::move(o));
  });
}

apps::NeighborKind parse_neighbor_kind(const std::string& s) {
  if (s == "nearest_visible") return apps::NeighborKind::NearestVisible;
  if (s == "nearest_invisible") return apps::NeighborKind::NearestInvisible;
  if (s == "farthest_visible") return apps::NeighborKind::FarthestVisible;
  if (s == "farthest_invisible") return apps::NeighborKind::FarthestInvisible;
  throw JsonError("bad_request: unknown neighbor kind \"" + s + "\"");
}

void run_polygon(Group& g) {
  run_branches(g, [](const Json& body, pram::Machine& sub) {
    const geom::ConvexPolygon P(xy_list<geom::Point>(body.at("p"), "vertex"));
    const geom::ConvexPolygon Q(xy_list<geom::Point>(body.at("q"), "vertex"));
    const auto kind = parse_neighbor_kind(body.at("kind").as_string());
    const auto res = apps::neighbors_par(sub, P, Q, kind);
    Json::Arr neighbor, distance;
    for (std::size_t i = 0; i < res.neighbor.size(); ++i) {
      if (res.neighbor[i] == apps::NeighborResult::npos) {
        neighbor.emplace_back(-1);
        distance.emplace_back(nullptr);
      } else {
        neighbor.emplace_back(static_cast<std::int64_t>(res.neighbor[i]));
        distance.emplace_back(res.distance[i]);
      }
    }
    Json::Obj o;
    o["neighbor"] = Json(std::move(neighbor));
    o["distance"] = Json(std::move(distance));
    return Json(std::move(o));
  });
}

using enum plan::OpClass;
using enum Operands;
using enum Requires;

// The table.  Row order is the metrics vocabulary order.
constexpr QueryOp kOps[] = {
    // name, op class, operands, maxima, requires, indexable, handler
    {"rowmin", RowSearch, Array, false, Dense, false, run_rows},
    {"rowmax", RowSearch, Array, true, Dense, false, run_rows},
    {"staircase_rowmin", RowSearch, Array, false, Staircase, false, run_rows},
    {"staircase_rowmax", RowSearch, Array, true, Staircase, false, run_rows},
    {"tubemax", TubeSearch, Tube, true, Monge, false, run_tube},
    {"tubemin", TubeSearch, Tube, false, Monge, false, run_tube},
    {"string_edit", EditDistance, None, false, Any, false, run_edit},
    {"largest_rect", GeometricApp, None, false, Any, false, run_largest_rect},
    {"empty_rect", GeometricApp, None, false, Any, false, run_empty_rect},
    {"polygon_neighbors", GeometricApp, None, false, Any, false, run_polygon},
    {"submatrix_min", SubmatrixSearch, Array, false, Any, true, run_submatrix},
    {"submatrix_max", SubmatrixSearch, Array, true, Any, true, run_submatrix},
};

}  // namespace

const QueryOp* find_query_op(std::string_view op) {
  for (const QueryOp& q : kOps) {
    if (q.name == op) return &q;
  }
  return nullptr;
}

const std::vector<std::string>& query_ops() {
  static const std::vector<std::string> ops = [] {
    std::vector<std::string> v;
    for (const QueryOp& q : kOps) v.emplace_back(q.name);
    v.emplace_back("explain");
    return v;
  }();
  return ops;
}

bool is_query_op(std::string_view op) {
  return op == "explain" || find_query_op(op) != nullptr;
}

std::span<const std::string> operand_fields(Operands o) {
  static const std::string kArray[] = {"array"};
  static const std::string kTube[] = {"d", "e"};
  switch (o) {
    case Operands::Array: return kArray;
    case Operands::Tube: return kTube;
    case Operands::None: break;
  }
  return {};
}

std::optional<std::int64_t> operand_id(const Json& body,
                                       const std::string& field) {
  const Json* p = body.find(field);
  if (p == nullptr || p->type() != Json::Type::Int) return std::nullopt;
  return p->as_int();
}

const char* kind_mismatch(Requires need, ArrayEntry::Kind k) {
  const bool staircase = k == ArrayEntry::Kind::Staircase;
  switch (need) {
    case Requires::Any: break;
    case Requires::Dense:
      if (staircase) {
        return "wrong_kind: array is staircase; use "
               "staircase_rowmin / staircase_rowmax";
      }
      break;
    case Requires::Staircase:
      if (!staircase) return "wrong_kind: array is not staircase";
      break;
    case Requires::Monge:
      if (k != ArrayEntry::Kind::Monge) {
        return "wrong_kind: tube operands must be monge";
      }
      break;
  }
  return nullptr;
}

void fail_unanswered(std::vector<Member>& members, const std::string& why) {
  for (Member& m : members) {
    if (!m.out->ok && m.out->error.empty()) set_error(*m.out, why);
  }
}

}  // namespace pmonge::serve
