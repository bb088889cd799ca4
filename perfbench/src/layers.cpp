#include "layers.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>

#include "exec/thread_pool.hpp"
#include "index/index.hpp"
#include "monge/generators.hpp"
#include "monge/smawk.hpp"
#include "monge/validate.hpp"
#include "par/monge_rowminima.hpp"
#include "plan/planner.hpp"
#include "pram/machine.hpp"
#include "rpc/framing.hpp"
#include "serve/batcher.hpp"
#include "serve/codec.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace serve = pmonge::serve;
using serve::Json;

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

std::size_t SpanLog::begin(std::string name) {
  Span s;
  s.name = std::move(name);
  s.start_ns = now_ns();
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::end(std::size_t span) {
  spans_[span].end_ns = now_ns();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

std::string SpanLog::chrome_json() const {
  Json::Arr events;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Json::Obj e;
    e["name"] = s.name;
    e["ph"] = "X";
    e["pid"] = 1;
    e["tid"] = 1;
    e["ts"] = static_cast<double>(s.start_ns) / 1000.0;
    e["dur"] = static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
    Json::Obj args;
    args["id"] = static_cast<std::int64_t>(i);
    args["parent"] = s.parent;
    e["args"] = Json(std::move(args));
    events.emplace_back(std::move(e));
  }
  Json::Obj doc;
  doc["traceEvents"] = Json(std::move(events));
  return Json(std::move(doc)).dump();
}

namespace {

class Scoped {
 public:
  Scoped(SpanLog& log, std::string name) : log_(log), id_(log.begin(std::move(name))) {}
  ~Scoped() { log_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  std::size_t id_;
};

class ServiceLink : public Link {
 public:
  explicit ServiceLink(serve::Service& s) : s_(s) {}
  std::string request(std::string_view line) override {
    return s_.request(std::string(line));
  }
  // Pipelined in slices well inside the admission queue's capacity.
  std::vector<std::string> pipeline(
      const std::vector<std::string>& lines) override {
    std::vector<std::string> out;
    for (std::size_t off = 0; off < lines.size(); off += 128) {
      const std::vector<std::string> slice(
          lines.begin() + static_cast<std::ptrdiff_t>(off),
          lines.begin() + static_cast<std::ptrdiff_t>(std::min(off + 128, lines.size())));
      for (std::string& r : s_.request_batch(slice)) out.push_back(std::move(r));
    }
    return out;
  }

 private:
  serve::Service& s_;
};

// Median wall nanoseconds of `reps` runs of f.
template <class F>
double median_ns(int reps, F&& f) {
  std::vector<double> ns;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    f();
    ns.push_back(static_cast<double>(now_ns() - t0));
  }
  return median(std::move(ns));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::int64_t array_id(const std::string& resp) {
  const Json j = Json::parse(resp);
  const Json* r = j.find("result");
  return r != nullptr && r->find("array") != nullptr ? r->at("array").as_int()
                                                      : -1;
}

bool is_register(Op op) { return op == Op::Register; }
bool is_query(Op op) { return op != Op::Register && op != Op::Unregister; }

serve::ArrayEntry entry_of(Operand&& op) {
  serve::ArrayEntry e;
  e.kind = op.kind == Operand::Kind::Monge ? serve::ArrayEntry::Kind::Monge
                                           : serve::ArrayEntry::Kind::Staircase;
  e.data = std::move(op.data);
  e.frontier = std::move(op.frontier);
  return e;
}

// `actual_us / predicted_us` of one explain response.
double mispredict(serve::Service& svc, const std::string& query) {
  const std::string resp =
      svc.request("{\"op\":\"explain\",\"query\":" + query + "}");
  const Json j = Json::parse(resp);
  const Json& r = j.at("result");
  return ratio(r.at("actual_us").as_double(),
               r.at("plan").at("predicted_us").as_double());
}

std::string edit_query(pmonge::Rng& rng, std::size_t n) {
  static const char kAlpha[] = "acgt";
  std::string x(n, 'a'), y(n, 'a');
  for (char& c : x) c = kAlpha[rng.uniform_int(0, 3)];
  for (char& c : y) c = kAlpha[rng.uniform_int(0, 3)];
  return "{\"op\":\"string_edit\",\"x\":\"" + x + "\",\"y\":\"" + y + "\"}";
}

}  // namespace

std::string rtt_probe_register() {
  return "{\"op\":\"register_random\",\"rows\":64,\"cols\":48,\"seed\":7}";
}

std::vector<std::string> rtt_probe_lines(std::int64_t array_id) {
  std::vector<std::string> lines;
  for (int r = 0; r < 64; ++r) {
    lines.push_back("{\"op\":\"rowmin\",\"id\":" + std::to_string(r) +
                    ",\"array\":" + std::to_string(array_id) +
                    ",\"row\":" + std::to_string(r) + "}");
  }
  return lines;
}

std::vector<Metric> measure_layers(Workload& wl, const RunFacts& facts,
                                   std::uint64_t seed, SpanLog& spans) {
  Scoped root(spans, std::string("layers.") + wl.name());
  std::map<std::string, double> m;
  const Counters d = delta(facts.before, facts.after);
  const double responses = std::max(1.0, facts.responses);

  // The recorded traffic: up to 20000 issued requests in send order.
  std::vector<std::uint32_t> tags;
  for (const std::uint32_t t : facts.tags) {
    if (tags.size() >= 20000) break;
    if (!wl.skip_in_replay(t)) tags.push_back(t);
  }
  std::vector<std::string> wire, queries, registers;
  for (const std::uint32_t t : tags) {
    wire.push_back(wl.line_of(t));
    if (is_query(wl.issued(t).op)) {
      queries.push_back(wl.line_for(t, wl.issued(t).target));
    } else if (is_register(wl.issued(t).op) && registers.size() < 16) {
      registers.push_back(wire.back());
    }
  }

  // --- rpc: framing -------------------------------------------------------
  {
    Scoped s(spans, "rpc.LineFramer");
    std::string stream;
    for (const std::string& l : wire) (stream += l) += '\n';
    std::size_t lines = 0;
    const double ns = median_ns(3, [&] {
      pmonge::rpc::LineFramer f;
      std::string out;
      lines = 0;
      for (std::size_t off = 0; off < stream.size(); off += 65536) {
        f.feed(stream.data() + off, std::min<std::size_t>(65536, stream.size() - off));
        while (f.next(out) == pmonge::rpc::LineFramer::Result::Line) ++lines;
      }
    });
    m["rpc.framer_ns_per_line"] = ratio(ns, static_cast<double>(lines));
  }
  m["rpc.read_pauses"] = get(d, "rpc.read_pauses");

  // --- serve/codec and serve/protocol ---------------------------------------
  {
    Scoped s(spans, "codec.canonicalize_query");
    serve::RequestCodec& codec = serve::thread_codec();
    std::size_t refused = 0;
    const double ns = median_ns(3, [&] {
      refused = 0;
      serve::FastQuery q;
      for (const std::string& l : queries) {
        if (!codec.canonicalize_query(l, q)) ++refused;
      }
    });
    m["codec.canon_ns"] = ratio(ns, static_cast<double>(queries.size()));
    m["codec.refused_frac"] =
        ratio(static_cast<double>(refused), static_cast<double>(queries.size()));
  }
  {
    Scoped s(spans, "protocol.parse_request");
    if (registers.empty()) {
      Operand op = Operand::random(Operand::Kind::Monge, 256, 256, seed);
      registers.push_back(op.register_data_line());
    }
    double bytes = 0;
    for (const std::string& l : registers) bytes += static_cast<double>(l.size());
    const double ns = median_ns(3, [&] {
      for (const std::string& l : registers) (void)serve::parse_request(l);
    });
    m["protocol.parse_us_per_mb"] = ratio(ns / 1000.0, bytes / 1e6);
  }

  // --- serve/cache and serve/admission (server counters) --------------------
  const double hits = get(d, "cache.hits"), misses = get(d, "cache.misses");
  m["cache.hit_ratio"] = ratio(hits, hits + misses);
  m["cache.evictions_per_req"] = get(d, "cache.evictions") / responses;
  m["cache.invalidations_per_unregister"] =
      ratio(get(d, "cache.invalidations"),
            get(d, "endpoints.unregister.requests"));
  m["admission.queue_high_water"] = get(facts.after, "queue.high_water");
  m["admission.overloaded"] = get(d, "queue.overloaded");
  // The closed loop is where coalescing sets capacity; the open loop's
  // sparse arrivals would only add batches of one.
  m["batcher.batch_size_p50"] =
      get(facts.after_capacity, "batches.p50_size_bound");

  // --- serve/batcher and plan, on a registry holding the workload's operands
  {
    Scoped s(spans, "batcher.run");
    serve::Registry reg;
    for (Operand& op : wl.mutable_operands()) reg.add(entry_of(std::move(op)));
    serve::ShardedLruCache cache(4096, 8);
    std::vector<std::string> ops = serve::query_ops();
    serve::ServiceMetrics metrics(ops);
    const pmonge::plan::Planner planner(pmonge::plan::builtin_profile(), true,
                                        pmonge::exec::num_threads());
    pmonge::index::IndexManager indexes;
    for (std::size_t i = 0; i < wl.operands().size(); ++i) {
      if (wl.operands()[i].indexed) indexes.build(i, reg.get(i));
    }
    serve::Batcher batcher(reg, cache, metrics, planner, indexes,
                           pmonge::pram::Model::CRCW_COMMON, true);
    std::vector<serve::Request> reqs;
    for (const std::string& l : queries) reqs.push_back(serve::parse_request(l));
    const auto batch = static_cast<std::size_t>(std::clamp(
        std::round(m["batcher.batch_size_p50"]), 1.0, 64.0));
    const std::int64_t t0 = now_ns();
    for (std::size_t off = 0; off < reqs.size(); off += batch) {
      const std::size_t n = std::min(batch, reqs.size() - off);
      (void)batcher.run(std::span<const serve::Request>(reqs.data() + off, n));
    }
    m["batcher.run_us_per_req"] =
        ratio(static_cast<double>(now_ns() - t0) / 1000.0,
              static_cast<double>(reqs.size()));

    Scoped p(spans, "plan.Planner::plan");
    std::vector<pmonge::plan::QueryShape> shapes;
    for (const serve::Request& r : reqs) shapes.push_back(serve::query_shape(r, reg));
    const double ns = median_ns(3, [&] {
      for (const auto& sh : shapes) (void)planner.plan(sh);
    });
    m["plan.plan_ns"] = ratio(ns, static_cast<double>(shapes.size()));
  }
  const double plans = get(d, "plans.brute") + get(d, "plans.sequential") +
                       get(d, "plans.parallel");
  for (const char* a : {"brute", "sequential", "parallel"}) {
    m[std::string("plan.algo_share.") + a] =
        ratio(get(d, std::string("plans.") + a), plans);
  }

  // --- in-process replay of the recorded traffic, untraced and traced ------
  {
    const std::size_t replayed = std::min<std::size_t>(tags.size(), 4000);
    const auto replay = [&](bool traced) {
      serve::Service svc;
      ServiceLink link(svc);
      wl.setup(link);
      std::vector<std::int64_t> ids;
      for (const Operand& op : wl.operands()) ids.push_back(op.id);
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < replayed; ++i) {
        const std::uint32_t t = tags[i];
        const Query& q = wl.issued(t);
        const std::string line =
            q.op == Op::Register ? wl.line_of(t) : wl.line_for(t, ids[q.target]);
        std::string resp;
        if (traced) {
          Scoped rs(spans, std::string("serve.Service::request ") + op_name(q.op));
          resp = svc.request(line);
        } else {
          resp = svc.request(line);
        }
        if (q.op == Op::Register) ids[q.target] = array_id(resp);
      }
      return static_cast<double>(now_ns() - t0) / 1e6;
    };
    // Alternated, two of each, so a drift in host speed splits evenly.
    Scoped s(spans, "replay");
    double untraced = 0, traced = 0;
    for (int rep = 0; rep < 2; ++rep) {
      untraced += replay(false) / 2;
      traced += replay(true) / 2;
    }
    m["trace.replay_untraced_ms"] = untraced;
    m["trace.replay_traced_ms"] = traced;
  }

  // --- rpc overhead and the cached-hit fast path ----------------------------
  {
    Scoped s(spans, "rpc.overhead");
    serve::Service svc;
    const std::int64_t id = array_id(svc.request(rtt_probe_register()));
    const auto lines = rtt_probe_lines(id);
    const double inproc = rtt_p50_us(
        lines, [&](const std::string& l) { (void)svc.request(l); });
    m["rpc.overhead_p50_us"] = facts.socket_rtt_p50_us - inproc;

    Scoped f(spans, "cache.try_serve_fast");
    std::string out;
    std::size_t served = 0;
    const double ns = median_ns(5, [&] {
      for (int rep = 0; rep < 50; ++rep) {
        for (const std::string& l : lines) {
          out.clear();
          served += svc.try_serve_fast(l, out);
        }
      }
    });
    m["cache.fast_hit_ns"] =
        served > 0 ? ns / (50.0 * static_cast<double>(lines.size())) : 0;
  }

  // --- planner predictions against explain, and the application kernels -----
  {
    Scoped s(spans, "plan.explain_probes");
    serve::Service svc;
    // Arrays 0 and 1: 512x512 tube operands; array 2: 2048x2048 Monge.
    for (const char* reg :
         {"{\"op\":\"register_random\",\"rows\":512,\"cols\":512,\"seed\":11}",
          "{\"op\":\"register_random\",\"rows\":512,\"cols\":512,\"seed\":12}",
          "{\"op\":\"register_random\",\"rows\":2048,\"cols\":2048,\"seed\":13}"}) {
      (void)svc.request(reg);
    }
    pmonge::Rng rng(seed);
    m["plan.mispredict.row_search"] =
        mispredict(svc, "{\"op\":\"rowmin\",\"array\":2,\"row\":1000}");
    m["plan.mispredict.submatrix_search"] = mispredict(
        svc,
        "{\"op\":\"submatrix_min\",\"array\":2,\"r0\":0,\"r1\":2047,\"c0\":0,"
        "\"c1\":2047}");
    m["plan.mispredict.tube_search"] = mispredict(
        svc, "{\"op\":\"tubemax\",\"d\":0,\"e\":1,\"i\":100,\"k\":200}");
    const auto probes = app_probe_lines(seed, 4);
    for (const auto& [op, line] : probes) {
      if (op == "largest_rect") {
        m["plan.mispredict.geometric_app"] =
            mispredict(svc, "{" + line.substr(line.find("\"op\"")));
        break;
      }
    }
    m["plan.mispredict.edit_distance_256"] = mispredict(svc, edit_query(rng, 256));
    {
      Scoped e(spans, "plan.explain string_edit 260");
      m["plan.mispredict.edit_distance_260"] =
          mispredict(svc, edit_query(rng, 260));
    }

    Scoped a(spans, "apps.kernels");
    std::map<std::string, std::pair<double, double>> per_op;  // us, count
    for (const auto& [op, line] : probes) {
      const std::int64_t t0 = now_ns();
      (void)svc.request(line);
      auto& [us, n] = per_op[op];
      us += static_cast<double>(now_ns() - t0) / 1000.0;
      n += 1;
    }
    for (const char* op : {"string_edit", "largest_rect", "empty_rect",
                           "polygon_neighbors", "tubemax"}) {
      m[std::string("apps.us.") + op] = ratio(per_op[op].first, per_op[op].second);
    }

    Scoped r(spans, "registry.register_dense");
    std::vector<double> ms;
    for (std::uint64_t k = 0; k < 4; ++k) {
      const std::string line =
          Operand::random(Operand::Kind::Monge, 256, 256, seed + k).register_data_line();
      const std::int64_t t0 = now_ns();
      const std::int64_t id = array_id(svc.request(line));
      ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      (void)svc.request("{\"op\":\"unregister\",\"array\":" + std::to_string(id) + "}");
    }
    m["registry.register_ms"] = median(ms);
  }

  // --- index, monge, par, validate kernels on seeded probe arrays ------------
  {
    Scoped s(spans, "index");
    const auto vs_direct = [&](std::size_t n, double* build_ms) {
      auto entry = std::make_shared<serve::ArrayEntry>();
      pmonge::Rng rng(seed + n);
      entry->data = pmonge::monge::random_monge(n, n, rng);
      std::shared_ptr<pmonge::index::Index> idx;
      const double bns = median_ns(3, [&] {
        idx = std::make_shared<pmonge::index::Index>(entry);
        idx->build();
      });
      if (build_ms != nullptr) *build_ms = bns / 1e6;
      std::vector<std::array<std::size_t, 4>> regions;
      for (int q = 0; q < 400; ++q) {
        std::uint32_t r0, r1, c0, c1;
        auto a = static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
        auto b = static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
        r0 = std::min(a, b), r1 = std::max(a, b);
        a = static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
        b = static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
        c0 = std::min(a, b), c1 = std::max(a, b);
        regions.push_back({r0, r1, c0, c1});
      }
      const double indexed = median_ns(3, [&] {
        for (const auto& g : regions) (void)idx->submatrix_opt(false, g[0], g[1], g[2], g[3]);
      });
      const double direct = median_ns(3, [&] {
        for (const auto& g : regions) {
          (void)pmonge::index::submatrix_direct(*entry, false,
                                                pmonge::plan::Algo::Sequential,
                                                g[0], g[1], g[2], g[3]);
        }
      });
      if (n == 2048) {
        m["index.bytes_per_cell"] =
            static_cast<double>(idx->memory_bytes()) / static_cast<double>(n * n);
        Scoped k(spans, "monge.smawk_row_minima");
        m["monge.rowmin_ns_per_cell"] =
            median_ns(3, [&] { (void)pmonge::monge::smawk_row_minima(entry->data); }) /
            static_cast<double>(n * n);
      } else {
        Scoped k(spans, "par.monge_row_minima");
        const double seq =
            median_ns(3, [&] { (void)pmonge::monge::smawk_row_minima(entry->data); });
        const double par = median_ns(3, [&] {
          pmonge::pram::Machine mach(pmonge::pram::Model::CRCW_COMMON);
          (void)pmonge::par::monge_row_minima(mach, entry->data);
        });
        m["par.meter_overhead"] = ratio(par, seq);
        Scoped v(spans, "monge.is_monge");
        bool monge = false;
        m["validate.ns_per_cell"] =
            median_ns(3, [&] { monge = pmonge::monge::is_monge(entry->data); }) /
            static_cast<double>(n * n);
        if (!monge) throw std::runtime_error("validate probe array is not Monge");
      }
      return ratio(direct, indexed);
    };
    m["index.vs_direct.512"] = vs_direct(512, nullptr);
    double build_ms = 0;
    m["index.vs_direct.2048"] = vs_direct(2048, &build_ms);
    m["index.build_ms"] = build_ms;
  }
  m["index.route_share"] =
      ratio(get(d, "index.lookups"),
            get(d, "endpoints.submatrix_min.cache_misses") +
                get(d, "endpoints.submatrix_max.cache_misses"));

  // --- exec and pram (server counters) --------------------------------------
  const double lanes = std::max(1.0, get(facts.after, "exec.threads"));
  m["exec.busy_frac"] =
      ratio(sum_over(d, "exec.workers", "busy_us") + get(d, "exec.external.busy_us"),
            lanes * facts.measured_wall_s * 1e6);
  m["exec.submit_wait_us_per_batch"] =
      ratio(get(d, "exec.submit_wait_us"), get(d, "exec.batches"));
  m["pram.charged_work"] = get(d, "charged.work");
  m["pram.charged_time"] = get(d, "charged.time");

  m["loadgen.lag_p99_us"] = facts.lag_p99_us;
  m["loadgen.achieved_rate_frac"] = facts.achieved_rate_frac;

  std::vector<Metric> out;
  for (const auto& [name, unit] : layer_metric_units()) {
    const auto it = m.find(name);
    out.push_back({name, it == m.end() ? 0.0 : it->second, unit});
  }
  return out;
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> kUnits{
      {"rpc.overhead_p50_us", "us"},
      {"rpc.framer_ns_per_line", "ns"},
      {"rpc.read_pauses", "count"},
      {"codec.canon_ns", "ns"},
      {"codec.refused_frac", "ratio"},
      {"protocol.parse_us_per_mb", "us/MB"},
      {"cache.hit_ratio", "ratio"},
      {"cache.fast_hit_ns", "ns"},
      {"cache.evictions_per_req", "ratio"},
      {"cache.invalidations_per_unregister", "ratio"},
      {"admission.queue_high_water", "count"},
      {"admission.overloaded", "count"},
      {"batcher.batch_size_p50", "count"},
      {"batcher.run_us_per_req", "us"},
      {"plan.plan_ns", "ns"},
      {"plan.algo_share.brute", "ratio"},
      {"plan.algo_share.sequential", "ratio"},
      {"plan.algo_share.parallel", "ratio"},
      {"plan.mispredict.row_search", "ratio"},
      {"plan.mispredict.submatrix_search", "ratio"},
      {"plan.mispredict.tube_search", "ratio"},
      {"plan.mispredict.geometric_app", "ratio"},
      {"plan.mispredict.edit_distance_256", "ratio"},
      {"plan.mispredict.edit_distance_260", "ratio"},
      {"index.build_ms", "ms"},
      {"index.vs_direct.512", "ratio"},
      {"index.vs_direct.2048", "ratio"},
      {"index.route_share", "ratio"},
      {"index.bytes_per_cell", "bytes"},
      {"exec.busy_frac", "ratio"},
      {"exec.submit_wait_us_per_batch", "us"},
      {"monge.rowmin_ns_per_cell", "ns"},
      {"par.meter_overhead", "ratio"},
      {"pram.charged_work", "count"},
      {"pram.charged_time", "count"},
      {"apps.us.string_edit", "us"},
      {"apps.us.largest_rect", "us"},
      {"apps.us.empty_rect", "us"},
      {"apps.us.polygon_neighbors", "us"},
      {"apps.us.tubemax", "us"},
      {"registry.register_ms", "ms"},
      {"validate.ns_per_cell", "ns"},
      {"loadgen.lag_p99_us", "us"},
      {"loadgen.achieved_rate_frac", "ratio"},
      {"trace.replay_untraced_ms", "ms"},
      {"trace.replay_traced_ms", "ms"},
  };
  return kUnits;
}

}  // namespace perfbench
