// The four benchmark workloads: what each sends, how its operands are
// set up, and how every answer is checked (the correctness oracle).
//
//   hot_cached      rowmin/rowmax/staircase_rowmin over four 64x48
//                   operands; 384 distinct questions, all cached after
//                   the set-up warm-up pass, so the epoll thread's
//                   cached-hit fast path answers nearly everything.
//   cold_search     row and submatrix searches over 2048x2048 operands
//                   (one Monge, one staircase, one indexed Monge) and an
//                   indexed 512x512 operand; far more distinct questions
//                   than the 4096-entry cache holds, pipelined so the
//                   batcher coalesces them.
//   apps_mixed      a fixed seeded list of unique application requests
//                   (string_edit, largest_rect, empty_rect,
//                   polygon_neighbors, tubemax), including two string
//                   edits just over 256 characters.
//   register_churn  register (client-generated data, no validation) ->
//                   a few queries -> unregister, with ~5% of the arrays
//                   deliberately not Monge.
//
// Every answer is checked against an independent oracle: brute-force
// scans (monge/brute.hpp) over operands regenerated from their seeds or
// held as client data, a plain edit-distance DP, and the applications'
// exhaustive library solvers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "driver.hpp"
#include "monge/array.hpp"
#include "serve/json.hpp"

namespace perfbench {

/// How one answer compares with the oracle.
enum class Verdict : std::uint8_t {
  Ok,              // correct answer
  ExpectedReject,  // not_monge for a deliberately non-Monge array: correct
  DefectWrong,     // ok:true but wrong, on a deliberately non-Monge array
                   // registered without validation (known seed defect)
  Wrong,           // ok:true but wrong on valid input
  Rejected,        // overloaded / deadline_* rejection
  Error,           // any other error response, or an unparsable one
};

/// Whether a verdict is a failure for the error rate (a user asked and
/// did not get a right answer).
inline bool is_failure(Verdict v) {
  return v != Verdict::Ok && v != Verdict::ExpectedReject;
}

/// Whether a verdict means the benchmark saw something it does not
/// expect from the program at its current state.
inline bool is_unexpected(Verdict v) {
  return v == Verdict::Wrong || v == Verdict::Rejected || v == Verdict::Error;
}

/// Request/response transport used by set-up: the socket driver or an
/// in-process service.
class Link {
 public:
  virtual ~Link() = default;
  virtual std::string request(std::string_view line) = 0;
  /// Send every line pipelined; responses align with `lines`.
  virtual std::vector<std::string> pipeline(
      const std::vector<std::string>& lines) = 0;
};

/// One registered operand, with the oracle's view of it.
struct Operand {
  enum class Kind { Monge, Staircase };
  Kind kind = Kind::Monge;
  std::size_t rows = 0, cols = 0;
  std::uint64_t seed = 0;  // register_random seed
  bool indexed = false;
  bool non_monge = false;  // deliberately broken (register_churn)
  pmonge::monge::DenseArray<std::int64_t> data;
  std::vector<std::size_t> frontier;                     // staircase only
  std::vector<pmonge::monge::RowOpt<std::int64_t>> rmin, rmax;  // brute, per row
  std::int64_t id = -1;                                  // server array id

  /// Generate as register_random(rows, cols, seed, kind) does on the
  /// server, then fill the brute row tables.
  static Operand random(Kind kind, std::size_t rows, std::size_t cols,
                        std::uint64_t seed);
  void fill_row_tables();
  std::string register_random_line() const;
  /// register_dense / register_staircase carrying the data (no validate).
  std::string register_data_line() const;
};

/// Request kinds the workloads send.
enum class Op : std::uint8_t {
  RowMin, RowMax, StairMin, SubMin, SubMax,
  Tube, Edit, LargestRect, EmptyRect, Neighbors,
  Register, Unregister,
};
const char* op_name(Op op);

/// Compact descriptor of one issued request.
struct Query {
  Op op = Op::RowMin;
  std::uint32_t target = 0;    // operand (searches) or instance (apps) index
  std::int64_t array_id = -1;  // server id the line named
  // row (b: hot_cached's key index) | r0 r1 c0 c1
  std::uint32_t a = 0, b = 0, c = 0, d = 0;
};

/// How a workload's measured phases run.
struct PhasePlan {
  std::size_t closed_window = 1;  // sessions in flight per connection
  double closed_share = 0.4;      // share of --seconds for the closed loop
  double open_rate = 0;           // sessions/s; 0 = no open-loop phase
  bool fixed_list = false;        // closed loop runs a list to its end
  // Each set-up runs the server's event-loop thread on the next CPU, and
  // the closed loop moves it to the next CPU every 100 ms (the driver to
  // the other CPUs), so each run samples every CPU alike.
  bool rotate_cpus = false;
};

class Workload : public Traffic {
 public:
  /// hot_cached, cold_search, apps_mixed or register_churn; nullptr
  /// for any other name.
  static std::unique_ptr<Workload> make(const std::string& name);

  virtual const char* name() const = 0;
  virtual PhasePlan plan() const = 0;
  /// Client-side inputs from the seed (untimed).
  virtual void prepare(std::uint64_t seed, double seconds) = 0;
  /// Registrations, index builds and warm-up against a fresh server.
  virtual void setup(Link& link) = 0;
  /// Check the response to issued request `tag`.  Thread-safe.
  virtual Verdict check(std::uint32_t tag, std::string_view resp) const;

  const Query& issued(std::uint32_t tag) const { return issued_[tag]; }
  std::size_t issued_count() const { return issued_.size(); }
  /// The request line for issued descriptor `tag` (id = tag).
  virtual std::string line_of(std::uint32_t tag) const = 0;
  /// The same request naming its operand by `array_id` instead, for
  /// replays against another registry.
  virtual std::string line_for(std::uint32_t tag, std::int64_t array_id) const;
  /// Requests too slow to replay in-process (the long string edits).
  virtual bool skip_in_replay(std::uint32_t) const { return false; }

  /// Operands the set-up registered (for the traced run's layer probes).
  const std::vector<Operand>& operands() const { return ops_; }
  std::vector<Operand>& mutable_operands() { return ops_; }

 protected:
  std::uint32_t issue(const Query& q);
  Verdict check_search(const Query& q, std::string_view resp,
                       std::uint32_t tag) const;

  std::vector<Operand> ops_;
  std::vector<Query> issued_;
};

/// Seeded application requests of each kind, as apps_mixed generates
/// them (tubemax names arrays 0 and 1, two 512x512 Monge operands):
/// {op name, request line}.
std::vector<std::pair<std::string, std::string>> app_probe_lines(
    std::uint64_t seed, std::size_t per_op);

/// Oracle helpers (exposed for the benchmark's tests).
namespace oracle {
/// Optimum of a region over finite entries under the library's tie
/// order (value, then leftmost column, then topmost row);
/// {found, value, row, col}.
struct RegionOpt {
  bool found = false;
  std::int64_t value = 0;
  std::size_t row = 0, col = 0;
};
RegionOpt region_brute(const Operand& op, bool maxima, std::size_t r0,
                       std::size_t r1, std::size_t c0, std::size_t c1);
/// Plain O(|x||y|) edit-distance DP (sub costs only on mismatch).
std::int64_t edit_dp(const std::string& x, const std::string& y,
                     std::int64_t ins, std::int64_t del, std::int64_t sub);
/// Verdict of a row-search response against the brute row tables.
Verdict check_row(const Operand& op, bool maxima, std::size_t row,
                  std::int64_t want_id, std::string_view resp);
/// Verdict of a submatrix response against region_brute.
Verdict check_region(const Operand& op, bool maxima, std::size_t r0,
                     std::size_t r1, std::size_t c0, std::size_t c1,
                     std::int64_t want_id, std::string_view resp);
/// The result object of an ok response whose id is `want_id`; nullptr
/// with the verdict in `v` otherwise.
const pmonge::serve::Json* ok_result(const pmonge::serve::Json& j,
                                     std::int64_t want_id, Verdict& v);
/// Error category of an error response ("" for ok:true).
std::string error_of(std::string_view resp);
}  // namespace oracle

}  // namespace perfbench
