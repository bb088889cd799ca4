// Query-op table: the one place that says what a kernel-backed query op
// name means.  Each row declares the op's name, its planner op class,
// the registered-array fields it reads, min or max, the array kind those
// operands must have, whether the query index can answer it, and the
// group handler that runs a coalesced group of it.
//
// Everything that used to re-decide this per op name reads the row
// instead: query_ops() / is_query_op(), the codec's fast-path check,
// query_shape(), the batcher's group key and generic dispatch prologue
// (resolve operands -> check kinds -> shape -> plan -> count), the
// cache-entry tags, and explain's use_index report.  A new query op
// costs one row plus its handler.  `explain` is the one query op with no
// row: it wraps another query rather than running a kernel.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serve/batcher.hpp"

namespace pmonge::index {
class Index;
}

namespace pmonge::serve {

/// The registered-array fields an op reads: none, "array", or "d"+"e".
enum class Operands : std::uint8_t { None, Array, Tube };

/// The kind every operand must have.  Dense: anything but staircase.
enum class Requires : std::uint8_t { Any, Dense, Staircase, Monge };

struct QueryOp;

/// One coalesced group after the dispatch prologue: operands resolved
/// and of the required kind, plan chosen.  A handler answers every
/// member (outcome or error) and lets only fault::InjectedFault escape.
struct Group {
  std::vector<detail::BatchMember>& members;
  const QueryOp& op;
  std::vector<std::shared_ptr<const ArrayEntry>> arrays;  // field order
  std::shared_ptr<index::Index> idx;  // set: answer through the index
  plan::Plan plan;
  pram::Model model;
  ServiceMetrics& metrics;
};

/// One row of the table (serve/ops.cpp).
struct QueryOp {
  std::string_view name;
  plan::OpClass op_class;
  Operands operands;
  bool maxima;             // max, not min; read by array and tube handlers
  Requires requires_kind;  // checked after planning, before `run`
  bool indexable;          // the query index can answer it ("array" ops)
  void (*run)(Group&);
};

/// The operand field names of `o`, in resolution order.
std::span<const std::string> operand_fields(Operands o);

/// The integer value of an operand field; nullopt when it is missing or
/// not an integer.
std::optional<std::int64_t> operand_id(const Json& body,
                                       const std::string& field);

/// The wrong_kind error for an operand of kind `k`, or nullptr.
const char* kind_mismatch(Requires need, ArrayEntry::Kind k);

inline void set_error(BatchOutcome& out, std::string why) {
  out.ok = false;
  out.error = std::move(why);
}

inline void set_ok(BatchOutcome& out, Json result) {
  out.ok = true;
  out.result = std::move(result);
}

/// Mark every member that has no outcome yet with a group-level error.
void fail_unanswered(std::vector<detail::BatchMember>& members,
                     const std::string& why);

}  // namespace pmonge::serve
