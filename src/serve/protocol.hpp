// Wire protocol of the query service: newline-delimited JSON objects on
// both directions (one request per line in, one response per line out).
//
// Request:  {"op": "<name>", ...op fields...,
//            "id": <int, optional, echoed>,
//            "deadline_ms": <int, optional, relative admission deadline>}
// Response: {"id": <echoed if given>, "ok": true,  "result": {...}}
//         | {"id": <echoed if given>, "ok": false, "error": "<reason>"}
//
// Ops split into two planes:
//   * control plane (register_dense / register_staircase / register_random
//     / unregister / stats / ping) -- handled synchronously at submission,
//     never queued, so registration is always visible to queries admitted
//     after its response;
//   * query plane (rowmin / rowmax / staircase_rowmin / staircase_rowmax /
//     tubemax / tubemin / string_edit / largest_rect / empty_rect /
//     polygon_neighbors / explain) -- admitted through the bounded queue
//     (or, when priced below one pool hand-off and the queue is idle,
//     answered on the submitting thread), coalesced by the batcher,
//     memoized by signature.  explain wraps
//     another query ({"op":"explain","query":{...}}) and reports the
//     planner's chosen plan plus predicted vs actual cost; like stats it
//     is observability output and is never cached.
//
// The *signature* of a query is the canonical dump of its body with the
// transport fields ("id", "deadline_ms") removed: two requests asking the
// same question have equal signatures regardless of id, field order or
// whitespace, which is what the result cache keys on.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "serve/json.hpp"

namespace pmonge::serve {

inline constexpr std::int64_t kNoId = std::numeric_limits<std::int64_t>::min();

struct Request {
  std::int64_t id = kNoId;
  std::string op;
  Json body;              // the full parsed request object
  std::string signature;  // canonical cache key (query ops)
  std::int64_t deadline_ms = -1;  // relative; -1 = none given
  // Observability envelope field (like "id": stripped from the
  // signature, never part of the cached question).  Client-supplied via
  // "trace_id", or minted at admission when tracing is on; query ops
  // carry it through the batcher into exec spans.  Never echoed in
  // responses, so response bytes stay identical tracing on or off.
  std::uint64_t trace_id = 0;
};

/// Query-plane op names (also the metrics vocabulary): the rows of the
/// op table in serve/ops.cpp, then "explain".
const std::vector<std::string>& query_ops();
bool is_query_op(std::string_view op);

/// The op-table row of a kernel-backed query op (serve/ops.hpp); nullptr
/// for explain, control ops and unknown names.
struct QueryOp;
const QueryOp* find_query_op(std::string_view op);

/// Parse one request line; throws JsonError on malformed input (bad
/// JSON, missing or non-string op).  Computes the signature for query ops.
Request parse_request(std::string_view line);

/// Serialize a success / error response (canonical bytes).
std::string make_ok_response(std::int64_t id, Json result);
std::string make_error_response(std::int64_t id, const std::string& error);

/// Append-into-buffer forms of the response serializers: same canonical
/// bytes, no per-call std::string.  `result_canonical` in the _raw form
/// must already be canonical JSON (e.g. cached response bytes), which is
/// spliced in verbatim.
void append_ok_response_raw(std::int64_t id, std::string_view result_canonical,
                            std::string& out);
void append_error_response(std::int64_t id, std::string_view error,
                           std::string& out);

}  // namespace pmonge::serve
