// Streaming request decoding: two one-pass readers that stand in for the
// JSON DOM (`Json::parse` + parse_request) on the lines where the DOM
// costs most.
//
// 1. canonicalize_query, the zero-allocation front half of the serve fast
// path.  The slow path turns a request line into its cache signature by
// parsing a DOM, copying the body object, erasing the transport fields
// and re-dumping -- a dozen-plus heap allocations per request.  For the
// cached-hit case all of that work exists only to recover the canonical
// bytes the cache is keyed on, so this codec computes those bytes
// directly: one pass over the line, emitting the canonical form (sorted
// keys, no whitespace, canonical numbers and string escapes) into
// reusable per-thread buffers, skipping the transport fields as it goes.
// A cache probe on the result needs no Json value, no Request, and no
// per-request allocation once the thread's buffers are warm.
//
// 2. decode_register, the register_dense / register_staircase reader.  A
// register line is mostly its data array, and the DOM builds a Json node
// per cell only to have Service copy each one out.  The decoder writes
// the integers straight into the vector the registered array adopts,
// sized once from `rows` and `cols` when they come before `data`, and
// reads the common short cell eight bytes at a time (read_ints).  It
// reads fields only; every register check (rows and cols positive, size,
// data length, frontier, kind, validate) runs afterwards in Service, in
// the one function the DOM path calls too, so the two paths answer with
// the same bytes in the same error order.
//
// Correctness contract, shared by both: for every line a reader ACCEPTS,
// its output equals what the slow path reads from that line --
// canonicalize_query's signature is byte-identical to
// `parse_request(line).signature` and its op/id match; decode_register's
// fields are the values the DOM holds.  For every line a reader is unsure
// about it REFUSES, and the caller falls back to the slow path.  Refusal
// is always correct; acceptance is what tests/test_codec.cpp fuzzes
// against the slow path.
//
// canonicalize_query refuses malformed input (the slow path's error text
// embeds byte offsets), escaped object keys (escaped-form ordering
// diverges from the parse tree's unescaped-key ordering), transport
// fields with their own admission semantics (`deadline_ms`, `trace_id`)
// and nesting deeper than the guard.  It also refuses every op that can
// never be a cached hit (control ops, `explain`) as soon as the top-level
// "op" value is read, and reports that value (op_seen) so the caller can
// tell a register line from a query line without reading it again.
//
// decode_register accepts one JSON object whose keys, in any order and
// with any whitespace, are: "op" (register_dense or register_staircase),
// "rows", "cols", "data", "frontier" (register_staircase only), "kind"
// (register_dense only), "validate" and "id", each at most once.  rows,
// cols, id and every data / frontier element must be integers by the
// token rules of Parser::parse_number and within int64; kind a string
// without escapes; validate true or false.  It refuses everything else:
// malformed JSON or trailing bytes, escaped or duplicate keys, any other
// key (`deadline_ms` and `trace_id` included), a missing op, rows, cols,
// data or (staircase) frontier, a non-integer or out-of-range number, a
// non-bool validate, a non-string or escaped kind or op, and a data or
// frontier array longer than max_register_cells.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve/protocol.hpp"

namespace pmonge::serve {

/// A successfully canonicalized query request.  The views point into the
/// codec's reusable buffers: valid until the next canonicalize_query()
/// call on the same codec.
struct FastQuery {
  std::string_view signature;  // canonical body minus transport fields
  std::string_view op;         // unescaped op name
  std::int64_t id = kNoId;     // echoed id (kNoId when absent)
  std::uint64_t hash = 0;      // FNV-1a of signature (the cache key hash)
};

/// A register_dense / register_staircase line, decoded field by field:
/// the cells go straight into the vector the array adopts.  No register
/// check has run on it yet (those are Service's, shared with the DOM
/// path).  `kind` views the decoded line.
struct RegisterLine {
  bool staircase = false;              // "op":"register_staircase"
  std::int64_t id = kNoId;             // echoed id (kNoId when absent)
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::vector<std::int64_t> data;      // row-major cells, as sent
  std::vector<std::int64_t> frontier;  // register_staircase only
  std::string_view kind = "monge";     // register_dense only
  bool validate = false;
};

class RequestCodec {
 public:
  /// One-pass canonicalization of a request line.  True: `out` is filled
  /// and the line is a well-formed kernel-backed query request with no
  /// deadline_ms / trace_id.  False: fall back to the slow path (which may still
  /// answer it fine -- refusal is conservative, see header comment).
  bool canonicalize_query(std::string_view line, FastQuery& out);

  /// The top-level "op" value the last canonicalize_query() call read,
  /// even when it then refused the line; empty when it stopped before
  /// one or the value was escaped.  Views that call's line.
  std::string_view op_seen() const { return op_seen_; }

  /// One-pass decode of a register line into `out`.  True: `out` holds
  /// what parse_request would have read from the line.  False: fall back
  /// to the DOM path (see header comment); `out` is then unspecified.
  bool decode_register(std::string_view line, std::size_t max_cells,
                       RegisterLine& out);

  /// Reusable response-assembly buffer for this codec's thread.
  std::string& response_buffer() { return respbuf_; }

 private:
  enum class Kind { Other, Int, Str };

  bool canon_value();
  bool canon_object();
  bool canon_array();
  bool canon_string();
  bool canon_number();
  bool read_plain_string(std::string_view& out);
  bool scan_key(std::string_view& key);
  bool read_int(std::int64_t& out);
  bool read_ints(std::vector<std::int64_t>& out, std::size_t max_len,
                 std::size_t hint);
  bool read_bool(bool& out);
  void skip_ws();
  void rebuild_object(std::size_t base, std::size_t body_start);

  struct Member {
    std::uint32_t key_off, key_len;    // key bytes within canon_
    std::uint32_t pair_off, pair_len;  // "key":value bytes within canon_
  };

  std::string_view key_of(const Member& m) const {
    return std::string_view(canon_).substr(m.key_off, m.key_len);
  }

  // Parse state (per canonicalize_query call).
  std::string_view s_;
  std::size_t pos_ = 0;
  int depth_ = 0;

  // Last value kind, for top-level op/id extraction.
  Kind last_kind_ = Kind::Other;
  bool last_str_escaped_ = false;
  std::string_view last_str_raw_;  // source bytes of the last string value
  std::int64_t id_value_ = kNoId;
  std::string_view op_seen_;

  // Reusable buffers (capacity persists across requests; the steady
  // state allocates nothing).
  std::string canon_;             // the canonical signature being emitted
  std::string strbuf_;            // number tokens / unescaped strings
  std::string reorder_;           // object-member reorder scratch
  std::string opbuf_;             // extracted op name
  std::string respbuf_;           // response assembly (service fast path)
  std::vector<Member> members_;   // flat per-depth member stack
};

/// The calling thread's codec (created on first use).
RequestCodec& thread_codec();

}  // namespace pmonge::serve
