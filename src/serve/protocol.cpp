#include "serve/protocol.hpp"

#include "support/fmt.hpp"

namespace pmonge::serve {

Request parse_request(const std::string& line) {
  Request req;
  req.body = Json::parse(line);
  if (req.body.type() != Json::Type::Object) {
    throw JsonError("bad_request: request must be a JSON object");
  }
  req.op = req.body.at("op").as_string();
  if (const Json* id = req.body.find("id")) req.id = id->as_int();
  if (const Json* dl = req.body.find("deadline_ms")) {
    req.deadline_ms = dl->as_int();
    if (req.deadline_ms < 0) {
      throw JsonError("bad_request: deadline_ms must be >= 0");
    }
  }
  if (const Json* tid = req.body.find("trace_id")) {
    const std::int64_t t = tid->as_int();
    if (t <= 0) throw JsonError("bad_request: trace_id must be positive");
    req.trace_id = static_cast<std::uint64_t>(t);
  }
  if (is_query_op(req.op)) {
    // Canonical body with transport fields skipped, emitted straight from
    // the sorted parse tree -- no copied-and-erased Obj per request.
    req.signature.reserve(line.size());
    req.signature.push_back('{');
    bool first = true;
    for (const auto& [k, v] : req.body.obj()) {
      if (k == "id" || k == "deadline_ms" || k == "trace_id") continue;
      if (!first) req.signature.push_back(',');
      first = false;
      append_json_string(k, req.signature);
      req.signature.push_back(':');
      v.dump_to(req.signature);
    }
    req.signature.push_back('}');
  }
  return req;
}

// Handwritten response assembly relies on the sorted-key canonical order:
// "error" < "id" < "ok" < "result", so emitting fields in that fixed
// order matches what dumping a std::map-backed Obj produces.

void append_ok_response_raw(std::int64_t id, std::string_view result_canonical,
                            std::string& out) {
  if (id != kNoId) {
    out += "{\"id\":";
    support::append_int(out, id);
    out += ",\"ok\":true,\"result\":";
  } else {
    out += "{\"ok\":true,\"result\":";
  }
  out += result_canonical;
  out.push_back('}');
}

void append_error_response(std::int64_t id, std::string_view error,
                           std::string& out) {
  out += "{\"error\":";
  append_json_string(error, out);
  if (id != kNoId) {
    out += ",\"id\":";
    support::append_int(out, id);
  }
  out += ",\"ok\":false}";
}

std::string make_ok_response(std::int64_t id, Json result) {
  std::string out;
  std::string body;
  result.dump_to(body);
  out.reserve(body.size() + 40);
  append_ok_response_raw(id, body, out);
  return out;
}

std::string make_error_response(std::int64_t id, const std::string& error) {
  std::string out;
  out.reserve(error.size() + 40);
  append_error_response(id, error, out);
  return out;
}

}  // namespace pmonge::serve
