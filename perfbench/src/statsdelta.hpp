// Counters from the service's `stats` op, flattened to dotted paths so
// that a phase's activity is the difference of two snapshots:
//   {"cache":{"hits":7},"exec":{"workers":[{"busy_us":3}]}}
//   -> cache.hits = 7, exec.workers.0.busy_us = 3
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "serve/json.hpp"

namespace perfbench {

using Counters = std::map<std::string, double>;

inline void flatten_into(const pmonge::serve::Json& j, const std::string& path,
                         Counters& out) {
  using pmonge::serve::Json;
  switch (j.type()) {
    case Json::Type::Int:
    case Json::Type::Double:
      out[path] = j.as_double();
      break;
    case Json::Type::Bool:
      out[path] = j.as_bool() ? 1 : 0;
      break;
    case Json::Type::Object:
      for (const auto& [k, v] : j.obj()) {
        flatten_into(v, path.empty() ? k : path + "." + k, out);
      }
      break;
    case Json::Type::Array: {
      std::size_t i = 0;
      for (const auto& v : j.arr()) {
        flatten_into(v, path + "." + std::to_string(i++), out);
      }
      break;
    }
    default:
      break;
  }
}

/// Parse one `stats` response line ({"ok":true,"result":{...}}) into
/// flat counters.  Throws pmonge::serve::JsonError on a malformed line
/// or an error response.
inline Counters parse_stats(std::string_view response_line) {
  const auto j = pmonge::serve::Json::parse(response_line);
  const auto* ok = j.find("ok");
  if (ok == nullptr || !ok->as_bool()) {
    throw pmonge::serve::JsonError("stats request failed: " +
                                   std::string(response_line));
  }
  Counters out;
  flatten_into(j.at("result"), "", out);
  return out;
}

/// after - before, key by key (keys missing before count from zero).
inline Counters delta(const Counters& before, const Counters& after) {
  Counters d;
  for (const auto& [k, v] : after) {
    const auto it = before.find(k);
    d[k] = v - (it == before.end() ? 0.0 : it->second);
  }
  return d;
}

/// Value at `key`, or 0 when absent.
inline double get(const Counters& c, const std::string& key) {
  const auto it = c.find(key);
  return it == c.end() ? 0.0 : it->second;
}

/// Sum of every key of the form prefix.<index>.suffix (array members).
inline double sum_over(const Counters& c, std::string_view prefix,
                       std::string_view suffix) {
  double s = 0;
  for (const auto& [k, v] : c) {
    if (k.size() > prefix.size() + suffix.size() + 1 &&
        k.compare(0, prefix.size(), prefix) == 0 &&
        k[prefix.size()] == '.' &&
        k.compare(k.size() - suffix.size(), suffix.size(), suffix) == 0 &&
        k[k.size() - suffix.size() - 1] == '.') {
      s += v;
    }
  }
  return s;
}

}  // namespace perfbench
