#include "serve/codec.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "serve/cache.hpp"
#include "serve/json.hpp"
#include "support/fmt.hpp"

namespace pmonge::serve {

namespace {

// Nesting beyond this refuses to the slow path; real query bodies are
// two or three levels deep.
constexpr int kMaxDepth = 64;

bool is_dig(char c) { return c >= '0' && c <= '9'; }

bool is_ws(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }

// Eight line bytes as one word, the first byte in the low lane.
std::uint64_t load8(const char* p) {
  std::uint64_t w = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&w, p, 8);
  } else {
    for (int i = 0; i < 8; ++i) {
      w |= std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
    }
  }
  return w;
}

// The register cell's common token, read eight bytes at a time: 1-7
// ASCII digits then a non-digit, all eight bytes at `p` inside the line.
// Returns the digit count and sets `value`, or returns 0 for any other
// form (no digit, eight or more digits), which the caller reads the
// general way.
int swar_digits(const char* p, std::uint64_t& value) {
  const std::uint64_t x = load8(p) ^ 0x3030303030303030;  // '0'..'9' -> 0..9
  // A digit lane is 0..9: high nibble clear, and clear still after +6.
  // A lane's +6 carry reaches only later lanes, and only out of a
  // non-digit, so the first flagged lane is the first non-digit.
  const std::uint64_t nondigit =
      (x | (x + 0x0606060606060606)) & 0xF0F0F0F0F0F0F0F0;
  if (nondigit == 0) return 0;
  const int len = std::countr_zero(nondigit) >> 3;
  if (len == 0) return 0;
  // The digits to the top lanes, zeros (leading zeros) below them: an
  // eight-digit number, then three multiply-shift steps pair up lanes.
  std::uint64_t d = x << (8 * (8 - len));
  d = d * 10 + (d >> 8);  // lane 2k: two-digit value of digits 2k, 2k+1
  d = (((d & 0x000000FF000000FF) * (100 + (1000000ULL << 32))) +
       (((d >> 16) & 0x000000FF000000FF) * (1 + (10000ULL << 32)))) >>
      32;
  value = d;
  return len;
}

// How many elements to reserve for a data / frontier array declared as
// `rows` x `cols`: 0 (count them instead) unless both are positive and
// their product fits the register guard.  Capped by the bytes left in
// the line, two per element at least, so a small line that claims a
// huge array cannot make the decoder reserve for it.
std::size_t size_hint(std::int64_t rows, std::int64_t cols,
                      std::size_t max_cells, std::size_t bytes_left) {
  if (rows <= 0 || cols <= 0) return 0;
  const auto r = static_cast<std::uint64_t>(rows);
  const auto c = static_cast<std::uint64_t>(cols);
  if (r > max_cells / c) return 0;
  return std::min<std::size_t>(r * c, bytes_left / 2);
}

}  // namespace

void RequestCodec::skip_ws() {
  while (pos_ < s_.size() && is_ws(s_[pos_])) ++pos_;
}

// A string with no escapes and no control bytes: its source bytes are
// its value.  Anything else refuses.
bool RequestCodec::read_plain_string(std::string_view& out) {
  skip_ws();
  if (pos_ >= s_.size() || s_[pos_] != '"') return false;
  const std::size_t start = ++pos_;
  while (pos_ < s_.size() && s_[pos_] != '"') {
    const unsigned char c = static_cast<unsigned char>(s_[pos_]);
    if (c == '\\' || c < 0x20) return false;
    ++pos_;
  }
  if (pos_ >= s_.size()) return false;
  out = s_.substr(start, pos_ - start);
  ++pos_;  // closing quote
  return true;
}

// An object key and its ':'.  An escaped or control-bearing key refuses:
// escaped-form byte order is not unescaped-key order, so sorting would
// diverge, and a register field name must match byte for byte.
bool RequestCodec::scan_key(std::string_view& key) {
  if (!read_plain_string(key)) return false;
  skip_ws();
  if (pos_ >= s_.size() || s_[pos_] != ':') return false;
  ++pos_;
  return true;
}

// An integer exactly where Parser::parse_number makes one: -?digits, not
// continued by a fraction or an exponent, within int64 (a wider token
// parses as a double there, which as_int() refuses).
bool RequestCodec::read_int(std::int64_t& out) {
  skip_ws();
  const char* first = s_.data() + pos_;
  const auto [end, ec] = std::from_chars(first, s_.data() + s_.size(), out);
  if (ec != std::errc()) return false;
  pos_ += static_cast<std::size_t>(end - first);
  return pos_ == s_.size() ||
         (s_[pos_] != '.' && s_[pos_] != 'e' && s_[pos_] != 'E');
}

// A flat array of integers, appended to `out`, in one pass.  Sized up
// front from `hint` (see size_hint) or, without one, from a count of the
// commas before the first ']' (a flat integer array has one more element
// than that; any other array refuses below, so a miscount costs
// nothing).  More than `max_len` elements refuses.
//
// Each element is tried as the SWAR token (swar_digits, after an
// optional '-') followed by ',' or ']'; every other form -- whitespace,
// eight or more digits, a token near the end of the line, junk -- goes
// through read_int, so values and refusals are read_int's by
// construction.  The cursor lives in locals: pos_ is written only
// around read_int calls and on return.
bool RequestCodec::read_ints(std::vector<std::int64_t>& out,
                             std::size_t max_len, std::size_t hint) {
  skip_ws();
  if (pos_ >= s_.size() || s_[pos_] != '[') return false;
  ++pos_;
  const char* const base = s_.data();
  const char* const end = base + s_.size();
  const char* p = base + pos_;
  if (hint == 0) {
    const std::string_view rest = s_.substr(pos_);
    const std::size_t close = rest.find(']');
    if (close == std::string_view::npos) return false;
    hint = static_cast<std::size_t>(
               std::count(rest.begin(), rest.begin() + close, ',')) + 1;
    if (hint > max_len) return false;
  }
  out.reserve(hint);
  while (p < end && is_ws(*p)) ++p;
  if (p < end && *p == ']') {
    pos_ = static_cast<std::size_t>(p + 1 - base);
    return true;
  }
  while (true) {
    if (out.size() == max_len) return false;
    std::int64_t v;
    const bool neg = p < end && *p == '-';
    const char* const digits = p + (neg ? 1 : 0);
    std::uint64_t mag = 0;
    int len = 0;
    if (end - digits >= 8 && (len = swar_digits(digits, mag)) != 0) {
      const auto m = static_cast<std::int64_t>(mag);  // < 10^7
      v = neg ? -m : m;
      p = digits + len;
      const char c = *p;  // inside the eight bytes read
      if (c == ',') {
        out.push_back(v);
        ++p;
        continue;
      }
      if (c == '.' || c == 'e' || c == 'E') return false;  // not an int
    } else {
      pos_ = static_cast<std::size_t>(p - base);
      if (!read_int(v)) return false;
      p = base + pos_;
    }
    out.push_back(v);
    while (p < end && is_ws(*p)) ++p;
    if (p >= end) return false;
    const char c = *p++;
    if (c == ']') {
      pos_ = static_cast<std::size_t>(p - base);
      return true;
    }
    if (c != ',') return false;
  }
}

bool RequestCodec::read_bool(bool& out) {
  skip_ws();
  if (s_.substr(pos_, 4) == "true") {
    pos_ += 4;
    out = true;
    return true;
  }
  if (s_.substr(pos_, 5) == "false") {
    pos_ += 5;
    out = false;
    return true;
  }
  return false;
}

// Unescape + re-escape a string value exactly as parse-then-dump would:
// the source escapes may be non-canonical ("A", "\/"), so the value
// is first unescaped into strbuf_ (mirroring Parser::parse_string,
// including surrogate pairs) and then emitted through the same escaper
// dump() uses.  Any lexical problem refuses.
bool RequestCodec::canon_string() {
  if (pos_ >= s_.size() || s_[pos_] != '"') return false;
  const std::size_t raw_start = ++pos_;
  strbuf_.clear();
  bool escaped = false;
  while (true) {
    if (pos_ >= s_.size()) return false;  // unterminated
    const char c = s_[pos_++];
    if (c == '"') break;
    if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
    if (c != '\\') {
      strbuf_.push_back(c);
      continue;
    }
    escaped = true;
    if (pos_ >= s_.size()) return false;
    const char e = s_[pos_++];
    switch (e) {
      case '"': strbuf_.push_back('"'); break;
      case '\\': strbuf_.push_back('\\'); break;
      case '/': strbuf_.push_back('/'); break;
      case 'b': strbuf_.push_back('\b'); break;
      case 'f': strbuf_.push_back('\f'); break;
      case 'n': strbuf_.push_back('\n'); break;
      case 'r': strbuf_.push_back('\r'); break;
      case 't': strbuf_.push_back('\t'); break;
      case 'u': {
        const auto hex4 = [&]() -> int {
          if (pos_ + 4 > s_.size()) return -1;
          unsigned v = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            v <<= 4;
            if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
            else return -1;
          }
          return static_cast<int>(v);
        };
        int cp = hex4();
        if (cp < 0) return false;
        unsigned u = static_cast<unsigned>(cp);
        if (u >= 0xD800 && u <= 0xDBFF) {  // surrogate pair
          if (pos_ + 1 >= s_.size() || s_[pos_] != '\\' || s_[pos_ + 1] != 'u')
            return false;
          pos_ += 2;
          const int lo = hex4();
          if (lo < 0 || lo < 0xDC00 || lo > 0xDFFF) return false;
          u = 0x10000 + ((u - 0xD800) << 10) +
              (static_cast<unsigned>(lo) - 0xDC00);
        }
        if (u < 0x80) {
          strbuf_.push_back(static_cast<char>(u));
        } else if (u < 0x800) {
          strbuf_.push_back(static_cast<char>(0xC0 | (u >> 6)));
          strbuf_.push_back(static_cast<char>(0x80 | (u & 0x3F)));
        } else if (u < 0x10000) {
          strbuf_.push_back(static_cast<char>(0xE0 | (u >> 12)));
          strbuf_.push_back(static_cast<char>(0x80 | ((u >> 6) & 0x3F)));
          strbuf_.push_back(static_cast<char>(0x80 | (u & 0x3F)));
        } else {
          strbuf_.push_back(static_cast<char>(0xF0 | (u >> 18)));
          strbuf_.push_back(static_cast<char>(0x80 | ((u >> 12) & 0x3F)));
          strbuf_.push_back(static_cast<char>(0x80 | ((u >> 6) & 0x3F)));
          strbuf_.push_back(static_cast<char>(0x80 | (u & 0x3F)));
        }
        break;
      }
      default:
        return false;
    }
  }
  last_str_raw_ = s_.substr(raw_start, pos_ - 1 - raw_start);
  last_str_escaped_ = escaped;
  last_kind_ = Kind::Str;
  append_json_string(strbuf_, canon_);
  return true;
}

// Replicates Parser::parse_number exactly: token scan, integral tokens
// through strtoll (falling through to strtod on overflow), doubles via
// %.17g, non-finite as null.
bool RequestCodec::canon_number() {
  const std::size_t start = pos_;
  if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
  while (pos_ < s_.size() && is_dig(s_[pos_])) ++pos_;
  bool integral = true;
  if (pos_ < s_.size() && s_[pos_] == '.') {
    integral = false;
    ++pos_;
    while (pos_ < s_.size() && is_dig(s_[pos_])) ++pos_;
  }
  if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
    integral = false;
    ++pos_;
    if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
    while (pos_ < s_.size() && is_dig(s_[pos_])) ++pos_;
  }
  if (pos_ == start || (pos_ == start + 1 && s_[start] == '-')) return false;
  strbuf_.assign(s_.data() + start, pos_ - start);
  if (integral) {
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(strbuf_.c_str(), &end, 10);
    if (errno == 0 && end != nullptr && *end == '\0') {
      support::append_int(canon_, static_cast<std::int64_t>(v));
      last_kind_ = Kind::Int;
      return true;
    }
  }
  errno = 0;
  char* end = nullptr;
  const double d = std::strtod(strbuf_.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  if (!std::isfinite(d)) {
    canon_ += "null";
  } else {
    support::append_double(canon_, d);
  }
  last_kind_ = Kind::Other;
  return true;
}

bool RequestCodec::canon_array() {
  ++pos_;  // '['
  canon_.push_back('[');
  skip_ws();
  if (pos_ < s_.size() && s_[pos_] == ']') {
    ++pos_;
    canon_.push_back(']');
    return true;
  }
  bool first = true;
  while (true) {
    if (!first) canon_.push_back(',');
    first = false;
    if (!canon_value()) return false;
    skip_ws();
    if (pos_ >= s_.size()) return false;
    if (s_[pos_] == ',') {
      ++pos_;
      continue;
    }
    if (s_[pos_] == ']') {
      ++pos_;
      canon_.push_back(']');
      return true;
    }
    return false;
  }
}

// Emit an object's members, tracking whether the source order is already
// strictly sorted; when it is not (or keys repeat), rebuild_object sorts
// the emitted pairs and keeps the last duplicate, matching the std::map
// parse tree (sorted iteration, operator[] last-wins).
bool RequestCodec::canon_object() {
  ++pos_;  // '{'
  const std::size_t base = members_.size();
  const std::size_t body_start = canon_.size() + 1;
  canon_.push_back('{');
  skip_ws();
  if (pos_ < s_.size() && s_[pos_] == '}') {
    ++pos_;
    canon_.push_back('}');
    return true;
  }
  bool sorted = true;
  while (true) {
    std::string_view key;
    if (!scan_key(key)) return false;
    if (members_.size() > base) canon_.push_back(',');
    const std::size_t pair_off = canon_.size();
    canon_.push_back('"');
    canon_.append(key);
    canon_ += "\":";
    if (!canon_value()) return false;
    Member m;
    m.key_off = static_cast<std::uint32_t>(pair_off + 1);
    m.key_len = static_cast<std::uint32_t>(key.size());
    m.pair_off = static_cast<std::uint32_t>(pair_off);
    m.pair_len = static_cast<std::uint32_t>(canon_.size() - pair_off);
    if (members_.size() > base && !(key_of(members_.back()) < key_of(m))) {
      sorted = false;
    }
    members_.push_back(m);
    skip_ws();
    if (pos_ >= s_.size()) return false;
    if (s_[pos_] == ',') {
      ++pos_;
      continue;
    }
    if (s_[pos_] == '}') {
      ++pos_;
      break;
    }
    return false;
  }
  if (!sorted) rebuild_object(base, body_start);
  canon_.push_back('}');
  members_.resize(base);
  return true;
}

void RequestCodec::rebuild_object(std::size_t base, std::size_t body_start) {
  // Stable insertion sort: request objects hold a handful of members, and
  // std::stable_sort would heap-allocate its merge buffer on every call.
  for (std::size_t i = base + 1; i < members_.size(); ++i) {
    const Member m = members_[i];
    std::size_t j = i;
    while (j > base && key_of(m) < key_of(members_[j - 1])) {
      members_[j] = members_[j - 1];
      --j;
    }
    members_[j] = m;
  }
  reorder_.clear();
  for (std::size_t i = base; i < members_.size(); ++i) {
    // Duplicate keys: the stable sort kept source order within a run, so
    // skipping all but the run's last entry is std::map last-wins.
    if (i + 1 < members_.size() &&
        key_of(members_[i + 1]) == key_of(members_[i])) {
      continue;
    }
    if (!reorder_.empty()) reorder_.push_back(',');
    reorder_.append(canon_, members_[i].pair_off, members_[i].pair_len);
  }
  canon_.resize(body_start);
  canon_.append(reorder_);
}

bool RequestCodec::canon_value() {
  if (++depth_ > kMaxDepth) return false;
  skip_ws();
  if (pos_ >= s_.size()) return false;
  bool ok = false;
  switch (s_[pos_]) {
    case 'n':
      ok = s_.substr(pos_, 4) == "null";
      if (ok) {
        pos_ += 4;
        canon_ += "null";
        last_kind_ = Kind::Other;
      }
      break;
    case 't':
      ok = s_.substr(pos_, 4) == "true";
      if (ok) {
        pos_ += 4;
        canon_ += "true";
        last_kind_ = Kind::Other;
      }
      break;
    case 'f':
      ok = s_.substr(pos_, 5) == "false";
      if (ok) {
        pos_ += 5;
        canon_ += "false";
        last_kind_ = Kind::Other;
      }
      break;
    case '"':
      ok = canon_string();
      break;
    case '[':
      ok = canon_array();
      last_kind_ = Kind::Other;
      break;
    case '{':
      ok = canon_object();
      last_kind_ = Kind::Other;
      break;
    default:
      ok = canon_number();
      break;
  }
  --depth_;
  return ok;
}

bool RequestCodec::canonicalize_query(std::string_view line, FastQuery& out) {
  s_ = line;
  pos_ = 0;
  depth_ = 0;
  canon_.clear();
  members_.clear();
  op_seen_ = {};
  bool have_op = false;
  bool have_id = false;
  id_value_ = kNoId;

  skip_ws();
  if (pos_ >= s_.size() || s_[pos_] != '{') return false;
  ++pos_;
  canon_.push_back('{');
  skip_ws();
  if (pos_ < s_.size() && s_[pos_] == '}') return false;  // no "op"

  // Top-level loop: like canon_object, plus transport-field handling and
  // op extraction.
  bool sorted = true;
  while (true) {
    std::string_view key;
    if (!scan_key(key)) return false;

    // deadline_ms / trace_id carry admission semantics of their own
    // (deadline checks, span minting) -- those requests take the slow
    // path wholesale.
    if (key == "deadline_ms" || key == "trace_id") return false;

    if (key == "id") {
      // Not emitted: the signature strips it.  Anything but a plain
      // int64 makes the slow path's as_int() throw, so it refuses.
      if (!read_int(id_value_)) return false;
      have_id = true;  // duplicates: last parse wins, like operator[]
    } else {
      if (!members_.empty()) canon_.push_back(',');
      const std::size_t pair_off = canon_.size();
      canon_.push_back('"');
      canon_.append(key);
      canon_ += "\":";
      if (!canon_value()) return false;
      if (key == "op") {
        // Only kernel-backed query ops can be cached hits: refuse the
        // rest (control ops, explain) before canonicalizing what is left
        // of a possibly huge line.
        if (last_kind_ != Kind::Str || last_str_escaped_) return false;
        op_seen_ = last_str_raw_;
        if (find_query_op(op_seen_) == nullptr) return false;
        opbuf_.assign(op_seen_);
        have_op = true;
      }
      Member m;
      m.key_off = static_cast<std::uint32_t>(pair_off + 1);
      m.key_len = static_cast<std::uint32_t>(key.size());
      m.pair_off = static_cast<std::uint32_t>(pair_off);
      m.pair_len = static_cast<std::uint32_t>(canon_.size() - pair_off);
      if (!members_.empty() && !(key_of(members_.back()) < key_of(m))) {
        sorted = false;
      }
      members_.push_back(m);
    }
    skip_ws();
    if (pos_ >= s_.size()) return false;
    if (s_[pos_] == ',') {
      ++pos_;
      continue;
    }
    if (s_[pos_] == '}') {
      ++pos_;
      break;
    }
    return false;
  }
  skip_ws();
  if (pos_ != s_.size()) return false;  // trailing bytes: parse error
  if (!have_op) return false;
  if (!sorted) rebuild_object(0, 1);
  canon_.push_back('}');
  members_.clear();

  out.signature = canon_;
  out.op = opbuf_;
  out.id = have_id ? id_value_ : kNoId;
  out.hash = cache_checksum(out.signature);
  return true;
}

bool RequestCodec::decode_register(std::string_view line,
                                   std::size_t max_cells, RegisterLine& out) {
  s_ = line;
  pos_ = 0;
  out = RegisterLine{};
  constexpr unsigned kOp = 1, kId = 2, kRows = 4, kCols = 8, kData = 16,
                     kFrontier = 32, kKind = 64, kValidate = 128;
  unsigned seen = 0;
  skip_ws();
  if (pos_ >= s_.size() || s_[pos_] != '{') return false;
  ++pos_;
  while (true) {
    std::string_view key;
    if (!scan_key(key)) return false;
    const unsigned field = key == "op"         ? kOp
                           : key == "id"       ? kId
                           : key == "rows"     ? kRows
                           : key == "cols"     ? kCols
                           : key == "data"     ? kData
                           : key == "frontier" ? kFrontier
                           : key == "kind"     ? kKind
                           : key == "validate" ? kValidate
                                               : 0;
    // Unknown (deadline_ms and trace_id included) or repeated: refuse.
    if (field == 0 || (seen & field) != 0) return false;
    seen |= field;
    bool ok = false;
    switch (field) {
      case kOp: {
        // Read first in most lines, so a query line refuses here.
        std::string_view op;
        ok = read_plain_string(op) &&
             (op == "register_dense" || op == "register_staircase");
        out.staircase = op == "register_staircase";
        break;
      }
      case kId: ok = read_int(out.id); break;
      case kRows: ok = read_int(out.rows); break;
      case kCols: ok = read_int(out.cols); break;
      case kData:
        ok = read_ints(out.data, max_cells,
                       (seen & kRows) != 0 && (seen & kCols) != 0
                           ? size_hint(out.rows, out.cols, max_cells,
                                       s_.size() - pos_)
                           : 0);
        break;
      case kFrontier:
        ok = read_ints(out.frontier, max_cells,
                       (seen & kRows) != 0
                           ? size_hint(out.rows, 1, max_cells, s_.size() - pos_)
                           : 0);
        break;
      case kKind: ok = read_plain_string(out.kind); break;
      case kValidate: ok = read_bool(out.validate); break;
    }
    if (!ok) return false;
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_++];
    if (c == '}') break;
    if (c != ',') return false;
  }
  skip_ws();
  if (pos_ != s_.size()) return false;  // trailing bytes: parse error
  // Every field the op needs, and none it ignores.
  const unsigned need =
      kOp | kRows | kCols | kData | (out.staircase ? kFrontier : 0);
  const unsigned allowed = need | kId | kValidate | (out.staircase ? 0 : kKind);
  return (seen & need) == need && (seen & ~allowed) == 0;
}

RequestCodec& thread_codec() {
  thread_local RequestCodec codec;
  return codec;
}

}  // namespace pmonge::serve
