#pragma once
// Minimal recursive-descent JSON reader for the repo's own artifacts
// (DESIGN.md §11): trace_report loads Perfetto trace files written by
// trace_writer.hpp, and tests round-trip JsonObject output.  It parses
// the full JSON grammar but is tuned for what we emit — numbers keep their
// source token so microsecond timestamps with nanosecond fractions
// ("12.345") convert back to integer ns without a float round trip.
//
// Deliberately tolerant: unknown keys are kept, not rejected; consumers
// look up what they need and ignore the rest.

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ers::obs {

/// One parsed JSON value.  Numbers remember their raw token (see
/// us_token_to_ns); objects preserve key order.
class JsonValue {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;  ///< string value, or the number's raw token
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;

  [[nodiscard]] bool is_object() const noexcept { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const noexcept { return kind == Kind::kArray; }
  [[nodiscard]] bool is_number() const noexcept { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return kind == Kind::kString; }

  /// Member lookup (objects only); nullptr when absent.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : fields)
      if (k == key) return &v;
    return nullptr;
  }

  [[nodiscard]] double as_double(double fallback = 0.0) const noexcept {
    if (kind != Kind::kNumber) return fallback;
    return std::strtod(text.c_str(), nullptr);
  }
  [[nodiscard]] std::uint64_t as_uint64(std::uint64_t fallback = 0) const noexcept {
    if (kind != Kind::kNumber) return fallback;
    return std::strtoull(text.c_str(), nullptr, 10);
  }
};

/// Convert a microsecond number token with up to ns precision ("12.345",
/// the trace writer's ts/dur format) to integer nanoseconds, exactly.
[[nodiscard]] inline std::uint64_t us_token_to_ns(const std::string& tok) noexcept {
  std::uint64_t us = 0;
  std::size_t i = 0;
  while (i < tok.size() && tok[i] >= '0' && tok[i] <= '9')
    us = us * 10 + static_cast<std::uint64_t>(tok[i++] - '0');
  std::uint64_t frac = 0;
  std::uint64_t scale = 100;  // first fractional digit is 100 ns
  if (i < tok.size() && tok[i] == '.') {
    for (++i; i < tok.size() && tok[i] >= '0' && tok[i] <= '9' && scale > 0; ++i) {
      frac += static_cast<std::uint64_t>(tok[i] - '0') * scale;
      scale /= 10;
    }
  }
  return us * 1000 + frac;
}

namespace detail {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : p_(text.data()), end_(text.data() + text.size()) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return p_ == end_;  // trailing garbage is a parse error
  }

 private:
  void skip_ws() noexcept {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) ++p_;
  }
  [[nodiscard]] bool consume(char c) noexcept {
    if (p_ != end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }
  bool literal(const char* lit) noexcept {
    const char* q = p_;
    for (; *lit != '\0'; ++lit, ++q)
      if (q == end_ || *q != *lit) return false;
    p_ = q;
    return true;
  }

  bool string_body(std::string& out) {
    if (!consume('"')) return false;
    while (p_ != end_ && *p_ != '"') {
      char c = *p_++;
      if (c == '\\') {
        if (p_ == end_) return false;
        const char e = *p_++;
        switch (e) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            // Decode BMP escapes to UTF-8; we only ever emit control chars.
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              if (p_ == end_) return false;
              const char h = *p_++;
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            continue;
          }
          default: return false;
        }
      }
      out += c;
    }
    return consume('"');
  }

  bool value(JsonValue& out) {
    if (p_ == end_) return false;
    switch (*p_) {
      case '{': {
        ++p_;
        out.kind = JsonValue::Kind::kObject;
        skip_ws();
        if (consume('}')) return true;
        while (true) {
          skip_ws();
          std::string key;
          if (!string_body(key)) return false;
          skip_ws();
          if (!consume(':')) return false;
          skip_ws();
          JsonValue v;
          if (!value(v)) return false;
          out.fields.emplace_back(std::move(key), std::move(v));
          skip_ws();
          if (consume('}')) return true;
          if (!consume(',')) return false;
        }
      }
      case '[': {
        ++p_;
        out.kind = JsonValue::Kind::kArray;
        skip_ws();
        if (consume(']')) return true;
        while (true) {
          skip_ws();
          JsonValue v;
          if (!value(v)) return false;
          out.items.push_back(std::move(v));
          skip_ws();
          if (consume(']')) return true;
          if (!consume(',')) return false;
        }
      }
      case '"':
        out.kind = JsonValue::Kind::kString;
        return string_body(out.text);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return literal("null");
      default: {  // number: keep the raw token
        const char* start = p_;
        if (consume('-')) {}
        while (p_ != end_ &&
               ((*p_ >= '0' && *p_ <= '9') || *p_ == '.' || *p_ == 'e' ||
                *p_ == 'E' || *p_ == '+' || *p_ == '-'))
          ++p_;
        if (p_ == start) return false;
        out.kind = JsonValue::Kind::kNumber;
        out.text.assign(start, static_cast<std::size_t>(p_ - start));
        return true;
      }
    }
  }

  const char* p_;
  const char* end_;
};

}  // namespace detail

/// Parse `text`; returns false (out untouched beyond partial state) on
/// malformed input.
inline bool parse_json(std::string_view text, JsonValue& out) {
  detail::JsonParser p(text);
  return p.parse(out);
}

/// Slurp a file into `out`; false if it cannot be read.
inline bool read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return true;
}

}  // namespace ers::obs
