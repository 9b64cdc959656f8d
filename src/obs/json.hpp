#pragma once
// The one JSON emitter of the repo (DESIGN.md §11).
//
// Everything that writes JSON — the BENCH_*.json bench summaries and the
// Perfetto trace writer — goes through the helpers here, so escaping and
// number formatting are decided exactly once.
// Formerly these lived in bench/common.hpp; bench code keeps its spelling
// via using-declarations, and the emitted bytes are unchanged (covered by
// tests/obs/json_test.cpp).

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace ers::obs {

/// Escape a string for use as a JSON value: quotes, backslashes, and
/// control characters (the tree names and modes the benches emit are tame,
/// but the emitter must not rely on that).
inline std::string json_escape(const char* s) {
  std::string out;
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

inline std::string json_escape(const std::string& s) {
  return json_escape(s.c_str());
}

/// Flat JSON object builder: insertion-ordered string/int/double fields
/// plus raw splicing for nested values.
class JsonObject {
 public:
  JsonObject& field(const char* key, const char* v) {
    // Appended piecewise: GCC 12 flags the operator+ chain with a
    // -Wrestrict false positive once this is inlined into a caller.
    std::string quoted(1, '"');
    quoted.append(json_escape(v));
    quoted.push_back('"');
    return raw(key, quoted);
  }
  JsonObject& field(const char* key, const std::string& v) {
    return field(key, v.c_str());
  }
  JsonObject& field(const char* key, double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return raw(key, buf);
  }
  JsonObject& field(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& field(const char* key, int v) {
    return raw(key, std::to_string(v));
  }
  /// Append `json` verbatim as the value of `key`.  Appended in place, for
  /// the same -Wrestrict reason as field(const char*).
  JsonObject& raw(const char* key, const std::string& json) {
    if (!body_.empty()) body_.push_back(',');
    body_.push_back('"');
    body_.append(key);
    body_.append("\":");
    body_.append(json);
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Write `lines` (one JSON object each) to BENCH_<name>.json in the current
/// directory and echo the path so the run log records where they went.
/// Every line is stamped with `"bench": name` and `"reps": reps` (the
/// repetitions each row was averaged over; 1 for deterministic benches), so
/// a file's rows identify their producer without reading this source.
inline void write_bench_json(const std::string& name, int reps,
                             const std::vector<std::string>& lines,
                             const std::string& path_override = "") {
  const std::string path =
      path_override.empty() ? "BENCH_" + name + ".json" : path_override;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const std::string stamp =
      "{\"bench\":\"" + json_escape(name.c_str()) +
      "\",\"reps\":" + std::to_string(reps);
  for (const auto& line : lines) {
    // Each line is a flat object "{...}"; splice the stamp after the brace.
    std::fprintf(f, "%s%s%s\n", stamp.c_str(), line.size() > 2 ? "," : "",
                 line.c_str() + 1);
  }
  std::fclose(f);
  std::printf("wrote %s (%zu rows)\n", path.c_str(), lines.size());
}

}  // namespace ers::obs
