#pragma once
// Named-counter registry: one consolidated snapshot of a run's metrics with
// one JSON serializer (DESIGN.md §11).
//
// SchedulerStats, SimMetrics, ThreadRunReport, EngineStats and the TT
// counters each kept growing their own ad-hoc emitters in the benches; the
// registry replaces that with a flat, insertion-ordered map of named values
// (counters as uint64, signed deltas as int64, ratios as double, labels as
// strings) that serializes through the single JsonObject emitter.  Adapters
// that flatten the existing structs live in metrics_adapters.hpp, so this
// header stays free of runtime/sim dependencies.
//
// Registries now carry hundreds of entries per bench, so lookups go through
// a name→index hash map; `entries_` keeps insertion order and remains the
// single serialization source, so snapshot bytes are unchanged.

#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "obs/json.hpp"

namespace ers::obs {

class MetricsRegistry {
 public:
  using Value = std::variant<std::uint64_t, std::int64_t, double, std::string>;

  /// Set (or overwrite) one named value; insertion order is preserved so
  /// snapshots diff cleanly run to run.
  void set(const std::string& name, std::uint64_t v) { put(name, Value{v}); }
  void set(const std::string& name, double v) { put(name, Value{v}); }
  void set(const std::string& name, const std::string& v) {
    put(name, Value{v});
  }
  void set(const std::string& name, const char* v) {
    put(name, Value{std::string(v)});
  }
  /// Non-negative ints store as uint64 (snapshot bytes unchanged); negative
  /// ints round-trip as a signed entry instead of silently clamping to 0.
  void set(const std::string& name, int v) {
    if (v < 0)
      put(name, Value{static_cast<std::int64_t>(v)});
    else
      put(name, Value{static_cast<std::uint64_t>(v)});
  }

  /// Add to a uint64 counter (creating it at 0).
  void add(const std::string& name, std::uint64_t delta) {
    const auto it = index_.find(name);
    if (it != index_.end()) {
      std::get<std::uint64_t>(entries_[it->second].second) += delta;
      return;
    }
    index_.emplace(name, entries_.size());
    entries_.emplace_back(name, Value{delta});
  }

  [[nodiscard]] bool has(const std::string& name) const {
    return index_.find(name) != index_.end();
  }

  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    const auto it = index_.find(name);
    if (it == index_.end()) return 0;
    return std::get<std::uint64_t>(entries_[it->second].second);
  }

  [[nodiscard]] double gauge(const std::string& name) const {
    const auto it = index_.find(name);
    if (it == index_.end()) return 0.0;
    return std::get<double>(entries_[it->second].second);
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// One flat JSON object: every entry in insertion order.
  [[nodiscard]] std::string to_json() const {
    JsonObject o;
    for (const auto& [k, v] : entries_) {
      if (std::holds_alternative<std::uint64_t>(v))
        o.field(k.c_str(), std::get<std::uint64_t>(v));
      else if (std::holds_alternative<std::int64_t>(v))
        o.raw(k.c_str(), std::to_string(std::get<std::int64_t>(v)));
      else if (std::holds_alternative<double>(v))
        o.field(k.c_str(), std::get<double>(v));
      else
        o.field(k.c_str(), std::get<std::string>(v));
    }
    return o.str();
  }

  /// Write the snapshot (one JSON object, newline-terminated) to `path`.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write metrics %s\n", path.c_str());
      return false;
    }
    const std::string json = to_json();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s (%zu metrics)\n", path.c_str(), entries_.size());
    return true;
  }

  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& entries()
      const noexcept {
    return entries_;
  }

 private:
  void put(const std::string& name, Value v) {
    const auto it = index_.find(name);
    if (it != index_.end()) {
      entries_[it->second].second = std::move(v);
      return;
    }
    index_.emplace(name, entries_.size());
    entries_.emplace_back(name, std::move(v));
  }

  std::vector<std::pair<std::string, Value>> entries_;
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace ers::obs
