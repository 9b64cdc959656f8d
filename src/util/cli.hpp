#pragma once
// Minimal command-line flag parsing for the examples and harness binaries.
// Flags look like:  --name value   or   --name=value   or   --flag (boolean).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ers {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(std::move(arg));
        continue;
      }
      arg.erase(0, 2);
      if (auto eq = arg.find('='); eq != std::string::npos) {
        flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flags_[arg] = argv[++i];
      } else {
        flags_[arg] = "";  // boolean flag
      }
    }
  }

  /// Exit with status 2 and "unknown option --X" on stderr when a flag
  /// outside `known` was given, so a mistyped or removed flag fails loudly
  /// instead of being ignored.
  void reject_unknown(std::initializer_list<std::string_view> known) const {
    for (const auto& flag : flags_) {
      if (std::find(known.begin(), known.end(), flag.first) != known.end())
        continue;
      std::fprintf(stderr, "unknown option --%s\n", flag.first.c_str());
      std::exit(2);
    }
  }

  [[nodiscard]] bool has(const std::string& name) const {
    return flags_.count(name) != 0;
  }

  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const {
    auto it = flags_.find(name);
    return it == flags_.end() ? fallback : it->second;
  }

  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const {
    auto it = flags_.find(name);
    if (it == flags_.end()) return fallback;
    return std::stoll(it->second);
  }

  [[nodiscard]] double get_double(const std::string& name, double fallback) const {
    auto it = flags_.find(name);
    if (it == flags_.end()) return fallback;
    return std::stod(it->second);
  }

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace ers
