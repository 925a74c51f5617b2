// Shared helpers for the benchmark binaries: tiny flag parsing and aligned
// table printing, so every bench emits the same style of report.

#ifndef BENCH_COMMON_H_
#define BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/util/logging.h"
#include "src/util/strings.h"

namespace dice::bench {

// Parses --key=value flags; anything else is ignored.
class Flags {
 public:
  // Splits "--key=value" into {key, value} and bare "--key" into
  // {key, "true"}; nullopt when arg is not a --flag. The one authoritative
  // tokenization, shared with callers that pre-validate argv (dice_cli).
  static std::optional<std::pair<std::string, std::string>> ParseFlag(
      const std::string& arg) {
    if (arg.rfind("--", 0) != 0) {
      return std::nullopt;
    }
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      return std::make_pair(arg.substr(2), std::string("true"));
    }
    return std::make_pair(arg.substr(2, eq - 2), arg.substr(eq + 1));
  }

  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      if (auto flag = ParseFlag(argv[i]); flag.has_value()) {
        values_[std::move(flag->first)] = std::move(flag->second);
      }
    }
  }

  uint64_t GetUint(const std::string& key, uint64_t default_value) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      return default_value;
    }
    auto v = ParseUint64(it->second);
    return v.has_value() ? *v : default_value;
  }

  double GetDouble(const std::string& key, double default_value) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      return default_value;
    }
    return std::stod(it->second);
  }

  std::string GetString(const std::string& key, const std::string& default_value) const {
    auto it = values_.find(key);
    return it == values_.end() ? default_value : it->second;
  }

  bool GetBool(const std::string& key, bool default_value) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      return default_value;
    }
    return it->second == "true" || it->second == "1";
  }

 private:
  std::map<std::string, std::string> values_;
};

// Simple aligned-column table writer.
class Table {
 public:
  explicit Table(std::vector<std::string> header) { rows_.push_back(std::move(header)); }

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<size_t> widths;
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size(); ++i) {
        if (i >= widths.size()) {
          widths.push_back(0);
        }
        widths[i] = std::max(widths[i], row[i].size());
      }
    }
    for (size_t r = 0; r < rows_.size(); ++r) {
      std::string line;
      for (size_t i = 0; i < rows_[r].size(); ++i) {
        std::string cell = rows_[r][i];
        cell.resize(widths[i], ' ');
        line += cell;
        if (i + 1 < rows_[r].size()) {
          line += "  ";
        }
      }
      std::printf("%s\n", line.c_str());
      if (r == 0) {
        std::string sep;
        for (size_t i = 0; i < widths.size(); ++i) {
          sep += std::string(widths[i], '-');
          if (i + 1 < widths.size()) {
            sep += "  ";
          }
        }
        std::printf("%s\n", sep.c_str());
      }
    }
  }

 private:
  std::vector<std::vector<std::string>> rows_;
};

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Machine-readable result emitter: every bench prints exactly one
//   BENCH_JSON {"bench":"<name>",...}
// line at the end of its run, so perf trajectories can be scraped into
// BENCH_<name>.json files across PRs (grep '^BENCH_JSON' and strip the tag).
// Keys are unique: adding one twice is a programming error (a JSON reader
// would silently keep only one of the values).
class JsonLine {
 public:
  explicit JsonLine(const std::string& bench) { Add("bench", bench); }

  JsonLine& Add(const std::string& key, const std::string& value) {
    AppendKey(key);
    fields_ += '"';
    for (char c : value) {
      if (c == '"' || c == '\\') {
        fields_ += '\\';
      }
      fields_ += c;
    }
    fields_ += '"';
    return *this;
  }
  JsonLine& Add(const std::string& key, const char* value) {
    return Add(key, std::string(value));
  }
  JsonLine& Add(const std::string& key, double value) {
    AppendKey(key);
    fields_ += StrFormat("%.6f", value);
    return *this;
  }
  JsonLine& Add(const std::string& key, uint64_t value) {
    AppendKey(key);
    fields_ += StrFormat("%llu", static_cast<unsigned long long>(value));
    return *this;
  }
  JsonLine& Add(const std::string& key, bool value) {
    AppendKey(key);
    fields_ += value ? "true" : "false";
    return *this;
  }

  void Print() const { std::printf("BENCH_JSON {%s}\n", fields_.c_str()); }

 private:
  void AppendKey(const std::string& key) {
    DICE_CHECK(keys_.insert(key).second) << "duplicate BENCH_JSON key '" << key << "'";
    if (!fields_.empty()) {
      fields_ += ',';
    }
    fields_ += '"';
    fields_ += key;
    fields_ += "\":";
  }

  std::set<std::string> keys_;
  std::string fields_;
};

}  // namespace dice::bench

#endif  // BENCH_COMMON_H_
