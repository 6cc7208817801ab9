// Flat JSON object writer for the benchmark's machine-readable output
// (run.py parses one such object per subcommand).

#ifndef FAIRBC_PERFBENCH_REPORT_H_
#define FAIRBC_PERFBENCH_REPORT_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace fairbc::perfbench {

class Report {
 public:
  void Add(std::string key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    fields_.emplace_back(std::move(key), buf);
  }
  void AddString(std::string key, const std::string& value) {
    fields_.emplace_back(std::move(key), "\"" + value + "\"");
  }
  /// `json` must already be a JSON value.
  void AddJson(std::string key, std::string json) {
    fields_.emplace_back(std::move(key), std::move(json));
  }

  /// `{"key":value,...}` on one line.
  std::string Json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + fields_[i].first + "\":" + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace fairbc::perfbench

#endif  // FAIRBC_PERFBENCH_REPORT_H_
