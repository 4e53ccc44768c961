// Recorder: named counters and time series collected during a run.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "metrics/series.hpp"

namespace ftvod::metrics {

class Recorder {
 public:
  /// Named monotonically increasing counter.
  void count(const std::string& name, std::uint64_t delta = 1) {
    counters_[name] += delta;
  }
  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }

  /// Appends to the named series (created on first use).
  void sample(const std::string& name, sim::Time t, double value) {
    series_at(name).append(t, value);
  }
  [[nodiscard]] TimeSeries& series_at(const std::string& name) {
    auto it = series_.find(name);
    if (it == series_.end()) {
      it = series_.emplace(name, TimeSeries(name)).first;
    }
    return it->second;
  }
  [[nodiscard]] const TimeSeries* series(const std::string& name) const {
    auto it = series_.find(name);
    return it == series_.end() ? nullptr : &it->second;
  }

  void clear() {
    counters_.clear();
    series_.clear();
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, TimeSeries> series_;
};

}  // namespace ftvod::metrics
