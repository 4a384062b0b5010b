// Statistics helpers and the result line every run ends with.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double Percentile(std::vector<double> values, double q);

/// Peak resident set size (VmHWM) of this process image, in MiB.
[[nodiscard]] double PeakRssMb();

/// name -> value copy of a registry, for before/after deltas.
using Counters = std::map<std::string, std::uint64_t>;
[[nodiscard]] Counters Snapshot(const dsched::obs::MetricsRegistry& registry);

/// Sum over `session.<n>.<suffix>` of after - before.
[[nodiscard]] double SessionDelta(const Counters& before, const Counters& after,
                                  const std::string& suffix);
/// Max over `session.<n>.<suffix>` in `after`.
[[nodiscard]] double SessionMax(const Counters& after, const std::string& suffix);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Collects metrics and prints them: one aligned line each, then the JSON
/// result as the last line of stdout.
class Report {
 public:
  void Add(std::string name, double value, std::string unit);
  /// Informational lines that are not part of the scored result.
  void Note(const std::string& line);
  void Print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

}  // namespace perfbench
