#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[index];
}

double PeakRssMb() {
  // Not getrusage: its ru_maxrss keeps the high-water mark of the image
  // this process exec'd from (the launcher), VmHWM is this image's own.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

Counters Snapshot(const dsched::obs::MetricsRegistry& registry) {
  Counters out;
  for (const auto& m : registry.Snapshot()) {
    out[m.name] = m.value;
  }
  return out;
}

namespace {

bool IsSessionKey(const std::string& name, const std::string& suffix) {
  return name.rfind("session.", 0) == 0 && name.size() > suffix.size() + 1 &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0 &&
         name[name.size() - suffix.size() - 1] == '.' &&
         // session.<name>.<suffix>: exactly one name segment before suffix.
         name.find('.', 8) == name.size() - suffix.size() - 1;
}

}  // namespace

double SessionDelta(const Counters& before, const Counters& after,
                    const std::string& suffix) {
  double sum = 0.0;
  for (const auto& [name, value] : after) {
    if (IsSessionKey(name, suffix)) {
      const auto it = before.find(name);
      sum += static_cast<double>(value) -
             static_cast<double>(it == before.end() ? 0 : it->second);
    }
  }
  return sum;
}

double SessionMax(const Counters& after, const std::string& suffix) {
  double best = 0.0;
  for (const auto& [name, value] : after) {
    if (IsSessionKey(name, suffix)) {
      best = std::max(best, static_cast<double>(value));
    }
  }
  return best;
}

void Report::Add(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) {
    value = 0.0;
  }
  metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Print(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
  for (const std::string& note : notes_) {
    std::printf("# %s\n", note.c_str());
  }
  for (const Metric& m : metrics_) {
    std::printf("%-46s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
