#pragma once

/// \file measure.hpp
/// Statistics and result plumbing shared by every workload: the percentile
/// rule, throughput and ratio definitions, metric-name validation, and the
/// result record ssp_perfbench prints as its last line.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Median of `samples` (mean of the two middle values for even sizes);
/// 0 for an empty input.
[[nodiscard]] double median(std::vector<double> samples);

/// Nearest-rank percentile of an ascending sample: the value at rank
/// ceil(p/100 · n) (1-based). 0 for an empty input.
[[nodiscard]] double nearest_rank(const std::vector<double>& sorted, double p);

/// The tail point reported next to every median: the highest percentile
/// that leaves at least `min_beyond` samples above it, i.e. nearest rank
/// n − min_beyond, at percentile 100·(n − min_beyond)/n. It never drops
/// below the median: with fewer than 2 · min_beyond samples the median is
/// returned with `beyond` < min_beyond, so the caller can see it.
struct TailPoint {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples ranked above the reported point
};
[[nodiscard]] TailPoint tail_point(std::vector<double> samples,
                                   std::size_t min_beyond = 10);

/// The tail at a percentile fixed in advance, so that it means the same in
/// every run: `percentile`, lowered to `tail_point`'s choice when fewer than
/// `min_beyond` samples would lie beyond it (so a short run degrades
/// smoothly instead of jumping to another ladder point).
[[nodiscard]] TailPoint planned_tail(std::vector<double> samples,
                                     double percentile,
                                     std::size_t min_beyond = 10);

/// exp(mean(log x)) over positive values; 0 when there are none. Used to
/// combine per-kind medians so that a workload mixing a fast and a slow
/// input kind does not report whichever mode the overall median lands in.
[[nodiscard]] double geo_mean(const std::vector<double>& values);

/// Work completed per second of wall time; 0 when no time was measured.
[[nodiscard]] double per_second(double work, double seconds);

/// numerator / denominator, or 0 when the denominator is 0.
[[nodiscard]] double ratio(double numerator, double denominator);

/// Metric and workload names: 1–64 characters of [A-Za-z0-9_.-], starting
/// with a letter or digit.
[[nodiscard]] bool valid_name(const std::string& name);

/// Timing samples of one workload run, grouped by input kind (graph family
/// or session size). Every end-to-end timing is a per-kind statistic
/// combined across kinds by `geo_mean`.
class KindSamples {
 public:
  void add(const std::string& kind, double value) {
    by_kind_[kind].push_back(value);
  }
  /// Percentile reported as `kind`'s tail (default kDefaultTail); chosen per
  /// workload so that its planned sample count leaves ten samples beyond.
  void plan_tail(const std::string& kind, double percentile) {
    tail_percentile_[kind] = percentile;
  }
  [[nodiscard]] double tail_percentile(const std::string& kind) const;
  static constexpr double kDefaultTail = 75.0;
  [[nodiscard]] const std::map<std::string, std::vector<double>>& by_kind()
      const {
    return by_kind_;
  }
  [[nodiscard]] std::size_t count() const;
  /// geo_mean over kinds of each kind's median.
  [[nodiscard]] double median_of_kinds() const;
  /// geo_mean over kinds of each kind's planned_tail value.
  [[nodiscard]] double tail_of_kinds() const;

 private:
  std::map<std::string, std::vector<double>> by_kind_;
  std::map<std::string, double> tail_percentile_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports. `failed` counts failed operations
/// of `attempted`; each failure keeps a message for stderr.
struct WorkloadResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, Metric>> metrics;
  std::vector<std::pair<std::string, std::string>> context;

  void set(const std::string& name, double value, const std::string& unit);
  void note(const std::string& key, const std::string& value);
  void fail(const std::string& message);
  [[nodiscard]] const Metric* find(const std::string& name) const;
};

/// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`
/// with every value printed with 17 significant digits.
[[nodiscard]] std::string result_json(const WorkloadResult& r, bool correct);

}  // namespace perfbench
