#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

std::size_t rank_of(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double nearest_rank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[rank_of(sorted.size(), p) - 1];
}

TailPoint tail_point(std::vector<double> samples, std::size_t min_beyond) {
  TailPoint out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // Highest rank with min_beyond samples above it, never below the median.
  const std::size_t median_rank = rank_of(n, 50.0);
  const std::size_t rank = std::max(n > min_beyond ? n - min_beyond : 1, median_rank);
  out.percentile = rank == median_rank
                       ? 50.0
                       : 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  out.value = samples[rank - 1];
  out.beyond = n - rank;
  return out;
}

TailPoint planned_tail(std::vector<double> samples, double percentile,
                       std::size_t min_beyond) {
  TailPoint rule = tail_point(samples, min_beyond);
  if (samples.empty()) return rule;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const std::size_t beyond = n - rank_of(n, percentile);
  if (beyond < min_beyond && rule.percentile < percentile) return rule;
  return {percentile, nearest_rank(samples, percentile), n, beyond};
}

double geo_mean(const std::vector<double>& values) {
  double log_sum = 0.0;
  std::size_t count = 0;
  for (const double v : values) {
    if (v <= 0.0) continue;
    log_sum += std::log(v);
    ++count;
  }
  return count == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(count));
}

double per_second(double work, double seconds) {
  return seconds > 0.0 ? work / seconds : 0.0;
}

double ratio(double numerator, double denominator) {
  return denominator != 0.0 ? numerator / denominator : 0.0;
}

bool valid_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::size_t KindSamples::count() const {
  std::size_t n = 0;
  for (const auto& [kind, v] : by_kind_) n += v.size();
  return n;
}

double KindSamples::median_of_kinds() const {
  std::vector<double> medians;
  for (const auto& [kind, v] : by_kind_) medians.push_back(median(v));
  return geo_mean(medians);
}

double KindSamples::tail_percentile(const std::string& kind) const {
  const auto it = tail_percentile_.find(kind);
  return it == tail_percentile_.end() ? kDefaultTail : it->second;
}

double KindSamples::tail_of_kinds() const {
  std::vector<double> tails;
  for (const auto& [kind, v] : by_kind_) {
    tails.push_back(planned_tail(v, tail_percentile(kind)).value);
  }
  return geo_mean(tails);
}

void WorkloadResult::set(const std::string& name, double value,
                         const std::string& unit) {
  for (auto& [n, m] : metrics) {
    if (n == name) {
      m = {value, unit};
      return;
    }
  }
  metrics.emplace_back(name, Metric{value, unit});
}

void WorkloadResult::note(const std::string& key, const std::string& value) {
  context.emplace_back(key, value);
}

void WorkloadResult::fail(const std::string& message) {
  ++failed;
  failures.push_back(message);
}

const Metric* WorkloadResult::find(const std::string& name) const {
  for (const auto& [n, m] : metrics) {
    if (n == name) return &m;
  }
  return nullptr;
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string result_json(const WorkloadResult& r, bool correct) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    if (!first) os << ", ";
    first = false;
    os << '"' << name << "\": {\"value\": " << json_number(m.value)
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
