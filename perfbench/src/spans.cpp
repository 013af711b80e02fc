#include "spans.hpp"

#include <cmath>
#include <fstream>
#include <functional>
#include <thread>

#include "obs/metrics.hpp"

namespace perfbench {

namespace {

thread_local std::uint64_t t_current_span = 0;
thread_local std::uint64_t t_current_op = 0;

std::uint64_t thread_tag() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
}

}  // namespace

SpanStore::SpanStore() : epoch_(std::chrono::steady_clock::now()) {}

SpanStore& SpanStore::instance() {
  static SpanStore store;
  return store;
}

std::int64_t SpanStore::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint64_t SpanStore::next_id() {
  const std::lock_guard<std::mutex> lk(mu_);
  return next_id_++;
}

void SpanStore::add(const SpanRecord& r) {
  const std::lock_guard<std::mutex> lk(mu_);
  records_.push_back(r);
}

void SpanStore::clear() {
  const std::lock_guard<std::mutex> lk(mu_);
  records_.clear();
}

std::vector<SpanRecord> SpanStore::records() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return records_;
}

std::vector<double> SpanStore::seconds_of(const std::string& name) const {
  const std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> out;
  for (const SpanRecord& r : records_) {
    if (name == r.name) out.push_back(r.seconds());
  }
  return out;
}

bool SpanStore::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"traceEvents\": [\n";
  bool first = true;
  for (const SpanRecord& r : records()) {
    if (!first) os << ",\n";
    first = false;
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %llu, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                  "\"parent\": %llu, \"op\": %llu}}",
                  r.name, static_cast<unsigned long long>(r.tid),
                  1e-3 * static_cast<double>(r.start_ns),
                  1e-3 * static_cast<double>(r.end_ns - r.start_ns),
                  static_cast<unsigned long long>(r.id),
                  static_cast<unsigned long long>(r.parent),
                  static_cast<unsigned long long>(r.op));
    os << buf;
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return static_cast<bool>(os);
}

Span::Span(const char* name) {
  SpanStore& store = SpanStore::instance();
  rec_.name = name;
  if (store.enabled()) {
    rec_.id = store.next_id();
    rec_.parent = t_current_span;
    rec_.op = t_current_op;
    rec_.tid = thread_tag();
    saved_parent_ = t_current_span;
    t_current_span = rec_.id;
  }
  rec_.start_ns = store.now_ns();
}

double Span::close() {
  if (!open_) return rec_.seconds();
  open_ = false;
  SpanStore& store = SpanStore::instance();
  rec_.end_ns = store.now_ns();
  if (rec_.id != 0) {
    t_current_span = saved_parent_;
    store.add(rec_);
  }
  return rec_.seconds();
}

Span::~Span() { close(); }

double Span::seconds() const {
  if (!open_) return rec_.seconds();
  return 1e-9 *
         static_cast<double>(SpanStore::instance().now_ns() - rec_.start_ns);
}

OpScope::OpScope() : saved_op_(t_current_op) {
  t_current_op = SpanStore::instance().next_id();
}

OpScope::~OpScope() { t_current_op = saved_op_; }

RegistrySnapshot RegistrySnapshot::take() {
  RegistrySnapshot snap;
  ssp::obs::for_each_metric([&](const ssp::obs::MetricEntry& e) {
    if (e.kind == ssp::obs::MetricKind::kCounter) {
      snap.counters[e.name] = e.counter;
    } else if (e.kind == ssp::obs::MetricKind::kHistogram) {
      auto& b = snap.histograms[e.name];
      for (int i = 0; i < kBuckets; ++i) b[static_cast<std::size_t>(i)] = e.hist.buckets[i];
    }
  });
  return snap;
}

RegistryDelta::RegistryDelta(const RegistrySnapshot& before,
                             const RegistrySnapshot& after) {
  for (const auto& [name, v] : after.counters) {
    const auto it = before.counters.find(name);
    const std::uint64_t b = it == before.counters.end() ? 0 : it->second;
    if (v > b) counters[name] = v - b;
  }
  for (const auto& [name, buckets] : after.histograms) {
    const auto it = before.histograms.find(name);
    auto& out = histograms[name];
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      const std::uint64_t b =
          it == before.histograms.end() ? 0 : it->second[i];
      out[i] = buckets[i] > b ? buckets[i] - b : 0;
    }
  }
}

double RegistryDelta::get(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : static_cast<double>(it->second);
}

namespace {

bool matches(const std::string& name, const std::string& prefix,
             const std::string& suffix) {
  return name.size() >= prefix.size() + suffix.size() &&
         name.compare(0, prefix.size(), prefix) == 0 &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

double RegistryDelta::sum_matching(const std::string& prefix,
                                   const std::string& suffix) const {
  double sum = 0.0;
  for (const auto& [name, v] : counters) {
    if (matches(name, prefix, suffix)) sum += static_cast<double>(v);
  }
  return sum;
}

double RegistryDelta::histogram_percentile(const std::string& name,
                                           double q) const {
  const auto it = histograms.find(name);
  if (it == histograms.end()) return 0.0;
  std::uint64_t total = 0;
  for (const std::uint64_t c : it->second) total += c;
  if (total == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < it->second.size(); ++i) {
    cumulative += it->second[i];
    if (cumulative >= std::max<std::uint64_t>(target, 1)) {
      return std::ldexp(1.0, static_cast<int>(i) + 1);
    }
  }
  return 0.0;
}

void RegistryDelta::accumulate(const RegistryDelta& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, buckets] : other.histograms) {
    auto& out = histograms[name];
    for (std::size_t i = 0; i < buckets.size(); ++i) out[i] += buckets[i];
  }
}

}  // namespace perfbench
