#pragma once

/// \file spans.hpp
/// The benchmark's own tracing: spans recorded around its calls into each
/// libssp layer, kept in memory and written at exit as chrome://tracing
/// JSON, plus deltas of the counters libssp already exports through
/// `obs::visit_metrics`. Nothing here records inside the library.
///
/// A span carries its name, start, end, its own id, the id of the span that
/// was open on the same thread when it began (its parent, 0 at top level)
/// and the id of the operation it belongs to, so every span of one
/// sparsification or one commit shares an op id.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  ///< static-duration string
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  std::uint64_t tid = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  [[nodiscard]] double seconds() const { return 1e-9 * static_cast<double>(end_ns - start_ns); }
};

/// Process-wide span store. Recording is off until `set_enabled(true)`;
/// while off, `Span` only measures its own duration.
class SpanStore {
 public:
  static SpanStore& instance();
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void add(const SpanRecord& r);
  /// Drops every recorded span.
  void clear();
  [[nodiscard]] std::vector<SpanRecord> records() const;
  /// Durations in seconds of every recorded span called `name`.
  [[nodiscard]] std::vector<double> seconds_of(const std::string& name) const;
  /// Writes every span as Chrome trace_event JSON ("X" events, ts/dur in
  /// µs, args {id, parent, op}). Returns false when the file cannot be
  /// written.
  bool write_chrome(const std::string& path) const;
  [[nodiscard]] std::uint64_t next_id();
  [[nodiscard]] std::int64_t now_ns() const;

 private:
  SpanStore();
  /// Flipped by the driving thread while client threads record.
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> records_;
  std::uint64_t next_id_ = 1;
};

/// RAII span. Always measures its wall time (`seconds()`), records into the
/// store only when recording is on.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Seconds since construction (or the final duration once closed).
  [[nodiscard]] double seconds() const;
  /// Ends the span early; the destructor then does nothing.
  double close();

 private:
  SpanRecord rec_;
  std::uint64_t saved_parent_ = 0;
  bool open_ = true;
};

/// Marks every span opened on this thread during its lifetime as belonging
/// to one new operation id.
class OpScope {
 public:
  OpScope();
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  std::uint64_t saved_op_ = 0;
};

/// Snapshot of the libssp metrics registry: counters by name and histogram
/// bucket counts by name.
struct RegistrySnapshot {
  static constexpr int kBuckets = 44;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::array<std::uint64_t, kBuckets>> histograms;
  static RegistrySnapshot take();
};

/// after − before for every counter and histogram.
struct RegistryDelta {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::array<std::uint64_t, RegistrySnapshot::kBuckets>>
      histograms;
  RegistryDelta() = default;
  RegistryDelta(const RegistrySnapshot& before, const RegistrySnapshot& after);
  [[nodiscard]] double get(const std::string& name) const;
  /// Σ of counters whose name starts with `prefix` and ends with `suffix`.
  [[nodiscard]] double sum_matching(const std::string& prefix,
                                    const std::string& suffix) const;
  /// The registry's own percentile rule on the delta buckets: upper bound
  /// 2^(i+1) of the bucket where the cumulative count reaches ceil(q·n).
  [[nodiscard]] double histogram_percentile(const std::string& name,
                                            double q) const;
  void accumulate(const RegistryDelta& other);
};

}  // namespace perfbench
