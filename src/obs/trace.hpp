#pragma once

/// Span tracer: RAII scopes recorded into per-thread lock-free ring
/// buffers and exported as Chrome `trace_event` JSON, loadable in
/// chrome://tracing or https://ui.perfetto.dev.
///
/// Design contract:
///  - Recording is gated on one relaxed atomic flag (off by default);
///    the disabled path is a load + branch.
///  - Steady state allocates nothing: each thread's ring is a fixed
///    array allocated once on that thread's first span and intentionally
///    leaked (process lifetime), so flushing never races thread exit.
///  - Rings wrap, keeping the most recent ~8k spans per thread; the
///    flush reports how many older spans were overwritten.
///  - `name`/`arg_name` must be static-duration strings (literals or
///    `to_string(enum)` results) — the pointer is stored, not the text.
///  - Flush (`write_chrome_trace`) expects recording threads to be
///    quiescent: call `stop_trace()` (or finish the parallel region)
///    first. Tools flush once at exit.
///
/// Two recording shapes:
///  - `Span`: live RAII scope, measures its own duration.
///  - `TraceScope`: retrospective — each layer's `notify_stage` learns a
///    stage's duration only after it ran (and adds it to the layer's
///    result and `*.stage.*` counters), so it constructs a TraceScope
///    which back-dates a complete event ending "now".
///
/// Define SSP_OBS_NO_TRACE to compile every entry point to a no-op.

#include <cstdint>
#include <iosfwd>
#include <string>

namespace ssp::obs {

#ifndef SSP_OBS_NO_TRACE

/// Runtime switch. start_trace() resets all rings, re-bases the trace
/// clock, and enables recording; stop_trace() disables it.
bool trace_enabled() noexcept;
void start_trace() noexcept;
void stop_trace() noexcept;

/// Record a complete event that ended now and lasted `seconds`
/// (back-dated start). Used by stage notifications, which only learn a
/// stage's duration after it ran. Optional integer argument (e.g. a
/// block id) is attached as {"args":{arg_name: arg}}.
void emit_span(const char* name, double seconds,
               const char* arg_name = nullptr, std::int64_t arg = 0) noexcept;

/// Live RAII span over the enclosing scope.
class Span {
 public:
  explicit Span(const char* name, const char* arg_name = nullptr,
                std::int64_t arg = 0) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  const char* arg_name_;
  std::int64_t arg_;
  std::uint64_t start_ns_;
  bool armed_;
};

/// Retrospective span for stage notifications (duration already known).
struct TraceScope {
  explicit TraceScope(const char* name, double seconds,
                      const char* arg_name = nullptr,
                      std::int64_t arg = 0) noexcept {
    emit_span(name, seconds, arg_name, arg);
  }
};

/// Serialize every recorded span as Chrome trace_event JSON. Safe to
/// call repeatedly; does not clear the rings.
void write_chrome_trace(std::ostream& os);

/// stop_trace() + write_chrome_trace() to `path`. Returns false (after
/// printing to stderr) when the file cannot be written.
bool write_trace_file(const std::string& path);

/// Spans recorded since the last start_trace() (including any that
/// wrapped out of a ring). Test hook.
std::uint64_t trace_span_count() noexcept;

#else  // SSP_OBS_NO_TRACE: every entry point folds to nothing.

inline bool trace_enabled() noexcept { return false; }
inline void start_trace() noexcept {}
inline void stop_trace() noexcept {}
inline void emit_span(const char*, double, const char* = nullptr,
                      std::int64_t = 0) noexcept {}
class Span {
 public:
  explicit Span(const char*, const char* = nullptr, std::int64_t = 0) noexcept {
  }
};
struct TraceScope {
  explicit TraceScope(const char*, double, const char* = nullptr,
                      std::int64_t = 0) noexcept {}
};
inline void write_chrome_trace(std::ostream&) {}
inline bool write_trace_file(const std::string&) { return true; }
inline std::uint64_t trace_span_count() noexcept { return 0; }

#endif  // SSP_OBS_NO_TRACE

}  // namespace ssp::obs
