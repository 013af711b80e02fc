#pragma once

/// \file workloads.hpp
/// The four workloads of the repo benchmark. Each runs from one process
/// through libssp's public API, times its operations for `seconds`, checks
/// every output, and fills a WorkloadResult with the end-to-end metrics
/// (untraced run) or the per-layer metrics (traced run).

#include <cstdint>
#include <string>

#include "measure.hpp"

namespace perfbench {

/// Engine worker threads for every workload (a fixed count so that runs
/// compare; the engine's output does not depend on it). One, because a
/// multi-threaded op on a shared host waits on whichever core is slowest.
inline constexpr int kEngineThreads = 1;
/// Concurrent block/leaf engines in `partitioned` (each single-threaded):
/// two put the pool layer under load without claiming every core of a
/// shared host. It is also that workload's process-wide pool size.
inline constexpr int kScaleThreads = 2;
/// σ² target of every sparsification.
inline constexpr double kSigma2 = 100.0;
/// Set-up repetitions whose median is reported as setup_s: five for mesh
/// and network (set-up is input generation, well under a second) and for
/// `updates` (each is a server start plus twenty session opens, ~2 s);
/// `partitioned` takes more (kSspbSetupRepeats, static_workloads.cpp).
inline constexpr int kSetupRepeats = 5;
inline constexpr int kServeSetupRepeats = 5;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes and a short window: the self-test's end-to-end smoke mode.
  bool smoke = false;
  /// Directory inside the checkout for files the run writes.
  std::string work_dir;
};

void run_mesh(const RunConfig& cfg, WorkloadResult& out);
void run_network(const RunConfig& cfg, WorkloadResult& out);
void run_partitioned(const RunConfig& cfg, WorkloadResult& out);
void run_updates(const RunConfig& cfg, WorkloadResult& out);

/// Runs `cfg.workload`, adds the shared context (nproc, threads, kernel
/// backend, seed) and the peak RSS, and writes the span file of a traced
/// run. Throws std::invalid_argument for an unknown workload name.
WorkloadResult run_workload(const RunConfig& cfg);

/// Names of the workloads, the end-to-end metrics and the per-layer
/// metrics every run prints (with --trace 0 and --trace 1 respectively).
[[nodiscard]] const std::vector<std::string>& workload_names();
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
end_to_end_metrics();
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

}  // namespace perfbench
