// ssp_perfbench — the repo benchmark binary. Runs one workload from one
// process through libssp's public API and prints, as its last stdout line,
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Lines before it ("# key = value") record the run context.
// A traced run also writes its spans as chrome://tracing JSON.
//
//   ssp_perfbench --workload mesh|network|partitioned|updates --seed N
//                 --seconds S --trace 0|1 [--out-dir DIR]
//   ssp_perfbench --list     # workload and metric names with units
//
// Exit status: 0 when every output check passed, 1 when one failed, 2 on
// a usage error.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "spans.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "ssp_perfbench: %s\nusage: ssp_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string out_dir = ".bench_build/perfbench-out";
  bool have_workload = false;
  if (argc == 2 && std::string(argv[1]) == "--list") {
    std::printf("workloads");
    for (const std::string& w : perfbench::workload_names()) std::printf(" %s", w.c_str());
    std::printf("\nend_to_end");
    for (const auto& [name, unit] : perfbench::end_to_end_metrics()) {
      std::printf(" %s:%s", name.c_str(), unit.c_str());
    }
    std::printf("\nper_layer");
    for (const auto& [name, unit] : perfbench::per_layer_metrics()) {
      std::printf(" %s:%s", name.c_str(), unit.c_str());
    }
    std::printf("\n");
    return 0;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      cfg.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      cfg.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--out-dir") {
      out_dir = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");

  cfg.work_dir = out_dir + "/work-" + cfg.workload + "-" + std::to_string(::getpid());
  std::filesystem::create_directories(cfg.work_dir);

  perfbench::WorkloadResult r;
  try {
    r = perfbench::run_workload(cfg);
  } catch (const std::invalid_argument& e) {
    std::filesystem::remove_all(cfg.work_dir);
    return usage(e.what());
  } catch (const std::exception& e) {
    r.fail(std::string("workload aborted: ") + e.what());
  }
  std::filesystem::remove_all(cfg.work_dir);

  if (cfg.trace) {
    const std::string trace_path =
        out_dir + "/trace-" + cfg.workload + "-seed" + std::to_string(cfg.seed) + ".json";
    if (perfbench::SpanStore::instance().write_chrome(trace_path)) {
      r.note("trace_file", trace_path);
    } else {
      r.fail("cannot write " + trace_path);
    }
  }

  // Keep exactly the metrics of this mode, in their declared order. A
  // per-layer metric of a layer this workload does not exercise reads 0;
  // a missing end-to-end metric is an error.
  perfbench::WorkloadResult printed;
  printed.attempted = r.attempted;
  printed.failed = r.failed;
  const auto& wanted = cfg.trace ? perfbench::per_layer_metrics()
                                 : perfbench::end_to_end_metrics();
  bool complete = true;
  for (const auto& [name, unit] : wanted) {
    const perfbench::Metric* m = r.find(name);
    if (m == nullptr && !cfg.trace) {
      std::fprintf(stderr, "ssp_perfbench: metric %s missing\n", name.c_str());
      complete = false;
    }
    printed.set(name, m == nullptr ? 0.0 : m->value, unit);
  }

  for (const auto& [key, value] : r.context) {
    std::printf("# %s = %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "ssp_perfbench: FAILED: %s\n", f.c_str());
  }
  const bool correct = r.failed == 0 && r.attempted > 0 && complete;
  std::cout << perfbench::result_json(printed, correct) << std::endl;
  return correct ? 0 : 1;
}
