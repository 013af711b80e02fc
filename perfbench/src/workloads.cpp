#include "workloads.hpp"

#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "la/kernels/kernels.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"
#include "util/parallel.hpp"

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"mesh", "network",
                                                 "partitioned", "updates"};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"setup_s", "s"},           {"op_ms_p50", "ms"},
      {"op_ms_tail", "ms"},       {"ops_per_s", "1/s"},
      {"input_edges_per_s", "edges/s"},
      {"edges_per_vertex", "ratio"},
      {"solve_iters", "count"},
      {"peak_rss_mb", "MiB"}};
  return m;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"engine.round_s", "s"},
      {"engine.rounds", "count"},
      {"engine.edges_added", "count"},
      {"engine.stage.backbone_s", "s"},
      {"engine.stage.solver-setup_s", "s"},
      {"engine.stage.spectral-estimate_s", "s"},
      {"engine.stage.embedding_s", "s"},
      {"engine.stage.filtering_s", "s"},
      {"engine.stage.final-estimate_s", "s"},
      {"graph.lp_assembly_s", "s"},
      {"tree.backbone_s", "s"},
      {"tree.solve_multi_s", "s"},
      {"tree.solves", "count"},
      {"tree.panel_columns", "count"},
      {"solver.pcg_solves", "count"},
      {"solver.pcg_iterations", "count"},
      {"solver.iters_per_solve", "ratio"},
      {"solver.pcg_breakdowns", "count"},
      {"solver.pcg_s", "s"},
      {"eigen.lambda_max_s", "s"},
      {"eigen.lambda_min_s", "s"},
      {"embedding.heat_s", "s"},
      {"embedding.vectors", "count"},
      {"filter.s", "s"},
      {"filter.pass_ratio", "ratio"},
      {"filter.accept_ratio", "ratio"},
      {"kernels.panel_spmv_s", "s"},
      {"kernels.panel_spmv_gbps_computed", "GB/s"},
      {"pool.busy_frac", "ratio"},
      {"pool.regions", "count"},
      {"pool.chunks", "count"},
      {"scale.stage.partition_s", "s"},
      {"scale.stage.extract_s", "s"},
      {"scale.stage.block-sparsify_s", "s"},
      {"scale.stage.cut-sparsify_s", "s"},
      {"scale.stage.stitch_s", "s"},
      {"scale.block_imbalance", "ratio"},
      {"scale.leaves", "count"},
      {"scale.leaf_s", "s"},
      {"storage.sspb_write_s", "s"},
      {"storage.mmap_open_s", "s"},
      {"storage.mmap_bytes", "B"},
      {"storage.release_pages", "count"},
      {"storage.checkpoint_saves", "count"},
      {"storage.checkpoint_bytes_written", "B"},
      {"dynamic.apply_s", "s"},
      {"dynamic.stage.validate_s", "s"},
      {"dynamic.stage.apply-graph_s", "s"},
      {"dynamic.stage.tree-repair_s", "s"},
      {"dynamic.stage.rebind_s", "s"},
      {"dynamic.stage.sparsify_s", "s"},
      {"dynamic.route.resparsify", "count"},
      {"dynamic.route.tree-repair", "count"},
      {"dynamic.route.rebuild", "count"},
      {"dynamic.tree_swaps", "count"},
      {"serve.request_ms", "ms"},
      {"serve.commit_server_us_p50", "us"},
      {"serve.overhead_ms", "ms"},
      {"serve.backpressure_rejections", "count"},
      {"serve.admission_rejections", "count"},
      {"obs.trace_overhead", "ratio"},
      {"kappa_ratio", "ratio"},
      {"false_claims", "count"},
      {"failed_frac", "ratio"}};
  return m;
}

WorkloadResult run_workload(const RunConfig& cfg) {
  WorkloadResult out;
  ssp::set_default_threads(cfg.workload == "partitioned" ? kScaleThreads
                                                         : kEngineThreads);
  ssp::obs::set_metrics_enabled(false);
  SpanStore::instance().set_enabled(false);
  SpanStore::instance().clear();
  out.note("workload", cfg.workload);
  out.note("seed", std::to_string(cfg.seed));
  out.note("seconds", std::to_string(cfg.seconds));
  out.note("trace", cfg.trace ? "1" : "0");
  out.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  out.note("engine_threads", std::to_string(kEngineThreads));
  out.note("pool_workers", std::to_string(ssp::global_pool().workers()));
  out.note("kernel_backend",
           ssp::kernels::backend_name(ssp::kernels::active_backend()));
  out.note("sigma2", std::to_string(kSigma2));

  if (cfg.workload == "mesh") {
    run_mesh(cfg, out);
  } else if (cfg.workload == "network") {
    run_network(cfg, out);
  } else if (cfg.workload == "partitioned") {
    run_partitioned(cfg, out);
  } else if (cfg.workload == "updates") {
    run_updates(cfg, out);
  } else {
    throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
  }
  out.set("failed_frac", ratio(static_cast<double>(out.failed),
                               static_cast<double>(out.attempted)),
          "ratio");
  return out;
}

}  // namespace perfbench
