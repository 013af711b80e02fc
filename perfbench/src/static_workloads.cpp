// The three read-only workloads: `mesh` and `network` drive the whole-graph
// engine on two graph families each; `partitioned` drives the scale and
// storage layers on a larger mesh proxy.
//
// Every input is generated from the run seed. A run makes several instances
// of each family and sparsifies them in passes until the window closes, so
// each timing is a median over distinct inputs (round counts differ between
// inputs, and one input alone would make the figure jump between seeds).
// Every instance's first output is checked structurally; later runs of the
// same instance must reproduce it bit for bit (the engine is deterministic
// for a fixed seed). Quality (κ, |Es|/|V|, PCG iterations) is measured once
// per instance after the window.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/edge_filter.hpp"
#include "core/eigen_estimate.hpp"
#include "core/embedding.hpp"
#include "core/sparsifier_engine.hpp"
#include "graph/generators/community.hpp"
#include "graph/generators/lattice.hpp"
#include "graph/generators/random_graphs.hpp"
#include "graph/laplacian.hpp"
#include "obs/metrics.hpp"
#include "scale/hierarchical_sparsifier.hpp"
#include "scale/partitioned_sparsifier.hpp"
#include "solver/pcg.hpp"
#include "solver/preconditioner.hpp"
#include "spans.hpp"
#include "speed_probe.hpp"
#include "storage/mapped_graph.hpp"
#include "storage/sspb_io.hpp"
#include "tree/akpw.hpp"
#include "tree/tree_solver.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using ssp::EdgeId;
using ssp::Graph;
using ssp::Index;
using ssp::Vertex;

struct Instance {
  std::string kind;
  Graph g;
  std::uint64_t engine_seed = 0;
};

/// What a workload generates: `per_kind` instances of each family.
struct Family {
  std::string kind;
  std::function<Graph(ssp::Rng&)> make;
};

std::vector<Instance> generate(const std::vector<Family>& families,
                               int per_kind, std::uint64_t seed) {
  std::vector<Instance> out;
  const ssp::Rng root(seed);
  std::uint64_t stream = 0;
  // Interleave families so a window that closes mid-pass still covers both.
  for (int i = 0; i < per_kind; ++i) {
    for (const Family& f : families) {
      ssp::Rng rng = root.split(stream);
      out.push_back({f.kind, f.make(rng), seed * 1000003ULL + stream});
      ++stream;
    }
  }
  return out;
}

ssp::SparsifyOptions engine_options(std::uint64_t seed) {
  return ssp::SparsifyOptions{}
      .with_sigma2(kSigma2)
      .with_seed(seed)
      .with_threads(kEngineThreads);
}

void note_sizes(const std::vector<Instance>& inst, WorkloadResult& out) {
  std::map<std::string, std::pair<double, double>> sums;
  std::map<std::string, int> counts;
  for (const Instance& i : inst) {
    sums[i.kind].first += static_cast<double>(i.g.num_vertices());
    sums[i.kind].second += static_cast<double>(i.g.num_edges());
    ++counts[i.kind];
  }
  for (const auto& [kind, s] : sums) {
    const int c = counts[kind];
    out.note("input." + kind,
             std::to_string(c) + " instances, mean |V|=" +
                 std::to_string(static_cast<long long>(s.first / c)) +
                 " |E|=" + std::to_string(static_cast<long long>(s.second / c)));
  }
}

/// First output of each instance (or instance × op kind) plus the quality
/// figures measured on it after the window.
struct OutputRecord {
  bool ran = false;
  std::uint64_t hash = 0;
  std::vector<EdgeId> edges;
  bool claims_target = false;
};

/// Structural check on the first output, bit-identity on later ones.
/// Returns false (after recording the failure) when the output is wrong.
bool check_output(const Graph& g, std::span<const EdgeId> edges,
                  std::span<const EdgeId> backbone, bool claims_target,
                  OutputRecord& rec, const std::string& label,
                  WorkloadResult& out) {
  if (!rec.ran) {
    const OutputCheck c = check_subgraph(g, edges, backbone);
    if (!c.ok()) {
      out.fail(label + ": " + c.error);
      return false;
    }
    rec.ran = true;
    rec.hash = c.hash;
    rec.edges.assign(edges.begin(), edges.end());
    rec.claims_target = claims_target;
    return true;
  }
  if (!std::equal(edges.begin(), edges.end(), rec.edges.begin(),
                  rec.edges.end())) {
    out.fail(label + ": output differs from the first run of the same input");
    return false;
  }
  return true;
}

/// Outputs whose quality is measured: the first kQualityOutputs in run
/// order, a set fixed by the seed (every run covers it unless the machine is
/// several times slower) and small enough to keep each run's checks short.
constexpr std::size_t kQualityOutputs = 128;

/// Quality of the first kQualityOutputs recorded outputs: edges_per_vertex,
/// kappa_ratio, solve_iters and false_claims (an output that claims the σ²
/// target while its independent κ exceeds it).
void quality_metrics(const std::vector<const Graph*>& graphs,
                     const std::vector<OutputRecord>& recs,
                     std::size_t first_outputs, WorkloadResult& out) {
  std::vector<double> epv, iters;
  double worst_kappa = 0.0;
  int false_claims = 0, exact = 0, estimated = 0;
  for (std::size_t i = 0; i < std::min(recs.size(), kQualityOutputs); ++i) {
    if (!recs[i].ran) continue;
    const Graph& g = *graphs[i];
    const Graph p = g.edge_subgraph(recs[i].edges);
    epv.push_back(static_cast<double>(recs[i].edges.size()) /
                  static_cast<double>(g.num_vertices()));
    try {
      const Kappa k = independent_kappa(g, p);
      (k.exact ? exact : estimated) += 1;
      worst_kappa = std::max(worst_kappa, k.value);
      if (recs[i].claims_target && k.value > kSigma2) ++false_claims;
      iters.push_back(solve_iterations(g, p));
    } catch (const std::exception& e) {
      out.fail("output " + std::to_string(i) + ": quality check: " + e.what());
    }
  }
  double mean_epv = 0.0;
  for (const double v : epv) mean_epv += v;
  mean_epv = ratio(mean_epv, static_cast<double>(epv.size()));
  out.set("edges_per_vertex", mean_epv, "ratio");
  // FNV-1a over the edge-list hashes of the first input of each kind (the
  // ones every run covers): equal seeds must print equal hashes on every
  // machine, thread count and kernel backend.
  std::uint64_t combined = 14695981039346656037ULL;
  for (std::size_t i = 0; i < first_outputs && i < recs.size(); ++i) {
    combined = (combined ^ recs[i].hash) * 1099511628211ULL;
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(combined));
  out.note("output_hash", hex);
  out.set("kappa_ratio", worst_kappa / kSigma2, "ratio");
  out.set("solve_iters", median(iters), "count");
  out.set("false_claims", false_claims, "count");
  out.note("kappa.oracle", std::to_string(exact) + " dense (exact), " +
                               std::to_string(estimated) +
                               " estimate_sparsifier_quality (estimate)");
}

/// Median over `repeats` runs of `setup`, each at reference speed.
double setup_median(SpeedProbe& probe, int repeats, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int r = 0; r < repeats; ++r) {
    const double before = probe.run();
    Span s("setup");
    setup();
    const double secs = s.close();
    times.push_back(SpeedProbe::normalize(secs, before, probe.run()));
  }
  return median(times);
}

double elapsed_since(std::int64_t start_ns) {
  return 1e-9 * static_cast<double>(SpanStore::instance().now_ns() - start_ns);
}

void enable_tracing() {
  SpanStore::instance().set_enabled(true);
  ssp::obs::set_metrics_enabled(true);
}

// ---- Engine workloads (mesh, network) -------------------------------------

/// Per-layer sums over the traced engine ops.
struct EngineTrace {
  int ops = 0;
  double rounds = 0.0;
  double edges_added = 0.0;
  double op_seconds = 0.0;
  RegistryDelta reg;
  std::map<std::string, std::vector<double>> stage_seconds;  // per op
  std::vector<double> pass_ratio, accept_ratio, vectors, spmv_gbps;
};

constexpr const char* kStages[] = {"backbone",  "solver-setup",
                                   "spectral-estimate", "embedding",
                                   "filtering", "final-estimate"};

/// Calls each inner layer's public entry point once on an op's input, the
/// way one engine round does, under its own span: the first round on the
/// tree-only sparsifier (λ estimates, embedding, filter, tree solves, panel
/// SpMV), then L_P assembly and one PCG solve on the op's final sparsifier.
void replay_layers(const Graph& g, const ssp::SparsifyResult& res,
                   std::uint64_t seed, EngineTrace& tr) {
  ssp::Rng rng(seed);
  {
    Span s("tree.backbone");
    const ssp::SpanningTree t = ssp::akpw_low_stretch_tree(g, rng);
  }
  const ssp::SpanningTree tree(g, res.tree_edges);
  const ssp::TreeSolver tree_solver(tree);
  const ssp::CsrMatrix lg = ssp::laplacian(g);
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const Index r = std::max<Index>(
      1, static_cast<Index>(std::ceil(std::log2(static_cast<double>(n)))));
  std::vector<double> panel_b(n * static_cast<std::size_t>(r));
  std::vector<double> panel_x(panel_b.size());
  for (double& v : panel_b) v = rng.uniform() - 0.5;
  {
    Span s("tree.solve_multi");
    tree_solver.solve_multi(panel_b, panel_x, r);
  }
  {
    Span s("kernels.panel_spmv");
    lg.multiply_panel(panel_x, panel_b, r);
    const double secs = s.close();
    // Computed bytes: CSR arrays once, gathered x rows and written y rows.
    const double nnz = static_cast<double>(lg.nnz());
    const double bytes =
        nnz * (sizeof(double) + sizeof(Index)) +
        static_cast<double>(n + 1) * sizeof(Index) +
        (nnz + static_cast<double>(n)) * static_cast<double>(r) *
            sizeof(double);
    tr.spmv_gbps.push_back(ratio(bytes, secs) * 1e-9);
  }

  std::vector<char> in_tree(static_cast<std::size_t>(g.num_edges()), 0);
  for (const EdgeId e : res.tree_edges) in_tree[static_cast<std::size_t>(e)] = 1;
  const ssp::LinOp tree_op = ssp::make_tree_solver_op(tree_solver);
  const ssp::PanelOp tree_panel = ssp::make_tree_solver_panel_op(tree_solver);
  double lmin = 0.0, lmax = 0.0;
  {
    Span s("eigen.lambda_min");
    lmin = ssp::estimate_lambda_min_node_coloring(g, in_tree);
  }
  {
    Span s("eigen.lambda_max");
    lmax = ssp::estimate_lambda_max_power(lg, tree_op, rng, 10);
  }
  lmax = std::max(lmax, 1.0);
  lmin = std::clamp(lmin, 1.0, lmax);
  ssp::EmbeddingWorkspace ws;
  ssp::OffTreeEmbedding emb;
  {
    Span s("embedding.heat");
    ssp::compute_offtree_heat(g, lg, in_tree, tree_op,
                              {.power_steps = 2, .num_vectors = 0,
                               .threads = kEngineThreads},
                              rng, ws, emb, tree_panel);
  }
  tr.vectors.push_back(static_cast<double>(emb.num_vectors));
  const double theta = ssp::heat_threshold(kSigma2, lmin, lmax, 2);
  std::vector<EdgeId> picked;
  {
    Span s("filter");
    const EdgeId cap = std::max<EdgeId>(64, static_cast<EdgeId>(n) / 16);
    picked = ssp::filter_offtree_edges(
        g, emb, theta,
        {.similarity = ssp::SimilarityPolicy::kNodeDisjoint, .max_edges = cap});
  }
  const double cut = theta * emb.heat_max;
  const auto survivors = static_cast<double>(
      std::count_if(emb.heat.begin(), emb.heat.end(),
                    [&](double h) { return h >= cut; }));
  tr.pass_ratio.push_back(
      ratio(survivors, static_cast<double>(emb.offtree_edges.size())));
  tr.accept_ratio.push_back(ratio(static_cast<double>(picked.size()), survivors));

  ssp::CsrMatrix lp;
  {
    Span s("graph.lp_assembly");
    lp = ssp::laplacian(g.edge_subgraph(res.edges));
  }
  const ssp::TreePreconditioner precond(tree);
  std::vector<double> b(n), x(n, 0.0);
  double mean = 0.0;
  for (double& v : b) mean += (v = rng.uniform() - 0.5);
  for (double& v : b) v -= mean / static_cast<double>(n);
  {
    Span s("solver.pcg");
    (void)ssp::pcg_solve(lp, b, x, precond,
                         {.max_iterations = 500, .rel_tolerance = 1e-4,
                          .project_constants = true});
  }
}

void engine_layer_metrics(const EngineTrace& tr, WorkloadResult& out) {
  const SpanStore& store = SpanStore::instance();
  const double ops = std::max(1, tr.ops);
  out.set("engine.round_s", median(store.seconds_of("engine.step")), "s");
  out.set("engine.rounds", tr.rounds / ops, "count");
  out.set("engine.edges_added", tr.edges_added / ops, "count");
  for (const char* stage : kStages) {
    const auto it = tr.stage_seconds.find(stage);
    out.set(std::string("engine.stage.") + stage + "_s",
            it == tr.stage_seconds.end() ? 0.0 : median(it->second), "s");
  }
  out.set("graph.lp_assembly_s", median(store.seconds_of("graph.lp_assembly")), "s");
  out.set("tree.backbone_s", median(store.seconds_of("tree.backbone")), "s");
  out.set("tree.solve_multi_s", median(store.seconds_of("tree.solve_multi")), "s");
  out.set("tree.solves", tr.reg.get("solver.tree.solves") / ops, "count");
  out.set("tree.panel_columns", tr.reg.get("solver.tree.panel_columns") / ops, "count");
  const double solves = tr.reg.get("solver.pcg.solves");
  const double iterations = tr.reg.get("solver.pcg.iterations");
  out.set("solver.pcg_solves", solves / ops, "count");
  out.set("solver.pcg_iterations", iterations / ops, "count");
  out.set("solver.iters_per_solve", ratio(iterations, solves), "ratio");
  out.set("solver.pcg_breakdowns", tr.reg.get("solver.pcg.breakdowns") / ops, "count");
  out.set("solver.pcg_s", median(store.seconds_of("solver.pcg")), "s");
  out.set("eigen.lambda_max_s", median(store.seconds_of("eigen.lambda_max")), "s");
  out.set("eigen.lambda_min_s", median(store.seconds_of("eigen.lambda_min")), "s");
  out.set("embedding.heat_s", median(store.seconds_of("embedding.heat")), "s");
  out.set("embedding.vectors", median(tr.vectors), "count");
  out.set("filter.s", median(store.seconds_of("filter")), "s");
  out.set("filter.pass_ratio", median(tr.pass_ratio), "ratio");
  out.set("filter.accept_ratio", median(tr.accept_ratio), "ratio");
  out.set("kernels.panel_spmv_s", median(store.seconds_of("kernels.panel_spmv")), "s");
  out.set("kernels.panel_spmv_gbps_computed", median(tr.spmv_gbps), "GB/s");
}

/// Pool utilisation over the traced ops: Σ worker busy time ÷ (workers ×
/// wall time of the ops), plus regions and chunks per op.
void pool_metrics(const RegistryDelta& reg, double op_seconds, int ops,
                  WorkloadResult& out) {
  const int workers = ssp::global_pool().workers();
  out.set("pool.busy_frac",
          ratio(1e-9 * reg.sum_matching("pool.worker.", ".busy_ns"),
                workers * op_seconds),
          "ratio");
  out.set("pool.regions", reg.get("pool.regions") / std::max(1, ops), "count");
  out.set("pool.chunks", reg.get("pool.chunks") / std::max(1, ops), "count");
}

/// How an op is run: timed into the end-to-end samples, traced (spans,
/// registry deltas, layer replay), or only re-run to confirm that the same
/// input reproduces its first output.
enum class Mode { kTimed, kTraced, kRecheck };

/// Runs `op(i)` on inputs 0, 1, 2, … — each op on the next input, wrapping
/// around only once every input ran — until `seconds` have elapsed.
void run_window(std::size_t inputs, double seconds,
                const std::function<void(std::size_t)>& op) {
  const std::int64_t start = SpanStore::instance().now_ns();
  std::size_t n = 0;
  do {
    op(n++ % inputs);
  } while (elapsed_since(start) < seconds);
}

/// Re-runs the first input of every kind outside the window.
void recheck_first_of_each_kind(const std::vector<Instance>& inst,
                                const std::function<void(std::size_t)>& op) {
  std::vector<std::string> seen;
  for (std::size_t i = 0; i < inst.size(); ++i) {
    if (std::find(seen.begin(), seen.end(), inst[i].kind) != seen.end()) continue;
    seen.push_back(inst[i].kind);
    op(i);
  }
}

/// Median over inputs run in both phases of traced ÷ untraced op time, − 1.
double trace_overhead(const std::vector<std::vector<double>>& untraced,
                      const std::vector<std::vector<double>>& traced) {
  std::vector<double> r;
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    if (!untraced[i].empty() && !traced[i].empty()) {
      r.push_back(median(traced[i]) / median(untraced[i]));
    }
  }
  return median(r) - 1.0;
}

/// End-to-end timing metrics from samples at reference speed (`op_wall` is
/// their sum); the raw wall-clock medians and probe times go to the context.
void report_timing(const KindSamples& samples, const KindSamples& raw,
                   const std::vector<double>& probe_seconds, double work_edges,
                   double op_wall, WorkloadResult& out) {
  out.set("op_ms_p50", 1e3 * samples.median_of_kinds(), "ms");
  out.set("op_ms_tail", 1e3 * samples.tail_of_kinds(), "ms");
  out.set("ops_per_s", per_second(static_cast<double>(samples.count()), op_wall), "1/s");
  out.set("input_edges_per_s", per_second(work_edges, op_wall), "edges/s");
  for (const auto& [kind, v] : samples.by_kind()) {
    const TailPoint t = planned_tail(v, samples.tail_percentile(kind));
    out.note("ops." + kind, std::to_string(v.size()) + " ops, p50 " +
                                std::to_string(1e3 * median(v)) + " ms, p" +
                                std::to_string(t.percentile) + " " +
                                std::to_string(1e3 * t.value) + " ms (" +
                                std::to_string(t.beyond) + " beyond), raw wall p50 " +
                                std::to_string(1e3 * median(raw.by_kind().at(kind))) + " ms");
  }
  out.note("probe.ms_p50", std::to_string(1e3 * median(probe_seconds)) + " (reference " +
                               std::to_string(1e3 * SpeedProbe::kReferenceSeconds) + ")");
}

void run_engine_workload(const RunConfig& cfg, const std::vector<Family>& families,
                         int per_kind, WorkloadResult& out) {
  SpeedProbe probe;
  std::vector<Instance> inst;
  out.set("setup_s",
          setup_median(probe, kSetupRepeats,
                       [&] {
                         inst.clear();  // one input pool alive at a time
                         inst = generate(families, per_kind, cfg.seed);
                       }),
          "s");
  note_sizes(inst, out);

  std::vector<OutputRecord> recs(inst.size());
  KindSamples samples, raw_samples;
  std::vector<double> probe_seconds;
  std::vector<std::vector<double>> untraced_by_inst(inst.size()),
      traced_by_inst(inst.size());
  double edges_done = 0.0, op_wall = 0.0;
  EngineTrace tr;

  auto run_op = [&](std::size_t i, Mode mode) {
    const Instance& in = inst[i];
    const bool tracing = mode == Mode::kTraced;
    ++out.attempted;
    try {
      const double probe_before = mode == Mode::kRecheck ? 0.0 : probe.run();
      OpScope op;
      Span op_span("engine.sparsify");
      ssp::Sparsifier engine(in.g, engine_options(in.engine_seed));
      RegistryDelta op_reg;
      while (!engine.done()) {
        if (tracing) {
          const RegistrySnapshot before = RegistrySnapshot::take();
          {
            Span step("engine.step");
            engine.step();
          }
          op_reg.accumulate(RegistryDelta(before, RegistrySnapshot::take()));
        } else {
          engine.step();
        }
      }
      const double raw = op_span.close();
      const double probe_after = mode == Mode::kRecheck ? 0.0 : probe.run();
      const double secs = SpeedProbe::normalize(raw, probe_before, probe_after);
      const ssp::SparsifyResult& res = engine.result();
      if (!check_output(in.g, res.edges, res.tree_edges, res.reached_target,
                        recs[i], in.kind + " instance " + std::to_string(i),
                        out)) {
        return;
      }
      if (mode == Mode::kTimed) {
        samples.add(in.kind, secs);
        raw_samples.add(in.kind, raw);
        probe_seconds.push_back(0.5 * (probe_before + probe_after));
        untraced_by_inst[i].push_back(secs);
        edges_done += static_cast<double>(in.g.num_edges());
        op_wall += secs;
      } else if (tracing) {
        traced_by_inst[i].push_back(secs);
        ++tr.ops;
        tr.op_seconds += raw;
        tr.rounds += static_cast<double>(engine.rounds_completed());
        tr.edges_added += static_cast<double>(res.edges.size() - res.tree_edges.size());
        for (const char* stage : kStages) {
          tr.stage_seconds[stage].push_back(
              1e-9 * op_reg.get(std::string("engine.stage.") + stage + ".ns"));
        }
        tr.reg.accumulate(op_reg);
        replay_layers(in.g, res, in.engine_seed, tr);
      }
    } catch (const std::exception& e) {
      out.fail(in.kind + " instance " + std::to_string(i) + ": " + e.what());
    }
  };
  const auto timed = [&](std::size_t i) { run_op(i, Mode::kTimed); };

  if (!cfg.trace) {
    const double rss_start = begin_rss_window(out);
    run_window(inst.size(), cfg.seconds, timed);
    end_rss_window(rss_start, out);
    report_timing(samples, raw_samples, probe_seconds, edges_done, op_wall, out);
  } else {
    // First half untraced (the overhead baseline), second half traced, both
    // from the first input on so the two phases pair up by input.
    run_window(inst.size(), cfg.seconds / 2, timed);
    enable_tracing();
    run_window(inst.size(), cfg.seconds / 2, [&](std::size_t i) { run_op(i, Mode::kTraced); });
    engine_layer_metrics(tr, out);
    pool_metrics(tr.reg, tr.op_seconds, tr.ops, out);
    out.set("obs.trace_overhead", trace_overhead(untraced_by_inst, traced_by_inst), "ratio");
  }
  recheck_first_of_each_kind(inst, [&](std::size_t i) { run_op(i, Mode::kRecheck); });

  std::vector<const Graph*> graphs;
  for (const Instance& i : inst) graphs.push_back(&i.g);
  quality_metrics(graphs, recs, families.size(), out);
}

// Graph families. The mesh proxies follow the repo's G3_circuit (grid,
// conductances over two decades) and thermal2 (triangulated grid) stand-ins;
// the network proxies its dblp (preferential attachment) and a dense
// planted-community graph (~45 edges per vertex) for appu/RCV.
/// Sizes are drawn per instance from [lo, hi], so each family's op times
/// form a continuous spread instead of a few round-count clusters whose
/// boundary the median could flip across from run to run.
Vertex draw_size(ssp::Rng& rng, Vertex lo, Vertex hi) {
  return lo + static_cast<Vertex>(rng.uniform_int(0, hi - lo));
}

Family grid_family(Vertex lo, Vertex hi) {
  return {"grid2d", [=](ssp::Rng& rng) {
            const Vertex side = draw_size(rng, lo, hi);
            return ssp::grid_2d(side, side,
                                ssp::WeightModel::log_uniform(0.1, 10.0), &rng);
          }};
}

Family tri_family(Vertex lo, Vertex hi) {
  return {"tri", [=](ssp::Rng& rng) {
            const Vertex side = draw_size(rng, lo, hi);
            return ssp::triangulated_grid(side, side,
                                          ssp::WeightModel::uniform(0.5, 2.0),
                                          &rng);
          }};
}

Family ba_family(Vertex lo, Vertex hi) {
  return {"ba", [=](ssp::Rng& rng) {
            return ssp::barabasi_albert(draw_size(rng, lo, hi), 3, rng);
          }};
}

Family planted_family(Vertex lo, Vertex hi) {
  return {"planted", [=](ssp::Rng& rng) {
            const Vertex n = draw_size(rng, lo, hi);
            return ssp::planted_partition(n, std::max<Vertex>(2, n / 256), 0.25,
                                          0.005, rng,
                                          ssp::WeightModel::uniform(0.5, 2.0));
          }};
}

}  // namespace

void run_mesh(const RunConfig& cfg, WorkloadResult& out) {
  if (cfg.smoke) {
    run_engine_workload(cfg, {grid_family(16, 16), tri_family(12, 12)}, 1, out);
  } else {
    run_engine_workload(cfg, {grid_family(32, 44), tri_family(24, 34)}, 256, out);
  }
}

void run_network(const RunConfig& cfg, WorkloadResult& out) {
  if (cfg.smoke) {
    run_engine_workload(cfg, {ba_family(300, 300), planted_family(256, 256)}, 1, out);
  } else {
    run_engine_workload(cfg, {ba_family(1000, 2000), planted_family(640, 768)}, 64, out);
  }
}

// ---- partitioned -----------------------------------------------------------

/// Set-up repetitions of `partitioned`. Its set-up writes one `.sspb` per
/// input, each ending in a synchronous msync whose latency varies far more
/// than the rest of set-up, so it takes a median over more repetitions.
constexpr int kSspbSetupRepeats = 9;

void run_partitioned(const RunConfig& cfg, WorkloadResult& out) {
  const Vertex lo = cfg.smoke ? 24 : 48;
  const Vertex hi = cfg.smoke ? 24 : 64;
  const int instances = cfg.smoke ? 1 : 64;
  const Family mesh = grid_family(lo, hi);
  std::vector<Instance> inst;
  std::vector<std::string> sspb_paths;
  std::vector<double> write_seconds;
  SpeedProbe probe;
  out.set("setup_s", setup_median(probe, kSspbSetupRepeats, [&] {
            inst.clear();
            inst = generate({mesh}, instances, cfg.seed);
            sspb_paths.clear();
            for (std::size_t i = 0; i < inst.size(); ++i) {
              sspb_paths.push_back(cfg.work_dir + "/mesh" + std::to_string(i) + ".sspb");
              Span w("storage.sspb_write");
              ssp::storage::write_sspb(sspb_paths.back(), ssp::GraphView(inst[i].g));
              write_seconds.push_back(w.close());
            }
          }),
          "s");
  note_sizes(inst, out);

  // Budget for about four leaves of a mid-size mesh.
  const Vertex mid = (lo + hi) / 2;
  const std::uint64_t budget = ssp::HierarchicalSparsifier::estimate_subgraph_bytes(
                                   mid * mid, 4ULL * mid * (mid - 1)) /
                               4;
  out.note("hierarchical.budget_bytes", std::to_string(budget));

  // Op j runs input j / 2 through the partitioned (even j) or the
  // hierarchical (odd j, from the input's mmap'd copy) sparsifier.
  const std::size_t ops_per_pass = inst.size() * 2;
  std::vector<OutputRecord> recs(ops_per_pass);
  KindSamples samples, raw_samples;
  std::vector<double> probe_seconds;
  std::vector<std::vector<double>> untraced_by_op(ops_per_pass), traced_by_op(ops_per_pass);
  double edges_done = 0.0, op_wall = 0.0, traced_wall = 0.0;
  int traced_ops = 0;
  RegistryDelta reg;
  std::vector<double> imbalance, leaves, leaf_seconds;
  std::map<std::string, std::vector<double>> scale_stage, engine_stage;
  constexpr const char* kScaleStages[] = {"partition", "extract", "block-sparsify",
                                          "cut-sparsify", "stitch"};

  auto run_op = [&](std::size_t j, Mode mode) {
    const bool hierarchical = j % 2 == 1;
    const std::size_t input = j / 2;
    const Instance& in = inst[input];
    OutputRecord& rec = recs[j];
    const bool tracing = mode == Mode::kTraced;
    const std::string label = std::string(hierarchical ? "hierarchical" : "partitioned") +
                              " instance " + std::to_string(input);
    ++out.attempted;
    try {
      const double probe_before = mode == Mode::kRecheck ? 0.0 : probe.run();
      OpScope op;
      const RegistrySnapshot before = tracing ? RegistrySnapshot::take() : RegistrySnapshot{};
      Span op_span(hierarchical ? "scale.hierarchical" : "scale.partitioned");
      std::vector<EdgeId> edges;
      if (!hierarchical) {
        ssp::PartitionedSparsifier ps(
            in.g, ssp::PartitionedOptions{}
                      .with_partitions(4)
                      .with_cut_policy(ssp::CutPolicy::kFilter)
                      .with_block_options(engine_options(in.engine_seed))
                      .with_threads(kScaleThreads));
        const ssp::PartitionedResult& r = ps.run();
        edges = r.edges;
        if (tracing) {
          double max_s = 0.0, sum_s = 0.0;
          for (const ssp::BlockStats& b : r.block_stats) {
            max_s = std::max(max_s, b.seconds);
            sum_s += b.seconds;
          }
          imbalance.push_back(ratio(max_s, sum_s / static_cast<double>(r.block_stats.size())));
        }
      } else {
        std::unique_ptr<ssp::storage::MappedGraph> mg;
        {
          Span open("storage.mmap_open");
          mg = std::make_unique<ssp::storage::MappedGraph>(sspb_paths[input]);
        }
        ssp::HierarchicalSparsifier hs(
            mg->view(), ssp::HierarchicalOptions{}
                            .with_memory_budget_bytes(budget)
                            .with_block_options(engine_options(in.engine_seed))
                            .with_threads(kScaleThreads));
        hs.set_release_hook([&] { mg->release_pages(); });
        const ssp::HierarchicalResult& r = hs.run();
        edges = r.edges;
        if (tracing) {
          leaves.push_back(static_cast<double>(r.leaves));
          for (const ssp::BlockStats& b : r.leaf_stats) leaf_seconds.push_back(b.seconds);
        }
      }
      const double raw = op_span.close();
      const double probe_after = mode == Mode::kRecheck ? 0.0 : probe.run();
      const double secs = SpeedProbe::normalize(raw, probe_before, probe_after);
      // The mmap'd file holds the heap graph's edges in the same order, so
      // both sparsifiers' edge ids index the heap graph.
      if (!check_output(in.g, edges, {}, false, rec, label, out)) return;
      if (mode == Mode::kTimed) {
        samples.add(hierarchical ? "hierarchical" : "partitioned", secs);
        raw_samples.add(hierarchical ? "hierarchical" : "partitioned", raw);
        probe_seconds.push_back(0.5 * (probe_before + probe_after));
        untraced_by_op[j].push_back(secs);
        edges_done += static_cast<double>(in.g.num_edges());
        op_wall += secs;
      } else if (tracing) {
        traced_by_op[j].push_back(secs);
        traced_wall += raw;
        ++traced_ops;
        const RegistryDelta d(before, RegistrySnapshot::take());
        if (!hierarchical) {
          for (const char* stage : kScaleStages) {
            scale_stage[stage].push_back(1e-9 * d.get(std::string("scale.stage.") + stage + ".ns"));
          }
        }
        for (const char* stage : kStages) {
          engine_stage[stage].push_back(1e-9 * d.get(std::string("engine.stage.") + stage + ".ns"));
        }
        reg.accumulate(d);
      }
    } catch (const std::exception& e) {
      out.fail(label + ": " + e.what());
    }
  };
  const auto timed = [&](std::size_t j) { run_op(j, Mode::kTimed); };

  if (!cfg.trace) {
    const double rss_start = begin_rss_window(out);
    run_window(ops_per_pass, cfg.seconds, timed);
    end_rss_window(rss_start, out);
    report_timing(samples, raw_samples, probe_seconds, edges_done, op_wall, out);
  } else {
    run_window(ops_per_pass, cfg.seconds / 2, timed);
    enable_tracing();
    run_window(ops_per_pass, cfg.seconds / 2, [&](std::size_t j) { run_op(j, Mode::kTraced); });
    const SpanStore& store = SpanStore::instance();
    for (const char* stage : kScaleStages) {
      out.set(std::string("scale.stage.") + stage + "_s", median(scale_stage[stage]), "s");
    }
    for (const char* stage : kStages) {
      out.set(std::string("engine.stage.") + stage + "_s", median(engine_stage[stage]), "s");
    }
    // Block engines build their backbones inside the scale layer, so the
    // backbone figure here is the registry's per-op backbone stage time.
    out.set("tree.backbone_s", median(engine_stage["backbone"]), "s");
    out.set("scale.block_imbalance", median(imbalance), "ratio");
    out.set("scale.leaves", median(leaves), "count");
    out.set("scale.leaf_s", median(leaf_seconds), "s");
    out.set("storage.sspb_write_s", median(write_seconds), "s");
    out.set("storage.mmap_open_s", median(store.seconds_of("storage.mmap_open")), "s");
    const double ops = std::max(1, traced_ops);
    out.set("storage.mmap_bytes", reg.get("storage.mmap.bytes") / ops, "B");
    out.set("storage.release_pages", reg.get("storage.mmap.release_pages") / ops, "count");
    const double solves = reg.get("solver.pcg.solves");
    const double iterations = reg.get("solver.pcg.iterations");
    out.set("solver.pcg_solves", solves / ops, "count");
    out.set("solver.pcg_iterations", iterations / ops, "count");
    out.set("solver.iters_per_solve", ratio(iterations, solves), "ratio");
    out.set("engine.rounds", reg.get("engine.rounds") / ops, "count");
    out.set("engine.edges_added", reg.get("engine.filter.edges_added") / ops, "count");
    pool_metrics(reg, traced_wall, traced_ops, out);
    out.set("obs.trace_overhead", trace_overhead(untraced_by_op, traced_by_op), "ratio");
  }
  run_op(0, Mode::kRecheck);
  run_op(1, Mode::kRecheck);

  std::vector<const Graph*> graphs;
  for (std::size_t j = 0; j < ops_per_pass; ++j) graphs.push_back(&inst[j / 2].g);
  quality_metrics(graphs, recs, 2, out);
  for (const std::string& p : sspb_paths) std::filesystem::remove(p);
}

}  // namespace perfbench
