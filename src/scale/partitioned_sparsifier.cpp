#include "scale/partitioned_sparsifier.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "graph/connectivity.hpp"
#include "graph/subgraph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scale/component_tasks.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"
#include "util/union_find.hpp"

namespace ssp {

// The per-component engine machinery (ComponentTask, make_tasks,
// run_tasks, fold_stats, the tree-verbatim fast path, and the
// seed-derivation contract) is shared with the out-of-core driver —
// see scale/component_tasks.hpp.
using scale_detail::ComponentTask;
using scale_detail::fold_stats;
using scale_detail::make_tasks;
using scale_detail::run_tasks;

// ---- PartitionedOptions ----------------------------------------------------

void PartitionedOptions::validate() const {
  SSP_REQUIRE(partitions >= 1, "PartitionedOptions: partitions must be >= 1");
  SSP_REQUIRE(threads >= 0, "PartitionedOptions: threads must be >= 0");
  block.validate();
  if (cut.has_value()) cut->validate();
}

PartitionedOptions& PartitionedOptions::with_partitions(Index k) {
  SSP_REQUIRE(k >= 1, "PartitionedOptions: partitions must be >= 1");
  partitions = k;
  return *this;
}

PartitionedOptions& PartitionedOptions::with_cut_policy(CutPolicy policy) {
  cut_policy = policy;
  return *this;
}

PartitionedOptions& PartitionedOptions::with_block_options(
    SparsifyOptions opts) {
  opts.validate();
  block = std::move(opts);
  return *this;
}

PartitionedOptions& PartitionedOptions::with_cut_options(SparsifyOptions opts) {
  opts.validate();
  cut = std::move(opts);
  return *this;
}

PartitionedOptions& PartitionedOptions::with_threads(int n) {
  SSP_REQUIRE(n >= 0, "PartitionedOptions: threads must be >= 0");
  threads = n;
  return *this;
}

PartitionedOptions& PartitionedOptions::with_estimate_quality(bool on) {
  estimate_quality = on;
  return *this;
}

PartitionedOptions& PartitionedOptions::with_rescale(bool on) {
  rescale = on;
  return *this;
}

// ---- PartitionedSparsifier -------------------------------------------------

PartitionedSparsifier::PartitionedSparsifier(const Graph& g,
                                             PartitionedOptions opts)
    : g_(&g), opts_(std::move(opts)) {
  SSP_REQUIRE(g.finalized(),
              "PartitionedSparsifier: graph must be finalized");
  SSP_REQUIRE(g.num_vertices() >= 1,
              "PartitionedSparsifier: graph must be non-empty");
  opts_.validate();
}

PartitionedSparsifier::PartitionedSparsifier(const Graph& g,
                                             std::vector<Vertex> assignment,
                                             PartitionedOptions opts)
    : g_(&g), opts_(std::move(opts)) {
  SSP_REQUIRE(g.finalized(),
              "PartitionedSparsifier: graph must be finalized");
  SSP_REQUIRE(g.num_vertices() >= 1,
              "PartitionedSparsifier: graph must be non-empty");
  opts_.validate();
  SSP_REQUIRE(
      assignment.size() == static_cast<std::size_t>(g.num_vertices()),
      "PartitionedSparsifier: assignment size must equal num_vertices");
  Vertex max_id = -1;
  for (const Vertex b : assignment) {
    SSP_REQUIRE(b >= 0, "PartitionedSparsifier: negative block id");
    max_id = std::max(max_id, b);
  }
  const Index k = static_cast<Index>(max_id) + 1;
  std::vector<EdgeId> sizes(static_cast<std::size_t>(k), 0);
  for (const Vertex b : assignment) ++sizes[static_cast<std::size_t>(b)];
  for (Index b = 0; b < k; ++b) {
    SSP_REQUIRE(sizes[static_cast<std::size_t>(b)] > 0,
                "PartitionedSparsifier: empty block in assignment");
  }
  opts_.partitions = k;
  user_assignment_ = std::move(assignment);
}

namespace {

// Indexed by ScaleStage; keep in sync with the enum in the header.
constexpr const char* kScaleSpanName[kNumScaleStages] = {
    "scale.partition",    "scale.extract", "scale.block-sparsify",
    "scale.cut-sparsify", "scale.stitch",  "scale.quality"};
constexpr obs::MetricId kScaleStageNs[kNumScaleStages] = {
    "scale.stage.partition.ns",    "scale.stage.extract.ns",
    "scale.stage.block-sparsify.ns", "scale.stage.cut-sparsify.ns",
    "scale.stage.stitch.ns",       "scale.stage.quality.ns"};

}  // namespace

void PartitionedSparsifier::notify_stage(ScaleStage stage, double seconds) {
  result_.stage_seconds[static_cast<std::size_t>(stage)] = seconds;
  // Telemetry only: recording never alters partitioning or seeds.
  const auto idx = static_cast<int>(stage);
  obs::counter_add(kScaleStageNs[idx],
                   static_cast<std::uint64_t>(seconds * 1e9));
  obs::TraceScope span(kScaleSpanName[idx], seconds);
}

const PartitionedResult& PartitionedSparsifier::run() {
  if (done_) return result_;
  const WallTimer total;
  result_.cut_policy = opts_.cut_policy;

  // Stage 1: partition (or validate the supplied assignment).
  {
    const WallTimer timer;
    if (user_assignment_.has_value()) {
      result_.assignment = *user_assignment_;
      result_.blocks = opts_.partitions;
    } else if (opts_.partitions == 1) {
      result_.assignment.assign(
          static_cast<std::size_t>(g_->num_vertices()), 0);
      result_.blocks = 1;
    } else {
      RecursiveBisectionOptions po = opts_.partitioner;
      po.num_parts = opts_.partitions;
      const RecursiveBisectionResult rb = recursive_bisection(*g_, po);
      result_.assignment = rb.assignment;
      result_.blocks = rb.parts;
    }
    notify_stage(ScaleStage::kPartition, timer.seconds());
  }

  // A single connected block is exactly the whole-graph engine — run it
  // verbatim so the k = 1 edge list matches Sparsifier::run() bit for bit.
  if (result_.blocks == 1 && is_connected(*g_)) {
    run_whole_graph();
  } else {
    run_partitioned();
  }

  quality_stage(*g_);
  result_.total_seconds = total.seconds();
  done_ = true;
  return result_;
}

void PartitionedSparsifier::run_whole_graph() {
  const WallTimer timer;
  BlockStats stats;
  stats.block = 0;
  stats.vertices = g_->num_vertices();
  stats.edges = g_->num_edges();
  stats.components = 1;
  // opts_.block verbatim: same seed, same streams, same edge list as a
  // standalone whole-graph engine run.
  Sparsifier engine(*g_, opts_.block);
  engine.run();
  SparsifyResult r = engine.take_result();
  stats.kept_edges = static_cast<EdgeId>(r.edges.size());
  stats.sigma2_estimate = r.sigma2_estimate;
  stats.reached_target = r.reached_target;
  stats.stage_seconds = r.stage_seconds;
  stats.seconds = timer.seconds();
  result_.edges = std::move(r.edges);
  result_.block_stats.push_back(stats);
  notify_stage(ScaleStage::kExtract, 0.0);
  notify_stage(ScaleStage::kBlockSparsify, stats.seconds);
  notify_stage(ScaleStage::kCutSparsify, 0.0);
  notify_stage(ScaleStage::kStitch, 0.0);
}

void PartitionedSparsifier::run_partitioned() {
  const Index k = result_.blocks;
  const std::span<const Vertex> assignment(result_.assignment);

  // Stage 2: extract block and cut subgraphs.
  std::vector<Subgraph> blocks;
  Subgraph cut;
  {
    const WallTimer timer;
    blocks = partition_subgraphs(*g_, assignment, k);
    cut = cut_subgraph(*g_, assignment);
    notify_stage(ScaleStage::kExtract, timer.seconds());
  }
  result_.cut_edges_total = cut.graph.num_edges();

  // Stage 3: one engine per block component, fanned out over the pool.
  const Rng parent(opts_.block.seed);
  std::vector<ComponentTask> tasks;
  for (Index b = 0; b < k; ++b) {
    make_tasks(blocks[static_cast<std::size_t>(b)], b,
               static_cast<std::uint64_t>(b), parent, opts_.block, tasks);
  }
  const std::size_t num_block_tasks = tasks.size();
  {
    const WallTimer timer;
    run_tasks(tasks, 0, num_block_tasks, opts_.threads);
    notify_stage(ScaleStage::kBlockSparsify, timer.seconds());
  }
  for (Index b = 0; b < k; ++b) {
    result_.block_stats.push_back(
        fold_stats(b, blocks[static_cast<std::size_t>(b)], tasks));
  }

  // Stage 4: cut policy.
  std::vector<EdgeId> cut_kept;
  {
    const WallTimer timer;
    switch (opts_.cut_policy) {
      case CutPolicy::kKeepAll:
        cut_kept = cut.edge_to_global;
        break;
      case CutPolicy::kFilter: {
        const SparsifyOptions& cut_opts =
            opts_.cut.has_value() ? *opts_.cut : opts_.block;
        // Cut streams start at k so they never collide with block streams
        // (even when the cut pass shares the block seed).
        const Rng cut_parent(cut_opts.seed);
        make_tasks(cut, kCutBlock, static_cast<std::uint64_t>(k), cut_parent,
                   cut_opts, tasks);
        run_tasks(tasks, num_block_tasks, tasks.size(), opts_.threads);
        for (std::size_t t = num_block_tasks; t < tasks.size(); ++t) {
          cut_kept.insert(cut_kept.end(), tasks[t].selected.begin(),
                          tasks[t].selected.end());
        }
        result_.cut_stats = fold_stats(kCutBlock, cut, tasks);
        break;
      }
      case CutPolicy::kQuotient: {
        // One heaviest representative per adjacent block pair; ties break
        // toward the lowest edge id (edges scan in ascending id order).
        std::map<std::pair<Vertex, Vertex>, EdgeId> best;
        for (std::size_t i = 0; i < cut.edge_to_global.size(); ++i) {
          const EdgeId host = cut.edge_to_global[i];
          const Edge& e = g_->edge(host);
          const Vertex bu = assignment[static_cast<std::size_t>(e.u)];
          const Vertex bv = assignment[static_cast<std::size_t>(e.v)];
          const std::pair<Vertex, Vertex> key{std::min(bu, bv),
                                              std::max(bu, bv)};
          const auto [it, inserted] = best.try_emplace(key, host);
          if (!inserted && g_->edge(it->second).weight < e.weight) {
            it->second = host;
          }
        }
        for (const auto& [pair, host] : best) cut_kept.push_back(host);
        std::sort(cut_kept.begin(), cut_kept.end());
        break;
      }
    }
    notify_stage(ScaleStage::kCutSparsify, timer.seconds());
  }

  // Stage 5: stitch + connectivity repair.
  {
    const WallTimer timer;
    for (std::size_t t = 0; t < num_block_tasks; ++t) {
      result_.edges.insert(result_.edges.end(), tasks[t].selected.begin(),
                           tasks[t].selected.end());
    }
    result_.edges.insert(result_.edges.end(), cut_kept.begin(),
                         cut_kept.end());
    result_.cut_edges_kept = static_cast<EdgeId>(cut_kept.size());

    // Postcondition: the sparsifier connects exactly what G connects.
    // kKeepAll/kFilter satisfy it by construction (every engine keeps a
    // spanning tree of its component); kQuotient may drop a bridge, so
    // missing links are repaired greedily, heaviest cut edge first.
    UnionFind uf(static_cast<Index>(g_->num_vertices()));
    for (const EdgeId e : result_.edges) {
      const Edge& edge = g_->edge(e);
      uf.unite(static_cast<Index>(edge.u), static_cast<Index>(edge.v));
    }
    const Vertex g_components = connected_components(*g_).num_components;
    if (uf.num_sets() > static_cast<Index>(g_components)) {
      std::vector<EdgeId> candidates = cut.edge_to_global;
      std::sort(candidates.begin(), candidates.end(),
                [this](EdgeId a, EdgeId b) {
                  const double wa = g_->edge(a).weight;
                  const double wb = g_->edge(b).weight;
                  return wa != wb ? wa > wb : a < b;
                });
      for (const EdgeId e : candidates) {
        const Edge& edge = g_->edge(e);
        if (uf.unite(static_cast<Index>(edge.u),
                     static_cast<Index>(edge.v))) {
          result_.edges.push_back(e);
          ++result_.cut_edges_kept;
          if (uf.num_sets() == static_cast<Index>(g_components)) break;
        }
      }
    }
    SSP_ASSERT(uf.num_sets() == static_cast<Index>(g_components),
               "partitioned sparsifier lost connectivity");
    notify_stage(ScaleStage::kStitch, timer.seconds());
  }
}

void PartitionedSparsifier::quality_stage(const Graph& g) {
  if (!opts_.estimate_quality && !opts_.rescale) return;
  const WallTimer timer;
  // The pencil spectrum (and the max-weight spanning tree preconditioner
  // behind the λ_max estimate) needs one component; quality of a
  // disconnected input stays unset.
  if (is_connected(g)) {
    const Graph p = g.edge_subgraph(result_.edges);
    QualityOptions qopts;
    qopts.seed = opts_.block.seed;
    result_.quality = estimate_sparsifier_quality(g, p, qopts);
    if (opts_.rescale) {
      SparsifyResult synth;
      synth.edges = result_.edges;
      synth.lambda_min = result_.quality->lambda_min;
      synth.lambda_max = result_.quality->lambda_max;
      synth.sigma2_estimate = result_.quality->sigma2;
      result_.rescaled = rescale_sparsifier(g, synth);
    }
  }
  notify_stage(ScaleStage::kQuality, timer.seconds());
}

PartitionedResult partitioned_sparsify(const Graph& g,
                                       const PartitionedOptions& opts) {
  PartitionedSparsifier driver(g, opts);
  driver.run();
  return driver.take_result();
}

}  // namespace ssp
