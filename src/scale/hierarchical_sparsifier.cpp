#include "scale/hierarchical_sparsifier.hpp"

#include <algorithm>
#include <utility>

#include "graph/connectivity.hpp"
#include "graph/subgraph.hpp"
#include "scale/component_tasks.hpp"
#include "storage/mapped_graph.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace ssp {

namespace {

/// A contiguous range [lo, hi) of the BFS order that fits the budget (or
/// could not be split further).
struct LeafRange {
  std::size_t lo = 0;
  std::size_t hi = 0;
  Index depth = 0;
};

/// Splits [lo, hi) at its degree-sum midpoint until every range fits the
/// budget (or hits the single-vertex / max-depth floor), appending leaves
/// left to right. `prefix[i]` is the degree sum of order[0, i), so the
/// shape of the hierarchy is a pure function of the CSR adjacency —
/// identical for the heap and mmap producers of the same logical graph.
void split_range(const std::vector<std::uint64_t>& prefix, std::size_t lo,
                 std::size_t hi, Index depth, std::uint64_t budget,
                 Index max_depth, std::vector<LeafRange>& leaves) {
  const auto vertices = static_cast<Vertex>(hi - lo);
  const std::uint64_t dsum = prefix[hi] - prefix[lo];
  if (hi - lo <= 1 || depth >= max_depth ||
      HierarchicalSparsifier::estimate_subgraph_bytes(vertices, dsum) <=
          budget) {
    leaves.push_back({lo, hi, depth});
    return;
  }
  // First index whose prefix reaches the degree-sum midpoint, clamped so
  // both halves are non-empty (a hub vertex heavier than half the range
  // still splits off its neighbors).
  const std::uint64_t target = prefix[lo] + dsum / 2;
  const auto it = std::lower_bound(prefix.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                                   prefix.begin() + static_cast<std::ptrdiff_t>(hi), target);
  const auto mid = std::clamp(
      static_cast<std::size_t>(it - prefix.begin()), lo + 1, hi - 1);
  split_range(prefix, lo, mid, depth + 1, budget, max_depth, leaves);
  split_range(prefix, mid, hi, depth + 1, budget, max_depth, leaves);
}

}  // namespace

// ---- HierarchicalOptions ---------------------------------------------------

void HierarchicalOptions::validate() const {
  SSP_REQUIRE(memory_budget_bytes >= 1,
              "HierarchicalOptions: memory budget must be >= 1 byte");
  SSP_REQUIRE(threads >= 0, "HierarchicalOptions: threads must be >= 0");
  SSP_REQUIRE(max_depth >= 1, "HierarchicalOptions: max_depth must be >= 1");
  block.validate();
}

HierarchicalOptions& HierarchicalOptions::with_memory_budget_bytes(
    std::uint64_t bytes) {
  SSP_REQUIRE(bytes >= 1,
              "HierarchicalOptions: memory budget must be >= 1 byte");
  memory_budget_bytes = bytes;
  return *this;
}

HierarchicalOptions& HierarchicalOptions::with_block_options(
    SparsifyOptions opts) {
  opts.validate();
  block = std::move(opts);
  return *this;
}

HierarchicalOptions& HierarchicalOptions::with_threads(int n) {
  SSP_REQUIRE(n >= 0, "HierarchicalOptions: threads must be >= 0");
  threads = n;
  return *this;
}

HierarchicalOptions& HierarchicalOptions::with_max_depth(Index depth) {
  SSP_REQUIRE(depth >= 1, "HierarchicalOptions: max_depth must be >= 1");
  max_depth = depth;
  return *this;
}

// ---- HierarchicalSparsifier ------------------------------------------------

std::uint64_t HierarchicalSparsifier::estimate_subgraph_bytes(
    Vertex vertices, std::uint64_t directed_entries) {
  // Per directed CSR entry of a finalized heap subgraph: adj_nbr (4) +
  // adj_eid (8) + adj_w (8), plus half an AoS Edge (24 / 2) and half an
  // edge_to_global slot (8 / 2) = 36; per vertex: adj_ptr (8) +
  // weighted_degree (8) + local_to_global (4) + extraction scratch (4)
  // = 24. Rounded up to 40 / 32 — overestimating splits one level too
  // deep, underestimating busts the budget, so round up.
  return 40 * directed_entries + 32 * static_cast<std::uint64_t>(vertices);
}

HierarchicalSparsifier::HierarchicalSparsifier(GraphView g,
                                               HierarchicalOptions opts)
    : g_(g), opts_(std::move(opts)) {
  SSP_REQUIRE(g_.num_vertices() >= 1,
              "HierarchicalSparsifier: graph must be non-empty");
  opts_.validate();
}

const HierarchicalResult& HierarchicalSparsifier::run() {
  if (done_) return result_;
  const WallTimer total;
  const Vertex n = g_.num_vertices();
  const EdgeId m = g_.num_edges();

  // Pass 1: deterministic BFS order (roots ascending, neighbors in CSR
  // order) + prefix degree sums. The queue doubles as the order array.
  std::vector<Vertex> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::size_t head = 0;
  Index roots = 0;
  for (Vertex r = 0; r < n; ++r) {
    if (seen[static_cast<std::size_t>(r)] != 0) continue;
    ++roots;
    seen[static_cast<std::size_t>(r)] = 1;
    order.push_back(r);
    while (head < order.size()) {
      const Vertex u = order[head++];
      for (const auto& item : g_.neighbors(u)) {
        if (seen[static_cast<std::size_t>(item.neighbor)] == 0) {
          seen[static_cast<std::size_t>(item.neighbor)] = 1;
          order.push_back(item.neighbor);
        }
      }
    }
  }
  const bool connected = roots == 1;
  std::vector<std::uint64_t> prefix(static_cast<std::size_t>(n) + 1, 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    prefix[i + 1] =
        prefix[i] + static_cast<std::uint64_t>(g_.degree(order[i]));
  }
  release();

  // Pass 2: split into leaves.
  std::vector<LeafRange> leaves;
  split_range(prefix, 0, static_cast<std::size_t>(n), 0,
              opts_.memory_budget_bytes, opts_.max_depth, leaves);
  result_.leaves = static_cast<Index>(leaves.size());
  for (const LeafRange& leaf : leaves) {
    result_.depth = std::max(result_.depth, leaf.depth);
  }

  // Whole-graph fast path: one leaf + connected ⇒ materialize once and
  // run the engine with opts_.block verbatim, so the edge list is
  // bit-identical to Sparsifier::run() on the heap graph.
  if (leaves.size() == 1 && connected) {
    const WallTimer timer;
    BlockStats stats;
    stats.block = 0;
    stats.vertices = n;
    stats.edges = m;
    stats.components = 1;
    const Graph heap = g_.materialize();
    release();
    Sparsifier engine(heap, opts_.block);
    engine.run();
    SparsifyResult r = engine.take_result();
    stats.kept_edges = static_cast<EdgeId>(r.edges.size());
    stats.sigma2_estimate = r.sigma2_estimate;
    stats.reached_target = r.reached_target;
    stats.stage_seconds = r.stage_seconds;
    stats.seconds = timer.seconds();
    result_.edges = std::move(r.edges);
    result_.whole_graph = true;
    result_.leaf_stats.push_back(stats);
    result_.total_seconds = total.seconds();
    done_ = true;
    return result_;
  }

  // Pass 3: leaf assignment + one sequential scan over the edge list for
  // the cut (ascending host edge id by construction).
  std::vector<Index> leaf_of(static_cast<std::size_t>(n), 0);
  for (std::size_t l = 0; l < leaves.size(); ++l) {
    for (std::size_t i = leaves[l].lo; i < leaves[l].hi; ++i) {
      leaf_of[static_cast<std::size_t>(order[i])] = static_cast<Index>(l);
    }
  }
  std::vector<EdgeId> cut;
  for (EdgeId e = 0; e < m; ++e) {
    const Edge edge = g_.edge(e);
    if (leaf_of[static_cast<std::size_t>(edge.u)] !=
        leaf_of[static_cast<std::size_t>(edge.v)]) {
      cut.push_back(e);
    }
  }
  release();

  // Pass 4: leaves one at a time — extract, sparsify per component,
  // drop the heap subgraph and the mapped pages before the next leaf.
  const Rng parent(opts_.block.seed);
  for (std::size_t l = 0; l < leaves.size(); ++l) {
    std::vector<Vertex> members(
        order.begin() + static_cast<std::ptrdiff_t>(leaves[l].lo),
        order.begin() + static_cast<std::ptrdiff_t>(leaves[l].hi));
    // Ascending host id, like partition_subgraphs blocks, so local ids
    // don't depend on BFS tie-breaking inside the range.
    std::sort(members.begin(), members.end());
    {
      const Subgraph sub = induced_subgraph(g_, members);
      std::vector<scale_detail::ComponentTask> tasks;
      scale_detail::make_tasks(sub, static_cast<Index>(l),
                               static_cast<std::uint64_t>(l), parent,
                               opts_.block, tasks);
      scale_detail::run_tasks(tasks, 0, tasks.size(), opts_.threads);
      for (const scale_detail::ComponentTask& task : tasks) {
        result_.edges.insert(result_.edges.end(), task.selected.begin(),
                             task.selected.end());
      }
      result_.leaf_stats.push_back(
          scale_detail::fold_stats(static_cast<Index>(l), sub, tasks));
    }
    release();
  }

  // Pass 5: stitch — every cut edge survives, so the output connects
  // exactly what the input connects (each component of each leaf keeps a
  // spanning tree; cut edges restore every inter-leaf link).
  result_.edges.insert(result_.edges.end(), cut.begin(), cut.end());
  result_.cut_edges = static_cast<EdgeId>(cut.size());
  result_.total_seconds = total.seconds();
  done_ = true;
  return result_;
}

HierarchicalResult hierarchical_sparsify(GraphView g,
                                         const HierarchicalOptions& opts) {
  HierarchicalSparsifier driver(g, opts);
  driver.run();
  return driver.take_result();
}

HierarchicalResult hierarchical_sparsify(const storage::MappedGraph& g,
                                         const HierarchicalOptions& opts) {
  HierarchicalSparsifier driver(g.view(), opts);
  driver.set_release_hook([&g] { g.release_pages(); });
  driver.run();
  return driver.take_result();
}

}  // namespace ssp
