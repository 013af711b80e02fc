#include "core/edge_filter.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace ssp {

double heat_threshold(double sigma2, double lambda_min, double lambda_max,
                      int power_steps) {
  SSP_REQUIRE(sigma2 > 0.0, "heat_threshold: sigma2 must be positive");
  SSP_REQUIRE(lambda_min > 0.0 && lambda_max > 0.0,
              "heat_threshold: eigenvalue estimates must be positive");
  SSP_REQUIRE(power_steps >= 1, "heat_threshold: power_steps must be >= 1");
  const double ratio = sigma2 * lambda_min / lambda_max;
  const double theta = std::pow(ratio, 2 * power_steps + 1);
  return std::clamp(theta, 0.0, 1.0);
}

std::vector<EdgeId> filter_offtree_edges(const Graph& g,
                                         const OffTreeEmbedding& emb,
                                         double theta,
                                         const FilterOptions& opts) {
  SSP_REQUIRE(theta >= 0.0 && theta <= 1.0, "filter: theta must be in [0,1]");
  SSP_REQUIRE(emb.offtree_edges.size() == emb.heat.size(),
              "filter: malformed embedding");
  std::vector<EdgeId> selected;
  if (emb.offtree_edges.empty() || emb.heat_max <= 0.0) return selected;

  // Candidate indices above threshold, visited by descending heat.
  std::vector<std::size_t> heap;
  heap.reserve(emb.offtree_edges.size());
  const double cut = theta * emb.heat_max;
  for (std::size_t k = 0; k < emb.heat.size(); ++k) {
    if (emb.heat[k] >= cut) heap.push_back(k);
  }
  // Descending heat with an ascending edge-id tiebreak: equal heats are
  // common on symmetric graphs, and without the tiebreak the accepted set
  // — and through the node-disjoint policy the whole sparsifier — would
  // depend on the STL's implementation. Edge ids are unique, so the order
  // is total and popping a heap yields exactly the sorted order, while
  // only the candidates the scan reaches before max_edges pay for it.
  // `later(a, b)` is true when a is visited after b, so the heap's top is
  // the next candidate.
  const auto later = [&](std::size_t a, std::size_t b) {
    if (emb.heat[a] != emb.heat[b]) return emb.heat[a] < emb.heat[b];
    return emb.offtree_edges[a] > emb.offtree_edges[b];
  };
  std::make_heap(heap.begin(), heap.end(), later);

  const Index cap =
      opts.similarity == SimilarityPolicy::kNodeDisjoint ? 1 : opts.node_cap;
  SSP_REQUIRE(opts.similarity == SimilarityPolicy::kNone || cap >= 1,
              "filter: node_cap must be >= 1");
  std::vector<Index> touched(
      opts.similarity == SimilarityPolicy::kNone
          ? 0
          : static_cast<std::size_t>(g.num_vertices()),
      0);

  const auto edges = g.edges();
  while (!heap.empty()) {
    if (opts.max_edges > 0 &&
        static_cast<EdgeId>(selected.size()) >= opts.max_edges) {
      break;
    }
    std::pop_heap(heap.begin(), heap.end(), later);
    const std::size_t k = heap.back();
    heap.pop_back();
    const EdgeId id = emb.offtree_edges[k];
    SSP_DASSERT(id >= 0 && id < g.num_edges(), "filter: edge id out of range");
    const Edge& e = edges[static_cast<std::size_t>(id)];
    if (opts.similarity != SimilarityPolicy::kNone) {
      auto& tu = touched[static_cast<std::size_t>(e.u)];
      auto& tv = touched[static_cast<std::size_t>(e.v)];
      if (tu >= cap || tv >= cap) continue;  // similar to an accepted edge
      ++tu;
      ++tv;
    }
    selected.push_back(id);
  }
  return selected;
}

}  // namespace ssp
