// Quickstart: sparsify a weighted mesh to a chosen spectral-similarity
// level and inspect the result — first with the one-shot wrapper, then
// with the staged ssp::Sparsifier engine (observer + warm-started refine).
//
//   build/example_quickstart [sigma2]
//
// Prefer the `with_*` named setters when configuring SparsifyOptions —
// they validate eagerly; direct field pokes are only checked when the
// engine is constructed and may be restricted in a future release.

#include <cstdlib>
#include <iostream>

#include "core/sparsifier.hpp"
#include "core/sparsifier_engine.hpp"
#include "graph/generators/lattice.hpp"
#include "util/rng.hpp"

namespace {

/// Live telemetry: one line per densification round. Returning false
/// from on_round would cancel the run.
class PrintObserver : public ssp::StageObserver {
 public:
  bool on_round(const ssp::DensifyRound& r) override {
    std::cout << "  round " << r.round << ": sigma2 = " << r.sigma2_estimate
              << ", theta = " << r.theta << ", added " << r.edges_added
              << " edges (" << r.seconds << " s)\n";
    return true;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const double sigma2 = argc > 1 ? std::atof(argv[1]) : 100.0;

  // A 128x128 grid with conductance-like weights spanning two decades —
  // the structure of the paper's circuit/thermal test matrices.
  ssp::Rng weights(7);
  const ssp::Graph g = ssp::grid_2d(
      128, 128, ssp::WeightModel::log_uniform(0.1, 10.0), &weights);

  std::cout << "input graph: |V| = " << g.num_vertices()
            << ", |E| = " << g.num_edges() << "\n";

  const auto opts = ssp::SparsifyOptions{}.with_sigma2(sigma2).with_seed(42);

  // --- One-shot wrapper: configure, call, done. ---------------------------
  const ssp::SparsifyResult result = ssp::sparsify(g, opts);

  std::cout << "sparsifier:  |Es| = " << result.num_edges() << "  ("
            << static_cast<double>(result.num_edges()) /
                   static_cast<double>(g.num_vertices())
            << " x |V|)\n";
  std::cout << "sigma^2 target " << sigma2 << "  ->  estimate "
            << result.sigma2_estimate
            << (result.reached_target ? "  [reached]" : "  [NOT reached]")
            << "\n";
  std::cout << "lambda_min = " << result.lambda_min
            << ", lambda_max = " << result.lambda_max << "\n";
  std::cout << "densification rounds: " << result.rounds.size()
            << ", total time " << result.total_seconds << " s\n";

  const ssp::Graph p = result.extract(g);
  std::cout << "extracted sparsifier graph with " << p.num_edges()
            << " edges\n";

  // --- Staged engine: round observer, stage seconds, warm refine. --------
  std::cout << "\nengine flow (same seed -> identical edges):\n";
  ssp::Sparsifier engine(g, opts);
  PrintObserver observer;
  engine.set_observer(&observer);
  engine.run();  // or: while (!engine.done()) engine.step();
  // Per-stage wall seconds ride on the result, indexed by StageKind.
  const double backbone_seconds = engine.result().stage_seconds[
      static_cast<std::size_t>(ssp::StageKind::kBackbone)];
  std::cout << "  [backbone built in " << backbone_seconds << " s]\n";
  std::cout << "engine reproduces the one-shot edge list: "
            << (engine.result().edges == result.edges ? "yes" : "NO")
            << "\n";

  // Warm start at a 2x tighter target: reuses the backbone, solver
  // factorizations, and workspace instead of re-sparsifying from scratch.
  // (Targets must stay > 1 — skip the demo for near-exact inputs.)
  if (sigma2 / 2.0 > 1.0) {
    engine.refine(sigma2 / 2.0);
    engine.run();
    std::cout << "refined to sigma^2 = " << sigma2 / 2.0 << ": |Es| = "
              << engine.result().num_edges() << ", estimate "
              << engine.result().sigma2_estimate << "\n";
  }

  return result.reached_target ? 0 : 1;
}
