// perfbench_selftest — tests of the benchmark's own code: the percentile
// rule, the throughput and ratio definitions, metric and workload names,
// the output checks, and a tiny-size smoke run of all four workloads end to
// end (untraced and traced). Exits 0 when every check passes.
//
//   perfbench_selftest [--out-dir DIR]

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/sparsifier.hpp"
#include "graph/generators/lattice.hpp"
#include "graph/laplacian.hpp"
#include "la/dense_eigen.hpp"
#include "la/dense_matrix.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * (1.0 + std::fabs(b)); }

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_percentile_rule() {
  using perfbench::tail_point;
  // The highest percentile with ten samples beyond sits at rank n - 10.
  perfbench::TailPoint t = tail_point(ramp(2000));
  expect(near(t.percentile, 99.5) && t.beyond == 10 && t.value == 1990.0,
         "2000 samples report p99.5 with 10 beyond");
  t = tail_point(ramp(100));
  expect(near(t.percentile, 90.0) && t.beyond == 10 && t.value == 90.0,
         "100 samples report p90");
  t = tail_point(ramp(1000));
  expect(near(t.percentile, 99.0) && t.beyond == 10, "1000 samples report p99");
  t = tail_point(ramp(40));
  expect(near(t.percentile, 75.0) && t.beyond == 10 && t.value == 30.0, "40 samples report p75");
  // 15 samples: nothing above the median leaves 10 beyond; the median is
  // reported with its (short) count so the caller can see it.
  t = tail_point(ramp(15));
  expect(t.percentile == 50.0 && t.beyond == 7 && t.value == 8.0,
         "15 samples fall back to the median");
  expect(tail_point({}).samples == 0, "empty tail point");
  // A planned percentile is kept while it leaves ten samples beyond, and
  // lowered to the rule's choice when it does not.
  t = perfbench::planned_tail(ramp(100), 75.0);
  expect(t.percentile == 75.0 && t.value == 75.0 && t.beyond == 25, "planned p75 of 100 kept");
  t = perfbench::planned_tail(ramp(30), 90.0);
  expect(near(t.percentile, 200.0 / 3.0) && t.beyond == 10 && t.value == 20.0,
         "planned p90 of 30 lowered to the rule's rank 20");
  expect(perfbench::nearest_rank({1, 2, 3, 4}, 50.0) == 2.0, "nearest rank p50 of 4");
  expect(perfbench::nearest_rank({1, 2, 3, 4}, 100.0) == 4.0, "nearest rank p100");
  expect(perfbench::median({3, 1, 2}) == 2.0, "odd median");
  expect(perfbench::median({4, 1, 3, 2}) == 2.5, "even median");
  expect(perfbench::median({}) == 0.0, "empty median");
}

void test_definitions() {
  expect(near(perfbench::per_second(1000.0, 4.0), 250.0), "throughput = work / seconds");
  expect(perfbench::per_second(5.0, 0.0) == 0.0, "throughput without time is 0");
  expect(near(perfbench::ratio(3.0, 4.0), 0.75), "ratio");
  expect(perfbench::ratio(3.0, 0.0) == 0.0, "ratio over 0 is 0");
  expect(near(perfbench::geo_mean({2.0, 8.0}), 4.0), "geometric mean");
  expect(perfbench::geo_mean({}) == 0.0, "empty geometric mean");

  // A fast and a slow kind: the combined median is the geometric mean of
  // the two kinds' medians, not whichever mode the pooled median hits.
  perfbench::KindSamples ks;
  for (const double v : {1.0, 1.0, 1.1}) ks.add("fast", v);
  for (const double v : {9.0, 10.0, 10.0}) ks.add("slow", v);
  expect(near(ks.median_of_kinds(), std::sqrt(10.0)), "median of kinds");
  expect(ks.count() == 6, "kind sample count");
}

void test_names() {
  for (const std::string& w : perfbench::workload_names()) {
    expect(perfbench::valid_name(w), "workload name " + w);
  }
  std::vector<std::string> seen;
  for (const auto* list : {&perfbench::end_to_end_metrics(), &perfbench::per_layer_metrics()}) {
    for (const auto& [name, unit] : *list) {
      expect(perfbench::valid_name(name), "metric name " + name);
      expect(!unit.empty() && unit.size() <= 16, "unit of " + name);
      for (const std::string& s : seen) expect(s != name, "metric used once: " + name);
      seen.push_back(name);
    }
  }
  expect(!perfbench::valid_name(""), "empty name rejected");
  expect(!perfbench::valid_name("_lead"), "leading underscore rejected");
  expect(!perfbench::valid_name("has space"), "space rejected");
  expect(!perfbench::valid_name("slash/name"), "slash rejected");
  expect(!perfbench::valid_name(std::string(65, 'a')), "65 characters rejected");
  expect(perfbench::valid_name("a.b-c_9"), "dots, dashes and underscores accepted");
}

void test_output_checks() {
  const ssp::Graph g = ssp::grid_2d(3, 3);  // 9 vertices, 12 edges
  std::vector<ssp::EdgeId> all;
  for (ssp::EdgeId e = 0; e < g.num_edges(); ++e) all.push_back(e);
  expect(perfbench::check_subgraph(g, all, {}).ok(), "whole graph passes");
  expect(!perfbench::check_subgraph(g, std::vector<ssp::EdgeId>{0, 1}, {}).ok(), "disconnected subgraph fails");
  expect(!perfbench::check_subgraph(g, std::vector<ssp::EdgeId>{0, 0}, {}).ok(), "repeated id fails");
  expect(!perfbench::check_subgraph(g, std::vector<ssp::EdgeId>{0, 99}, {}).ok(), "out-of-range id fails");
  // A wrong backbone (not n-1 ids) fails even when the edge set is fine.
  expect(!perfbench::check_subgraph(g, all, std::vector<ssp::EdgeId>(all.begin(), all.begin() + 3)).ok(),
         "short backbone fails");
  expect(perfbench::check_subgraph(g, all, {}).hash != perfbench::check_subgraph(g, std::vector<ssp::EdgeId>(all.rbegin(), all.rend()), {}).hash,
         "hash depends on edge order");
  // κ of a graph against itself is 1, exactly, from the dense oracle.
  const perfbench::Kappa k = perfbench::independent_kappa(g, g);
  expect(k.exact && std::fabs(k.value - 1.0) < 1e-9, "dense oracle: kappa(G, G) = 1");

  // The fast dense oracle agrees with the library's Jacobi reference.
  ssp::Rng rng(5);
  const ssp::Graph h = ssp::grid_2d(9, 9, ssp::WeightModel::log_uniform(0.1, 10.0), &rng);
  const ssp::SparsifyResult res = ssp::sparsify(h, ssp::SparsifyOptions{}.with_sigma2(20.0));
  const ssp::Graph p = res.extract(h);
  const ssp::Vec ref = ssp::dense_generalized_eigenvalues(
      ssp::DenseMatrix::from_csr(ssp::laplacian(h)), ssp::DenseMatrix::from_csr(ssp::laplacian(p)));
  const double fast = perfbench::dense_kappa(h, p);
  expect(std::fabs(fast - ref.back() / ref.front()) <= 1e-8 * fast,
         "dense_kappa matches dense_generalized_eigenvalues (" + std::to_string(fast) + " vs " +
             std::to_string(ref.back() / ref.front()) + ")");
}

void test_smoke(const std::string& out_dir) {
  for (const std::string& w : perfbench::workload_names()) {
    for (const bool trace : {false, true}) {
      perfbench::RunConfig cfg;
      cfg.workload = w;
      cfg.seed = 3;
      cfg.seconds = 0.5;
      cfg.trace = trace;
      cfg.smoke = true;
      cfg.work_dir = out_dir + "/selftest-" + w + "-" + std::to_string(::getpid());
      std::filesystem::create_directories(cfg.work_dir);
      const perfbench::WorkloadResult r = perfbench::run_workload(cfg);
      std::filesystem::remove_all(cfg.work_dir);
      const std::string label = "smoke " + w + (trace ? " traced" : "");
      for (const std::string& f : r.failures) std::fprintf(stderr, "  %s: %s\n", label.c_str(), f.c_str());
      expect(r.failed == 0 && r.attempted > 0, label + ": every op succeeded");
      if (!trace) {
        for (const auto& [name, unit] : perfbench::end_to_end_metrics()) {
          const perfbench::Metric* m = r.find(name);
          expect(m != nullptr && std::isfinite(m->value) && m->value > 0.0,
                 label + ": " + name + " present and positive");
        }
      } else {
        expect(r.find("obs.trace_overhead") != nullptr, label + ": trace overhead reported");
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = ".bench_build/perfbench-out";
  if (argc == 3 && std::string(argv[1]) == "--out-dir") out_dir = argv[2];
  test_percentile_rule();
  test_definitions();
  test_names();
  test_output_checks();
  test_smoke(out_dir);
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
