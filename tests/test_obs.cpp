// Tests for the observability layer (src/obs/): metrics-registry
// exactness under concurrent writers, histogram percentiles against a
// sorted reference, engine result stage seconds against the registry,
// Chrome-trace JSON well-formedness, span nesting and each layer's
// stage-span order, the serve `stats`/`metrics` protocol verbs, and — the layer's hard
// contract — bit-identical sparsifier output with observability on vs
// off at thread counts 1 and 4. Library-only, so the suite also runs in
// the TSan CI job where the tools are not built.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/options_io.hpp"
#include "core/sparsifier.hpp"
#include "core/sparsifier_engine.hpp"
#include "dynamic/dynamic_sparsifier.hpp"
#include "graph/generators/lattice.hpp"
#include "graph/generators/random_graphs.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scale/partitioned_sparsifier.hpp"
#include "serve/connection.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "tree/kruskal.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace ssp {
namespace {

/// Scoped enable/disable so a failing test cannot leak a live registry
/// into later suites (the determinism tests rely on the default-off
/// state).
struct MetricsOn {
  MetricsOn() {
    obs::reset_metrics_for_tests();
    obs::set_metrics_enabled(true);
  }
  ~MetricsOn() {
    obs::set_metrics_enabled(false);
    obs::reset_metrics_for_tests();
  }
};

/// Finds one metric by name in a visit() snapshot; count() == 0 when the
/// metric was never registered.
struct Found {
  bool present = false;
  obs::MetricKind kind = obs::MetricKind::kCounter;
  std::uint64_t counter = 0;
  std::int64_t gauge = 0;
  std::uint64_t hist_count = 0;
  double hist_sum = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

Found find_metric(const std::string& name) {
  Found f;
  obs::for_each_metric([&](const obs::MetricEntry& e) {
    if (name != e.name) return;
    f.present = true;
    f.kind = e.kind;
    f.counter = e.counter;
    f.gauge = e.gauge;
    if (e.kind == obs::MetricKind::kHistogram) {
      f.hist_count = e.hist.count;
      f.hist_sum = e.hist.sum;
      f.p50 = e.hist.percentile(0.50);
      f.p95 = e.hist.percentile(0.95);
      f.p99 = e.hist.percentile(0.99);
    }
  });
  return f;
}

// ---- Metrics registry -------------------------------------------------------

TEST(Metrics, DisabledRecordingIsInvisible) {
  obs::reset_metrics_for_tests();
  ASSERT_FALSE(obs::metrics_enabled());  // default-off contract
  obs::counter_add("off.counter", 5);
  obs::gauge_set("off.gauge", 7);
  obs::histogram_observe("off.hist", 3.0);
  obs::counter_add_named(std::string("off.named"), 1);
  EXPECT_EQ(obs::metric_count(), 0);
  EXPECT_FALSE(find_metric("off.counter").present);
}

TEST(Metrics, CountersExactUnderConcurrentWriters) {
  const MetricsOn on;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      char mine[32];
      std::snprintf(mine, sizeof(mine), "test.thread.%d", t);
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        obs::counter_add("test.shared", 1);
        obs::counter_add_named(mine, 2);
        obs::gauge_set("test.gauge", static_cast<std::int64_t>(i));
      }
    });
  }
  for (auto& w : workers) w.join();

  const Found shared = find_metric("test.shared");
  ASSERT_TRUE(shared.present);
  EXPECT_EQ(shared.kind, obs::MetricKind::kCounter);
  EXPECT_EQ(shared.counter, kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    const Found mine = find_metric("test.thread." + std::to_string(t));
    ASSERT_TRUE(mine.present) << t;
    EXPECT_EQ(mine.counter, 2 * kPerThread) << t;
  }
  const Found gauge = find_metric("test.gauge");
  ASSERT_TRUE(gauge.present);
  EXPECT_EQ(gauge.kind, obs::MetricKind::kGauge);
  // Last-writer-wins: some thread's final store.
  EXPECT_EQ(gauge.gauge, static_cast<std::int64_t>(kPerThread - 1));
  EXPECT_EQ(obs::metric_count(), kThreads + 2);
}

TEST(Metrics, GaugeAddAccumulates) {
  const MetricsOn on;
  obs::gauge_add("test.depth", 3);
  obs::gauge_add("test.depth", 4);
  obs::gauge_add("test.depth", -5);
  EXPECT_EQ(find_metric("test.depth").gauge, 2);
}

TEST(Metrics, HistogramPercentilesTrackSortedReference) {
  const MetricsOn on;
  // A skewed latency-like sample: exact values known, so the power-of-two
  // bucket estimate must land in [ref, 2*max(ref, 2)] — the documented
  // within-2x guarantee (bucket 0 spans [0,2)).
  std::vector<double> samples;
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    const double v = std::exp(rng.uniform(0.0, 10.0));  // 1 .. ~22026
    samples.push_back(v);
    obs::histogram_observe("test.lat", v);
  }
  std::sort(samples.begin(), samples.end());
  const Found h = find_metric("test.lat");
  ASSERT_TRUE(h.present);
  ASSERT_EQ(h.kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(h.hist_count, samples.size());
  double sum = 0.0;
  for (const double s : samples) sum += s;
  EXPECT_NEAR(h.hist_sum, sum, sum * 1e-9);

  const double qs[] = {0.50, 0.95, 0.99};
  const double got[] = {h.p50, h.p95, h.p99};
  for (int i = 0; i < 3; ++i) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(qs[i] * static_cast<double>(samples.size())));
    const double ref = samples[std::min(rank == 0 ? 0 : rank - 1,
                                        samples.size() - 1)];
    EXPECT_GE(got[i], ref) << "q=" << qs[i];
    EXPECT_LE(got[i], 2.0 * std::max(ref, 2.0)) << "q=" << qs[i];
  }
}

TEST(Metrics, HistogramEdgeValues) {
  const MetricsOn on;
  obs::histogram_observe("test.edge", 0.0);
  obs::histogram_observe("test.edge", 1.0);
  obs::histogram_observe("test.edge", 1.99);  // all land in bucket [0,2)
  const Found h = find_metric("test.edge");
  EXPECT_EQ(h.hist_count, 3u);
  EXPECT_EQ(h.p50, 2.0);  // bucket 0's upper bound
  EXPECT_EQ(h.p99, 2.0);
}

TEST(Metrics, ResetDropsRegistrations) {
  const MetricsOn on;
  obs::counter_add("test.reset", 1);
  EXPECT_EQ(obs::metric_count(), 1);
  obs::reset_metrics_for_tests();
  EXPECT_EQ(obs::metric_count(), 0);
  obs::set_metrics_enabled(true);  // reset clears values, not the switch
  obs::counter_add("test.reset", 4);
  EXPECT_EQ(find_metric("test.reset").counter, 4u);
}

/// `engine.stage.<stage>.{ns,calls}` counters, indexed by StageKind.
struct StageCounters {
  std::array<std::uint64_t, kNumStageKinds> ns{};
  std::array<std::uint64_t, kNumStageKinds> calls{};
};

StageCounters engine_stage_counters() {
  StageCounters c;
  for (int s = 0; s < kNumStageKinds; ++s) {
    const std::string name =
        std::string("engine.stage.") + to_string(static_cast<StageKind>(s));
    c.ns[static_cast<std::size_t>(s)] = find_metric(name + ".ns").counter;
    c.calls[static_cast<std::size_t>(s)] =
        find_metric(name + ".calls").counter;
  }
  return c;
}

/// Each stage's result seconds equal the registry's ns delta over the same
/// span of work, within the 1 ns per call that the counter truncates.
void expect_result_matches_registry(const SparsifyResult& r,
                                    const StageCounters& before,
                                    const StageCounters& after,
                                    const char* phase) {
  for (int s = 0; s < kNumStageKinds; ++s) {
    const auto i = static_cast<std::size_t>(s);
    const auto ns = static_cast<double>(after.ns[i] - before.ns[i]);
    const auto calls = static_cast<double>(after.calls[i] - before.calls[i]);
    EXPECT_NEAR(r.stage_seconds[i] * 1e9, ns, calls)
        << phase << ": " << to_string(static_cast<StageKind>(s));
  }
}

TEST(Metrics, EngineResultStageSecondsMatchTheRegistry) {
  const MetricsOn on;
  Rng rng(3);
  const Graph g = grid_2d(20, 20, WeightModel::log_uniform(0.1, 10.0), &rng);
  const StageCounters start = engine_stage_counters();
  Sparsifier engine(
      g, SparsifyOptions{}.with_sigma2(30.0).with_seed(5).with_threads(1));
  engine.run();
  expect_result_matches_registry(engine.result(), start,
                                 engine_stage_counters(), "run");
  EXPECT_GT(engine.result().stage_seconds[static_cast<std::size_t>(
                StageKind::kEmbedding)],
            0.0);

  // refine() adds to the array: it still matches the delta since start.
  engine.refine(10.0);
  engine.run();
  expect_result_matches_registry(engine.result(), start,
                                 engine_stage_counters(), "refine");

  // rebind() starts the array over; only its own cost remains, as the
  // backbone stage.
  const SpanningTree tree = max_weight_spanning_tree(g);
  const StageCounters before_rebind = engine_stage_counters();
  engine.rebind(g, tree, 7);
  const SparsifyResult& r = engine.result();
  for (int s = 0; s < kNumStageKinds; ++s) {
    if (static_cast<StageKind>(s) == StageKind::kBackbone) continue;
    EXPECT_EQ(r.stage_seconds[static_cast<std::size_t>(s)], 0.0)
        << to_string(static_cast<StageKind>(s));
  }
  EXPECT_EQ(r.stage_seconds[static_cast<std::size_t>(StageKind::kBackbone)],
            r.total_seconds);
  engine.run();
  expect_result_matches_registry(engine.result(), before_rebind,
                                 engine_stage_counters(), "rebind");
}

// ---- Trace export -----------------------------------------------------------

/// Minimal string-aware JSON structural validator: balanced {}/[],
/// properly terminated strings, no trailing garbage. (CI additionally
/// runs `python3 -m json.tool` on a real --trace file; this keeps the
/// check in-process for TSan runs.)
bool json_well_formed(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  std::size_t i = 0;
  for (; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      stack.push_back(c);
    } else if (c == '}' || c == ']') {
      if (stack.empty()) return false;
      const char open = stack.back();
      stack.pop_back();
      if ((c == '}') != (open == '{')) return false;
      if (stack.empty()) break;  // root value closed
    }
  }
  if (in_string || !stack.empty()) return false;
  for (++i; i < s.size(); ++i) {
    if (s[i] != ' ' && s[i] != '\n' && s[i] != '\t' && s[i] != '\r') {
      return false;
    }
  }
  return true;
}

/// Extracts the first complete event with the given name; returns false
/// when absent.
bool find_event(const std::string& json, const std::string& name, double* ts,
                double* dur) {
  const std::string needle = "\"name\":\"" + name + "\"";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  const std::size_t ts_at = json.find("\"ts\":", at);
  if (ts_at == std::string::npos) return false;
  return std::sscanf(json.c_str() + ts_at, "\"ts\":%lf,\"dur\":%lf", ts,
                     dur) == 2;
}

TEST(Trace, DisabledByDefaultAndSpansAreFree) {
  ASSERT_FALSE(obs::trace_enabled());
  const std::uint64_t before = obs::trace_span_count();
  {
    const obs::Span s("never.recorded");
    obs::emit_span("never.recorded", 0.001);
  }
  EXPECT_EQ(obs::trace_span_count(), before);
}

/// Records one trace of `work` and returns its JSON.
template <typename Work>
std::string trace_of(Work&& work) {
  obs::start_trace();
  work();
  obs::stop_trace();
  std::ostringstream os;
  obs::write_chrome_trace(os);
  return os.str();
}

/// Each named span occurs, and the first occurrences start in list order.
void expect_spans_in_order(const std::string& json,
                           const std::vector<std::string>& names) {
  double prev_ts = -1.0;
  for (const std::string& name : names) {
    double ts = 0.0, dur = 0.0;
    ASSERT_TRUE(find_event(json, name, &ts, &dur)) << name;
    EXPECT_GT(ts, prev_ts) << name;
    prev_ts = ts;
  }
}

TEST(Trace, ChromeJsonIsWellFormedAndSpansNest) {
  obs::start_trace();
  {
    const obs::Span outer("test.outer", "block", 7);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      const obs::Span inner("test.inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  obs::emit_span("test.retro \"quoted\"", 0.001);  // name needing escapes
  obs::stop_trace();

  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string json = os.str();

  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"block\":7}"), std::string::npos);
  EXPECT_NE(json.find("test.retro \\\"quoted\\\""), std::string::npos);

  double outer_ts = 0.0, outer_dur = 0.0, inner_ts = 0.0, inner_dur = 0.0;
  ASSERT_TRUE(find_event(json, "test.outer", &outer_ts, &outer_dur));
  ASSERT_TRUE(find_event(json, "test.inner", &inner_ts, &inner_dur));
  // Proper nesting: the inner complete event sits inside the outer one
  // (timestamps are µs; allow the 0.001 µs formatting quantum).
  constexpr double kEps = 0.01;
  EXPECT_GE(inner_ts + kEps, outer_ts);
  EXPECT_LE(inner_ts + inner_dur, outer_ts + outer_dur + kEps);
  EXPECT_GE(inner_dur, 1000.0);               // slept >= 2 ms
  EXPECT_GE(outer_dur, inner_dur + 2000.0);   // plus the outer sleeps

  // Stage order is a span property: each layer's stage spans start in
  // pipeline order.
  Rng rng(9);
  const Graph g = grid_2d(14, 14, WeightModel::log_uniform(0.1, 10.0), &rng);

  // Engine: one phase on the calling thread, first round's stages.
  expect_spans_in_order(
      trace_of([&] {
        Sparsifier engine(
            g, SparsifyOptions{}.with_sigma2(20.0).with_threads(1));
        engine.run();
      }),
      {"engine.backbone", "engine.solver-setup", "engine.spectral-estimate",
       "engine.embedding", "engine.filtering"});

  // Scale layer: the six driver stages, quality last.
  expect_spans_in_order(
      trace_of([&] {
        PartitionedOptions opts;
        opts.partitions = 3;
        opts.block.sigma2 = 60.0;
        opts.estimate_quality = true;
        (void)partitioned_sparsify(g, opts);
      }),
      {"scale.partition", "scale.extract", "scale.block-sparsify",
       "scale.cut-sparsify", "scale.stitch", "scale.quality"});

  // Dynamic layer: one batch, validation first and the engine run last.
  DynamicSparsifier dyn(
      g, DynamicOptions{}.with_base(SparsifyOptions{}.with_sigma2(30.0)));
  expect_spans_in_order(
      trace_of([&] {
        dyn.insert_edges(std::vector<Edge>{Edge{0, 15, 0.9}});
      }),
      {"dynamic.validate", "dynamic.apply-graph", "dynamic.tree-repair",
       "dynamic.rebind", "dynamic.sparsify"});
}

TEST(Trace, StartResetsAndCountsSpans) {
  obs::start_trace();
  obs::emit_span("test.one", 0.0001);
  obs::emit_span("test.two", 0.0001);
  EXPECT_EQ(obs::trace_span_count(), 2u);
  obs::start_trace();  // re-arm: rings reset
  EXPECT_EQ(obs::trace_span_count(), 0u);
  obs::stop_trace();
}

// ---- Determinism: observability must not change output ----------------------

Graph parity_graph() {
  Rng rng(11);
  return grid_2d(48, 48, WeightModel::log_uniform(0.1, 10.0), &rng);
}

TEST(Determinism, ObsOnVsOffBitIdenticalAtThreads1And4) {
  const Graph g = parity_graph();
  for (const int threads : {1, 4}) {
    set_default_threads(threads);
    const auto opts =
        SparsifyOptions{}.with_sigma2(100.0).with_seed(5).with_threads(
            threads);

    obs::set_metrics_enabled(false);
    const SparsifyResult off = sparsify(g, opts);

    obs::reset_metrics_for_tests();
    obs::set_metrics_enabled(true);
    obs::start_trace();
    const SparsifyResult on = sparsify(g, opts);
    obs::stop_trace();
    obs::set_metrics_enabled(false);

    // Bit-for-bit: edge ids, order, and every float byte.
    EXPECT_EQ(off.edges, on.edges) << "threads=" << threads;
    EXPECT_EQ(off.tree_edges, on.tree_edges) << "threads=" << threads;
    EXPECT_EQ(off.lambda_min, on.lambda_min) << "threads=" << threads;
    EXPECT_EQ(off.lambda_max, on.lambda_max) << "threads=" << threads;
    EXPECT_EQ(off.sigma2_estimate, on.sigma2_estimate)
        << "threads=" << threads;
    EXPECT_EQ(off.reached_target, on.reached_target) << "threads=" << threads;

    // And the instrumented run actually recorded something.
    EXPECT_GT(obs::trace_span_count(), 0u) << "threads=" << threads;
    EXPECT_GT(find_metric("engine.rounds").counter, 0u)
        << "threads=" << threads;
  }
  set_default_threads(0);
  obs::reset_metrics_for_tests();
}

// ---- Serve introspection verbs ----------------------------------------------

serve::ServeOptions obs_serve_options() {
  serve::ServeOptions opts;
  opts.dynamic.base = SparsifyOptions{}.with_sigma2(30.0).with_seed(42);
  return opts;
}

TEST(ServeIntrospection, StatsListsSessionsAndDetailsOne) {
  const MetricsOn on;
  serve::SessionManager manager(obs_serve_options());
  serve::Connection conn(manager);

  // Usage / error cases first.
  EXPECT_EQ(conn.handle_line("stats a b").status.rfind("err protocol:", 0),
            0u);
  EXPECT_EQ(conn.handle_line("stats nosuch").status.rfind("err ", 0), 0u);
  EXPECT_EQ(conn.handle_line("stats").status, "ok n=0");  // no sessions yet

  ASSERT_TRUE(
      serve::is_ok(conn.handle_line("open s1 gen:grid2d:6x6:7").status));
  ASSERT_TRUE(
      serve::is_ok(conn.handle_line("open s2 gen:grid2d:5x5:3").status));
  ASSERT_TRUE(serve::is_ok(conn.handle_line("reweight 0 1 2.5").status));
  ASSERT_TRUE(serve::is_ok(conn.handle_line("commit").status));

  const serve::Reply all = conn.handle_line("stats");
  EXPECT_EQ(all.status, "ok n=2");
  ASSERT_EQ(all.payload.size(), 2u);
  for (const std::string& line : all.payload) {
    EXPECT_EQ(line.rfind("session=s", 0), 0u) << line;
    EXPECT_NE(line.find(" sigma2="), std::string::npos) << line;
    EXPECT_NE(line.find(" queued=0"), std::string::npos) << line;
  }

  const serve::Reply one = conn.handle_line("stats s2");
  ASSERT_TRUE(serve::is_ok(one.status)) << one.status;
  EXPECT_EQ(serve::payload_count(one.status).value_or(0), one.payload.size());
  auto has = [&one](const std::string& prefix) {
    for (const std::string& line : one.payload) {
      if (line.rfind(prefix, 0) == 0) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("name=s2"));
  EXPECT_TRUE(has("commits=1"));
  EXPECT_TRUE(has("last.route="));
  EXPECT_TRUE(has("last.batch=1"));
  EXPECT_TRUE(has("last.stage.validate.seconds="));
  EXPECT_TRUE(has("last.stage.sparsify.seconds="));
}

TEST(ServeIntrospection, MetricsDumpsRegistrySorted) {
  const MetricsOn on;
  serve::SessionManager manager(obs_serve_options());
  serve::Connection conn(manager);

  EXPECT_EQ(conn.handle_line("metrics extra").status.rfind("err protocol:", 0),
            0u);

  ASSERT_TRUE(
      serve::is_ok(conn.handle_line("open s1 gen:grid2d:6x6:7").status));
  ASSERT_TRUE(serve::is_ok(conn.handle_line("reweight 0 1 2.5").status));
  ASSERT_TRUE(serve::is_ok(conn.handle_line("commit").status));

  const serve::Reply reply = conn.handle_line("metrics");
  ASSERT_TRUE(serve::is_ok(reply.status)) << reply.status;
  EXPECT_NE(reply.status.find(" enabled=1"), std::string::npos);
  EXPECT_EQ(serve::payload_count(reply.status).value_or(0),
            reply.payload.size());
  EXPECT_TRUE(
      std::is_sorted(reply.payload.begin(), reply.payload.end()));

  auto value_of = [&reply](const std::string& name) -> std::string {
    for (const std::string& line : reply.payload) {
      if (line.rfind(name + " ", 0) == 0) return line.substr(name.size() + 1);
    }
    return "";
  };
  EXPECT_EQ(value_of("serve.commits"), "1");
  EXPECT_EQ(value_of("serve.sessions.opened"), "1");
  EXPECT_EQ(value_of("serve.commit.latency_us.count"), "1");
  EXPECT_NE(value_of("serve.commit.latency_us.p50"), "");
  EXPECT_NE(value_of("serve.session.s1.commit_us.count"), "");
  EXPECT_NE(value_of("engine.rounds"), "");

  // Disabled registry still answers (with whatever was recorded).
  obs::set_metrics_enabled(false);
  const serve::Reply off = conn.handle_line("metrics");
  ASSERT_TRUE(serve::is_ok(off.status));
  EXPECT_NE(off.status.find(" enabled=0"), std::string::npos);
}

}  // namespace
}  // namespace ssp
