// `updates`: a closed loop on the dynamic and serve layers, the only
// workload that writes. An in-process serve::Server listens on a unix
// socket with a state directory, so every commit is journaled and sessions
// checkpoint. Four client connections each rotate over their own sessions:
// two over small ones (where protocol, journal and lock costs are a visible
// share of a commit), two over medium ones (where the engine rerun
// dominates). Each client sends a batch of op lines, then `commit`, and
// waits for the reply before the next batch. Most batches are 8 reweights (the circuit-
// parameter pattern); every fifth inserts and deletes diagonal edges. Nearly
// every batch touches a backbone edge, so nearly all take the tree-repair
// route (dynamic.route.* in the traced run counts them).
//
// The window runs in slices of about a second. Between slices every client
// finishes its commit in flight and parks, and the speed probe runs while
// the program is idle; each commit's latency, and each slice's traffic time,
// is scaled by the probes on either side of its slice (speed_probe.hpp).
//
// After the window every session's live sparsifier must be bit-identical
// to replaying its on-disk journal offline through DynamicSparsifier (the
// serve determinism contract); that replay is also where the traced run
// times the dynamic layer's apply and its stages.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <memory>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "checks.hpp"
#include "dynamic/dynamic_sparsifier.hpp"
#include "dynamic/update_journal.hpp"
#include "graph/laplacian.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/session_store.hpp"
#include "spans.hpp"
#include "speed_probe.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kClients = 4;
/// Sessions each client rotates over: more sessions average the commit
/// cost over more graphs (a session's own cost depends on its weights).
constexpr int kSessionsPerSmallClient = 2;
constexpr int kSessionsPerMediumClient = 8;
constexpr int kOpsPerBatch = 8;
constexpr int kMixedEvery = 5;
/// Traffic time of one slice of the window, and the speed probes run (their
/// median taken) in each pause between slices.
constexpr double kSliceSeconds = 1.0;
constexpr int kProbesPerPause = 7;

struct SessionPlan {
  std::string name;
  std::string kind;  // "small" | "medium"
  int side = 0;
  bool triangulated = false;  ///< gen:tri (one diagonal per cell) vs gen:grid2d
  std::string source;
  [[nodiscard]] double edges() const {
    const double s = side;
    return 2.0 * s * (s - 1) + (triangulated ? (s - 1) * (s - 1) : 0.0);
  }
};

/// One client's record of its commits.
struct ClientLog {
  /// [phase]: (slice, client-side seconds) of each acked commit.
  std::vector<std::pair<int, double>> latency[2];
  std::vector<double> overhead;    // traced phase: client − server seconds
  double committed_edges = 0.0;    // Σ session |E| over acked commits
  int commits = 0;
  int attempted = 0;
  std::vector<std::string> failures;
};

double parse_seconds_field(const std::string& status) {
  const auto pos = status.find(" seconds=");
  if (pos == std::string::npos) return 0.0;
  return std::strtod(status.c_str() + pos + 9, nullptr);
}

std::string weight_text(double w) {
  std::ostringstream os;
  os.precision(17);
  os << w;
  return os.str();
}

/// Builds the next batch of op lines for a side×side session. Vertex (r, c)
/// has id r·side + c. The only edges ever inserted or deleted are cell
/// diagonals the generator did not place — (r,c)–(r+1,c+1) in a grid; in a
/// triangulated grid, whose cell (r, c) holds that diagonal when r + c is
/// even and the other one when odd, the missing one — so deletions never
/// disconnect the session graph.
std::vector<std::string> next_batch(const SessionPlan& plan, int batch, ssp::Rng& rng,
                                    std::set<std::pair<int, int>>& diagonals) {
  const int side = plan.side;
  std::vector<std::string> lines;
  std::set<std::pair<int, int>> touched;
  const bool mixed = batch % kMixedEvery == kMixedEvery - 1;
  if (mixed) {
    std::vector<std::pair<int, int>> inserted;
    for (int k = 0; k < 2; ++k) {
      const int r = static_cast<int>(rng.uniform_int(0, side - 2));
      const int c = static_cast<int>(rng.uniform_int(0, side - 2));
      const bool anti = plan.triangulated && (r + c) % 2 == 0;
      const std::pair<int, int> d = anti ? std::pair<int, int>{r * side + c + 1, (r + 1) * side + c}
                                         : std::pair<int, int>{r * side + c, (r + 1) * side + c + 1};
      if (diagonals.count(d) != 0 || touched.count(d) != 0) continue;
      touched.insert(d);
      inserted.push_back(d);
      lines.push_back("insert " + std::to_string(d.first) + ' ' +
                      std::to_string(d.second) + ' ' +
                      weight_text(rng.uniform(0.5, 2.0)));
    }
    for (int k = 0; k < 2 && !diagonals.empty(); ++k) {
      auto it = diagonals.begin();
      std::advance(it, rng.uniform_int(0, static_cast<std::int64_t>(diagonals.size()) - 1));
      lines.push_back("delete " + std::to_string(it->first) + ' ' +
                      std::to_string(it->second));
      diagonals.erase(it);
    }
    diagonals.insert(inserted.begin(), inserted.end());
  }
  while (static_cast<int>(lines.size()) < kOpsPerBatch) {
    const int r = static_cast<int>(rng.uniform_int(0, side - 1));
    const int c = static_cast<int>(rng.uniform_int(0, side - 2));
    const bool horizontal = rng.uniform() < 0.5;
    const std::pair<int, int> e =
        horizontal ? std::pair<int, int>{r * side + c, r * side + c + 1}
                   : std::pair<int, int>{c * side + r, (c + 1) * side + r};
    if (!touched.insert(e).second) continue;
    const double w = std::exp(rng.uniform(std::log(0.1), std::log(10.0)));
    lines.push_back("reweight " + std::to_string(e.first) + ' ' +
                    std::to_string(e.second) + ' ' + weight_text(w));
  }
  return lines;
}

/// Lets clients through while a slice of the window runs, and parks them
/// between slices so that the speed probe runs on an idle program.
class SliceGate {
 public:
  explicit SliceGate(int clients) : clients_(clients) {}

  /// Client side, before each batch: blocks while the gate is closed.
  /// Returns the running slice, or -1 once the window is over.
  int pass() {
    std::unique_lock<std::mutex> lock(mu_);
    if (open_) return slice_;
    ++parked_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_ || done_; });
    --parked_;
    return done_ ? -1 : slice_;
  }
  /// Client side: this client stops taking part (it ended or failed).
  void leave() {
    const std::lock_guard<std::mutex> lock(mu_);
    --clients_;
    cv_.notify_all();
  }
  void open(int slice) {
    const std::lock_guard<std::mutex> lock(mu_);
    slice_ = slice;
    open_ = true;
    cv_.notify_all();
  }
  /// Closes the gate and waits until every client has parked.
  void close_and_drain() {
    std::unique_lock<std::mutex> lock(mu_);
    open_ = false;
    cv_.wait(lock, [&] { return parked_ >= clients_; });
  }
  void finish() {
    const std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int clients_;
  int parked_ = 0;
  int slice_ = -1;
  bool open_ = false;
  bool done_ = false;
};

/// One client: round-robin over its own sessions, one batch + commit each.
void run_client(const std::string& socket_path,
                const std::vector<const SessionPlan*>& sessions, std::uint64_t seed,
                SliceGate& gate, const std::atomic<int>& phase, ClientLog& log) {
  std::string current = sessions.front()->name;
  try {
    ssp::serve::ServeClient conn = ssp::serve::ServeClient::connect_unix(socket_path);
    ssp::Rng rng(seed);
    std::map<std::string, std::set<std::pair<int, int>>> diagonals;
    std::map<std::string, int> batches;
    for (std::size_t k = 0;; ++k) {
      const int slice = gate.pass();
      if (slice < 0) break;
      const SessionPlan& plan = *sessions[k % sessions.size()];
      current = plan.name;
      const int ph = phase.load();
      OpScope op;
      ++log.attempted;
      bool ok = true;
      if (k < sessions.size() || sessions.size() > 1) {
        Span s("serve.request");
        const ssp::serve::ClientResponse r = conn.request("attach " + plan.name);
        if (!r.ok()) {
          log.failures.push_back(plan.name + ": attach: " + r.status);
          continue;
        }
      }
      for (const std::string& line :
           next_batch(plan, batches[plan.name]++, rng, diagonals[plan.name])) {
        Span s("serve.request");
        const ssp::serve::ClientResponse r = conn.request(line);
        if (!r.ok()) {
          log.failures.push_back(plan.name + ": '" + line + "': " + r.status);
          ok = false;
        }
      }
      Span commit("serve.commit");
      ssp::serve::ClientResponse r;
      {
        Span s("serve.request");
        r = conn.request("commit");
      }
      const double secs = commit.close();
      if (!r.ok()) {
        log.failures.push_back(plan.name + ": commit: " + r.status);
        ok = false;
      }
      if (!ok) continue;
      ++log.commits;
      log.committed_edges += plan.edges();
      log.latency[ph].emplace_back(slice, secs);
      if (ph == 1) log.overhead.push_back(secs - parse_seconds_field(r.status));
    }
    (void)conn.request("quit");
  } catch (const std::exception& e) {
    log.failures.push_back(current + ": " + e.what());
  }
  gate.leave();
}

bool same_edges(const std::vector<ssp::Edge>& a, const std::vector<ssp::Edge>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].u != b[i].u || a[i].v != b[i].v ||
        std::memcmp(&a[i].weight, &b[i].weight, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Offline replay of one session journal; returns the per-batch stats.
std::vector<ssp::UpdateStats> replay_journal(const std::string& journal_path,
                                             const ssp::DynamicOptions& opts,
                                             std::vector<ssp::Edge>& edges) {
  const ssp::serve::StoredSession stored = ssp::serve::read_stored_session(journal_path);
  const ssp::Graph g = ssp::serve::load_session_graph(stored.source);
  ssp::DynamicSparsifier dyn(g, opts);
  std::vector<ssp::UpdateStats> stats;
  for (const ssp::JournalBatch& b : stored.batches) {
    OpScope op;
    Span s("dynamic.apply");
    stats.push_back(dyn.apply(ssp::resolve_journal_batch(dyn.graph(), b)));
  }
  edges.clear();
  for (const ssp::EdgeId e : dyn.result().edges) edges.push_back(dyn.graph().edge(e));
  return stats;
}

}  // namespace

void run_updates(const RunConfig& cfg, WorkloadResult& out) {
  // Clients 0 and 2 drive small sessions, 1 and 3 medium ones. Session
  // sides are spread evenly over a range that is the same for every seed
  // (small 20-26, medium 40-55): with one size per kind, a kind's median
  // commit jumped between the round-count clusters of its few graphs.
  const int small_lo = cfg.smoke ? 8 : 20, small_hi = cfg.smoke ? 8 : 26;
  const int medium_lo = cfg.smoke ? 12 : 40, medium_hi = cfg.smoke ? 12 : 55;
  std::vector<SessionPlan> plans;
  std::vector<int> owner;
  const ssp::Rng root(cfg.seed);
  for (int c = 0; c < kClients; ++c) {
    const bool is_small = c % 2 == 0;
    const int count = is_small ? kSessionsPerSmallClient : kSessionsPerMediumClient;
    for (int k = 0; k < count; ++k) {
      SessionPlan p;
      p.kind = is_small ? "small" : "medium";
      // Rung of this session on its kind's size range (clients interleave).
      const int rung = c / 2 + 2 * k, rungs = 2 * count - 1;
      p.side = is_small ? small_lo + (small_hi - small_lo) * rung / rungs
                        : medium_lo + (medium_hi - medium_lo) * rung / rungs;
      p.triangulated = !is_small;
      p.name = p.kind + std::to_string(c) + "-" + std::to_string(k);
      const std::uint64_t graph_seed =
          1 + root.split(static_cast<std::uint64_t>(c)).split(static_cast<std::uint64_t>(k))
                  .uniform_int(0, 1 << 30);
      p.source = std::string(p.triangulated ? "gen:tri:" : "gen:grid2d:") + std::to_string(p.side) + 'x' + std::to_string(p.side) + ':' +
                 std::to_string(graph_seed);
      plans.push_back(p);
      owner.push_back(c);
    }
  }
  for (const SessionPlan& p : plans) {
    out.note("input." + p.name, std::to_string(p.side * p.side) + " vertices, " +
                                    std::to_string(static_cast<long long>(p.edges())) + " edges (" +
                                    p.source + ")");
  }

  const std::string socket_path = cfg.work_dir + "/serve.sock";
  const std::string state_dir = cfg.work_dir + "/state";
  // Every session runs the serve default engine seed; graphs and batches
  // are what --seed varies.
  const ssp::DynamicOptions dyn_opts = ssp::DynamicOptions{}.with_base(
      ssp::SparsifyOptions{}.with_sigma2(kSigma2).with_seed(42).with_threads(kEngineThreads));
  ssp::serve::ServerConfig server_config;
  server_config.socket_path = socket_path;
  server_config.max_clients = kClients + 2;
  server_config.serve = ssp::serve::ServeOptions{}
                            .with_dynamic(dyn_opts)
                            .with_max_sessions(static_cast<ssp::Index>(plans.size()))
                            .with_state_dir(state_dir);

  // Set-up: server start plus every session open (the initial
  // sparsification), repeated; the last server carries the traffic.
  std::unique_ptr<ssp::serve::Server> server;
  std::vector<double> setup_times;
  SpeedProbe probe;
  for (int rep = 0; rep < kServeSetupRepeats; ++rep) {
    if (server) {
      server->request_stop();
      server->wait();
      server.reset();
    }
    std::filesystem::remove_all(state_dir);
    // Each step is timed between two probes: the server is idle between
    // the admin client's requests.
    double total = 0.0;
    double probe_before = probe.run();
    const auto timed_step = [&](const std::function<void()>& step) {
      Span s("setup");
      step();
      const double secs = s.close();
      const double probe_after = probe.run();
      total += SpeedProbe::normalize(secs, probe_before, probe_after);
      probe_before = probe_after;
    };
    std::unique_ptr<ssp::serve::ServeClient> admin;
    timed_step([&] {
      server = std::make_unique<ssp::serve::Server>(server_config);
      server->start();
      admin = std::make_unique<ssp::serve::ServeClient>(
          ssp::serve::ServeClient::connect_unix(socket_path));
    });
    for (const SessionPlan& p : plans) {
      ++out.attempted;
      timed_step([&] {
        const ssp::serve::ClientResponse r = admin->request("open " + p.name + ' ' + p.source);
        if (!r.ok()) out.fail("open " + p.name + ": " + r.status);
      });
    }
    (void)admin->request("quit");
    setup_times.push_back(total);
  }
  out.set("setup_s", median(setup_times), "s");
  if (out.failed != 0) {
    server->request_stop();
    server->wait();
    return;
  }

  // Measured window. A traced run spends its first half untraced (the
  // overhead baseline) and its second half with spans and the registry on.
  std::atomic<int> phase{0};
  std::vector<ClientLog> logs(kClients);
  SliceGate gate(kClients);
  const double rss_start = begin_rss_window(out);
  const std::int64_t start = SpanStore::instance().now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(cfg.seconds * 1e9);
  RegistrySnapshot before;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    std::vector<const SessionPlan*> mine;
    for (std::size_t i = 0; i < plans.size(); ++i) {
      if (owner[i] == c) mine.push_back(&plans[i]);
    }
    clients.emplace_back([&, c, mine] {
      run_client(socket_path, mine,
                 root.split(100 + static_cast<std::uint64_t>(c)).uniform_int(0, 1 << 30), gate,
                 phase, logs[static_cast<std::size_t>(c)]);
    });
  }
  // probes[i] and probes[i + 1] bracket slice i; traffic[i] is its time
  // from opening the gate until every client parked again. The first probe
  // waits until every client has connected and parked.
  gate.close_and_drain();
  std::vector<double> probes{probe.median_of(kProbesPerPause)}, traffic;
  for (int slice = 0; SpanStore::instance().now_ns() < end; ++slice) {
    if (cfg.trace && phase.load() == 0 &&
        SpanStore::instance().now_ns() - start >= (end - start) / 2) {
      before = RegistrySnapshot::take();
      SpanStore::instance().set_enabled(true);
      ssp::obs::set_metrics_enabled(true);
      phase.store(1);
    }
    const std::int64_t open_ns = SpanStore::instance().now_ns();
    gate.open(slice);
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::min(kSliceSeconds, 1e-9 * static_cast<double>(end - open_ns))));
    gate.close_and_drain();
    traffic.push_back(1e-9 * static_cast<double>(SpanStore::instance().now_ns() - open_ns));
    probes.push_back(probe.median_of(kProbesPerPause));
  }
  gate.finish();
  for (std::thread& t : clients) t.join();
  if (!cfg.trace) end_rss_window(rss_start, out);
  const RegistryDelta reg(before, RegistrySnapshot::take());
  // Probe time over slice i, and the window's traffic time at reference
  // speed.
  const auto slice_probe = [&](int i) {
    return 0.5 * (probes[static_cast<std::size_t>(i)] + probes[static_cast<std::size_t>(i) + 1]);
  };
  double window = 0.0;
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    window += traffic[i] * SpeedProbe::kReferenceSeconds / slice_probe(static_cast<int>(i));
  }

  // Live state of every session, then a graceful stop (final checkpoints).
  std::vector<std::vector<ssp::Edge>> live(plans.size());
  std::vector<ssp::serve::SessionInfo> infos(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const auto session = server->sessions().attach(plans[i].name);
    live[i] = session->sparsifier_edges();
    infos[i] = session->info();
  }
  server->request_stop();
  server->wait();
  server.reset();

  // Small sessions commit thousands of times per window, medium ones a few
  // hundred: p90 and p75 each leave well over ten commits beyond, and
  // stay clear of the rare stalls a shared host adds to a p99.
  KindSamples samples[2], raw;
  for (KindSamples& ks : samples) {
    ks.plan_tail("small", 90.0);
    ks.plan_tail("medium", 75.0);
  }
  std::vector<double> overhead;
  // Acked commits and committed session edges per kind (small, medium).
  std::map<std::string, double> commits, committed_edges;
  for (int c = 0; c < kClients; ++c) {
    const ClientLog& log = logs[static_cast<std::size_t>(c)];
    const std::string kind = c % 2 == 0 ? "small" : "medium";
    out.attempted += log.attempted;
    for (const std::string& f : log.failures) out.fail(f);
    for (int ph = 0; ph < 2; ++ph) {
      for (const auto& [slice, secs] : log.latency[ph]) {
        samples[ph].add(kind, secs * SpeedProbe::kReferenceSeconds / slice_probe(slice));
        if (ph == 0) raw.add(kind, secs);
      }
    }
    overhead.insert(overhead.end(), log.overhead.begin(), log.overhead.end());
    commits[kind] += log.commits;
    committed_edges[kind] += log.committed_edges;
  }

  // Determinism contract: live snapshot == offline journal replay.
  std::vector<std::vector<ssp::UpdateStats>> replayed(plans.size());
  {
    std::vector<std::thread> workers;
    std::vector<std::vector<ssp::Edge>> offline(plans.size());
    std::vector<std::string> errors(plans.size());
    // Sessions replay independently; kClients workers take them in turn.
    std::atomic<std::size_t> next{0};
    for (int w = 0; w < kClients; ++w) {
      workers.emplace_back([&] {
        for (std::size_t i = next++; i < plans.size(); i = next++) {
          try {
            replayed[i] = replay_journal(
                ssp::serve::session_journal_path(state_dir, plans[i].name), dyn_opts, offline[i]);
          } catch (const std::exception& e) {
            errors[i] = e.what();
          }
        }
      });
    }
    for (std::thread& t : workers) t.join();
    for (std::size_t i = 0; i < plans.size(); ++i) {
      if (!errors[i].empty()) {
        out.fail(plans[i].name + ": journal replay: " + errors[i]);
      } else if (!same_edges(live[i], offline[i])) {
        out.fail(plans[i].name + ": live sparsifier differs from offline journal replay");
      }
    }
  }

  // Quality of the final session states.
  {
    std::vector<double> epv, iters;
    double worst = 0.0;
    int false_claims = 0;
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const ssp::serve::StoredSession stored = ssp::serve::read_stored_session(
          ssp::serve::session_journal_path(state_dir, plans[i].name));
      ssp::Graph g = ssp::serve::load_session_graph(stored.source);
      for (const ssp::JournalBatch& b : stored.batches) {
        ssp::apply_batch_to_graph(g, ssp::resolve_journal_batch(g, b));
      }
      ssp::Graph p(g.num_vertices());
      for (const ssp::Edge& e : live[i]) p.add_edge(e.u, e.v, e.weight);
      p.finalize();
      epv.push_back(static_cast<double>(live[i].size()) / g.num_vertices());
      try {
        const Kappa k = independent_kappa(g, p);
        out.note("kappa." + plans[i].name,
                 std::to_string(k.value) + (k.exact ? " (dense, exact)" : " (estimate)"));
        worst = std::max(worst, k.value);
        if (infos[i].reached_target && k.value > kSigma2) ++false_claims;
        iters.push_back(solve_iterations(g, p));
      } catch (const std::exception& e) {
        out.fail(plans[i].name + ": quality check: " + e.what());
      }
    }
    double mean_epv = 0.0;
    for (const double v : epv) mean_epv += v;
    out.set("edges_per_vertex", mean_epv / static_cast<double>(epv.size()), "ratio");
    out.set("kappa_ratio", worst / kSigma2, "ratio");
    out.set("solve_iters", median(iters), "count");
    out.set("false_claims", false_claims, "count");
  }
  std::filesystem::remove_all(state_dir);

  if (!cfg.trace) {
    out.set("op_ms_p50", 1e3 * samples[0].median_of_kinds(), "ms");
    out.set("op_ms_tail", 1e3 * samples[0].tail_of_kinds(), "ms");
    // Rates combine across kinds like the latencies (geo_mean), so the
    // thousands of small commits do not drown the medium sessions' rate.
    std::vector<double> commit_rates, edge_rates;
    for (const auto& [kind, n] : commits) {
      commit_rates.push_back(per_second(n, window));
      edge_rates.push_back(per_second(committed_edges[kind], window));
    }
    out.set("ops_per_s", geo_mean(commit_rates), "1/s");
    out.note("probe.ms_p50", std::to_string(1e3 * median(probes)) + " over " +
                                 std::to_string(probes.size()) + " pauses (reference " +
                                 std::to_string(1e3 * SpeedProbe::kReferenceSeconds) + ")");
    double raw_traffic = 0.0;
    for (const double t : traffic) raw_traffic += t;
    out.note("window.traffic_s", std::to_string(raw_traffic) + " wall, " +
                                     std::to_string(window) + " at reference speed");
    out.set("input_edges_per_s", geo_mean(edge_rates), "edges/s");
    for (const auto& [kind, v] : samples[0].by_kind()) {
      const TailPoint t = planned_tail(v, samples[0].tail_percentile(kind));
      out.note("commits." + kind, std::to_string(v.size()) + " commits, p50 " +
                                      std::to_string(1e3 * median(v)) + " ms, p" +
                                      std::to_string(t.percentile) + " " +
                                      std::to_string(1e3 * t.value) + " ms (" +
                                      std::to_string(t.beyond) + " beyond), raw wall p50 " +
                                      std::to_string(1e3 * median(raw.by_kind().at(kind))) + " ms");
    }
    return;
  }

  const SpanStore& store = SpanStore::instance();
  const double traced_commits = std::max<double>(1.0, static_cast<double>(samples[1].count()));
  out.set("serve.request_ms", 1e3 * median(store.seconds_of("serve.request")), "ms");
  out.set("serve.commit_server_us_p50", reg.histogram_percentile("serve.commit.latency_us", 0.5), "us");
  out.set("serve.overhead_ms", 1e3 * median(overhead), "ms");
  out.set("serve.backpressure_rejections", reg.get("serve.backpressure.rejections"), "count");
  out.set("serve.admission_rejections", reg.get("serve.admission.rejections"), "count");
  out.set("storage.checkpoint_saves", reg.get("storage.checkpoint.saves") / traced_commits, "count");
  out.set("storage.checkpoint_bytes_written",
          reg.get("storage.checkpoint.bytes_written") / traced_commits, "B");

  // Dynamic layer, from the offline replay of the medium sessions (where
  // the engine rerun dominates); routes and swaps over every session.
  std::vector<double> apply_s;
  std::vector<double> stage_s[ssp::kNumDynamicStages];
  double routes[3] = {0, 0, 0}, swaps = 0;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    for (const ssp::UpdateStats& s : replayed[i]) {
      routes[static_cast<int>(s.route)] += 1;
      swaps += static_cast<double>(s.tree_swaps);
      if (plans[i].kind != "medium") continue;
      apply_s.push_back(s.seconds);
      for (int k = 0; k < ssp::kNumDynamicStages; ++k) stage_s[k].push_back(s.stage_seconds[static_cast<std::size_t>(k)]);
    }
  }
  out.set("dynamic.apply_s", median(apply_s), "s");
  const char* stage_names[ssp::kNumDynamicStages] = {"validate", "apply-graph", "tree-repair", "rebind", "sparsify"};
  for (int k = 0; k < ssp::kNumDynamicStages; ++k) {
    out.set(std::string("dynamic.stage.") + stage_names[k] + "_s", median(stage_s[k]), "s");
  }
  out.set("dynamic.route.resparsify", routes[static_cast<int>(ssp::UpdateRoute::kResparsify)], "count");
  out.set("dynamic.route.tree-repair", routes[static_cast<int>(ssp::UpdateRoute::kTreeRepair)], "count");
  out.set("dynamic.route.rebuild", routes[static_cast<int>(ssp::UpdateRoute::kRebuild)], "count");
  out.set("dynamic.tree_swaps", swaps, "count");

  std::vector<double> overheads;
  for (const auto& [kind, v] : samples[1].by_kind()) {
    const auto it = samples[0].by_kind().find(kind);
    if (it != samples[0].by_kind().end()) overheads.push_back(median(v) / median(it->second));
  }
  out.set("obs.trace_overhead", geo_mean(overheads) - 1.0, "ratio");
}

}  // namespace perfbench
