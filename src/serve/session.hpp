#pragma once

/// \file session.hpp
/// Multi-tenant session state of the sparsification service: a `Session`
/// wraps one `DynamicSparsifier` plus its committed journal and
/// per-session telemetry; a `SessionManager` owns many named sessions
/// behind admission control (max sessions, per-session commit queue caps
/// with backpressure responses).
///
/// Concurrency model: any number of client threads may call into one
/// session; commits are FIFO-serialized on a per-session apply lock (the
/// journal records the actual apply order), and each apply fans its
/// engine work out across the process-wide `ssp::ThreadPool` exactly like
/// an offline run. Backpressure: a commit that finds `max_queued_batches`
/// commits already queued or applying is rejected *before* waiting, so a
/// client sees `err backpressure` instead of an unbounded stall.
///
/// Determinism contract (inherited from the dynamic layer): whatever
/// interleaving of client commits a session observes, its sparsifier is
/// bit-identical to replaying the session's committed journal offline
/// through `ssp_sparsify --update-file` on the same base options — the
/// journal is written in apply order, batch seeds derive from the batch
/// index, and thread counts never change a bit of output.

#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "dynamic/dynamic_sparsifier.hpp"
#include "dynamic/update_journal.hpp"
#include "graph/graph.hpp"
#include "storage/checkpoint.hpp"

namespace ssp::serve {

/// Engine + admission-control configuration of the daemon.
struct ServeOptions {
  /// Per-session engine options (every session gets the same base; the
  /// per-batch seed derivation is the dynamic layer's).
  DynamicOptions dynamic;
  /// Admission control: `open` beyond this many live sessions is refused.
  Index max_sessions = 64;
  /// Per-session cap on commits queued or applying; the commit that would
  /// exceed it gets a backpressure error instead of waiting.
  Index max_queued_batches = 8;
  /// Graceful-drain budget on shutdown: how long the server waits for
  /// in-flight commits before force-closing connections.
  double drain_seconds = 5.0;
  /// Session persistence directory (see session_store.hpp). Empty (the
  /// default) disables persistence; non-empty makes every session journal
  /// its commits to disk, checkpoint its sparsifier, and reopen warm on
  /// the next start — bit-identical to a never-restarted daemon.
  std::string state_dir;
  /// With persistence on: write a sparsifier checkpoint every N commits
  /// (a final one is always written on graceful close). Smaller = less
  /// journal tail to replay after a hard kill, more checkpoint I/O.
  Index checkpoint_every = 16;

  /// Throws std::invalid_argument on the first violated constraint
  /// (including dynamic.validate()).
  void validate() const;

  ServeOptions& with_dynamic(DynamicOptions opts);
  ServeOptions& with_max_sessions(Index n);
  ServeOptions& with_max_queued_batches(Index n);
  ServeOptions& with_drain_seconds(double seconds);
  ServeOptions& with_state_dir(std::string dir);
  ServeOptions& with_checkpoint_every(Index n);
};

/// Per-session persistence wiring (paths live in
/// `ServeOptions::state_dir`; see session_store.hpp). Default-constructed
/// = persistence off.
struct SessionPersist {
  std::string journal_path;     ///< empty = no persistence
  std::string checkpoint_path;
  Index checkpoint_every = 16;

  [[nodiscard]] bool enabled() const { return !journal_path.empty(); }
};

/// Outcome of Session::commit.
struct CommitOutcome {
  bool accepted = false;  ///< false = backpressure (state untouched)
  Index queued = 0;       ///< commits queued/applying at rejection time
  UpdateStats stats{};    ///< valid iff accepted
};

/// Aggregate read-side view of one session.
struct SessionInfo {
  Vertex vertices = 0;
  EdgeId graph_edges = 0;
  EdgeId sparsifier_edges = 0;
  double sigma2_estimate = 0.0;
  double lambda_min = 0.0;
  double lambda_max = 0.0;
  bool reached_target = false;
  Index batches = 0;           ///< dynamic-layer batches incl. initial build
  Index commits = 0;           ///< committed (non-empty) client batches
  double last_seconds = 0.0;   ///< wall time of the latest batch
  double total_seconds = 0.0;  ///< summed batch wall time incl. build
  UpdateRoute last_route = UpdateRoute::kRebuild;
};

/// One named graph session: an evolving graph + its live sparsifier +
/// the journal of every committed batch. Thread-safe; see the file
/// comment for the serialization and backpressure rules.
class Session {
 public:
  /// Binds to `g` (finalized, connected) and runs the initial
  /// sparsification eagerly — construction is the expensive step. With
  /// `persist` enabled, the journal file must already exist (the manager
  /// writes its header before constructing the session).
  Session(std::string name, const Graph& g, const DynamicOptions& opts,
          Index max_queued_batches, SessionPersist persist = {});

  /// Warm restore from on-disk state: `g` is the freshly loaded source
  /// graph, `batches` the committed journal, `ckpt` the latest
  /// checkpoint (nullptr when none was written yet). The graph is
  /// fast-forwarded to the checkpointed batch without re-sparsifying
  /// (dynamic/apply_batch_to_graph + DynamicRestoreState); only the
  /// journal tail past `ckpt->commits` replays through full applies.
  /// The resulting session is bit-identical to one that never restarted.
  Session(std::string name, const Graph& g, const DynamicOptions& opts,
          Index max_queued_batches,
          const storage::SparsifierCheckpoint* ckpt,
          std::span<const JournalBatch> batches, SessionPersist persist);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Applies one committed batch (already parsed, endpoint-addressed).
  /// Resolution/validation failures throw std::runtime_error /
  /// std::invalid_argument and leave every bit of state untouched; a full
  /// queue returns `accepted = false` instead. `batch` must be non-empty.
  CommitOutcome commit(const JournalBatch& batch);

  /// The committed journal in apply order: each batch's canonical op
  /// lines followed by `commit` — exactly what `ssp_sparsify
  /// --update-file` replays to the same bits.
  [[nodiscard]] std::vector<std::string> journal_lines() const;

  /// The sparsifier's edges materialized as `(u, v, w)` rows.
  [[nodiscard]] std::vector<Edge> sparsifier_edges() const;

  /// Aggregate telemetry + quality view.
  [[nodiscard]] SessionInfo info() const;

  /// Commits queued or applying right now (the `stats` verb's queue
  /// depth; bounded by max_queued_batches).
  [[nodiscard]] Index queued() const;

  /// Per-stage breakdown of the latest batch (the dynamic layer's
  /// UpdateStats, including the initial build as batch 0).
  [[nodiscard]] UpdateStats last_update() const;

  /// Writes the sparsifier as a symmetric .mtx — byte-identical to
  /// `ssp_sparsify --update-file <journal> --out <path>` on the committed
  /// journal.
  void snapshot_mtx(const std::string& path) const;

  /// Marks the session closed: every later call fails. Blocks until the
  /// applying commit (if any) finishes.
  void close();

  [[nodiscard]] bool closed() const;

  /// Per-batch hook (`DynamicObserver::on_update`) pass-through to the
  /// underlying DynamicSparsifier. Attach before traffic starts; the
  /// observer must outlive the session.
  void set_observer(DynamicObserver* observer);

 private:
  void require_open_locked() const;  ///< throws when closed_
  /// Builds the restored dynamic layer: fast-forwards a copy of `g`
  /// through the checkpointed batches' graph mutations, then restores
  /// the sparsifier state without running it.
  [[nodiscard]] static DynamicSparsifier make_restored(
      const Graph& g, const DynamicOptions& opts,
      const storage::SparsifierCheckpoint* ckpt,
      std::span<const JournalBatch> batches);
  /// Appends one committed batch's lines to the journal file (flushed).
  /// Caller holds apply_mu_.
  void persist_batch_locked(const JournalBatch& batch);
  /// Writes the sparsifier checkpoint at the current commit count.
  /// Caller holds apply_mu_.
  void persist_checkpoint_locked();

  const std::string name_;
  const Index max_queued_batches_;
  const SessionPersist persist_;

  mutable std::mutex admit_mu_;  ///< guards pending_ + closed_
  Index pending_ = 0;            ///< commits queued or applying
  bool closed_ = false;

  mutable std::mutex apply_mu_;  ///< serializes applies and reads
  DynamicSparsifier dyn_;
  std::vector<std::string> journal_;
  Index commits_ = 0;
  std::ofstream journal_file_;  ///< append handle, opened lazily
};

/// Builds a session graph from `source`: a Matrix Market path, or a
/// generator spec
///
/// ```
/// gen:grid2d:<nx>x<ny>[:<seed>]    % 2-D grid, log-uniform weights
/// gen:tri:<nx>x<ny>[:<seed>]      % triangulated grid, uniform weights
/// gen:ba:<n>:<m>[:<seed>]         % preferential attachment, unit weights
/// gen:planted:<n>:<k>[:<seed>]    % planted partition, uniform weights
/// ```
///
/// The same spec always yields the same graph (explicit seed, default 1).
/// Throws std::invalid_argument on malformed specs, std::runtime_error on
/// unreadable files.
[[nodiscard]] Graph load_session_graph(const std::string& source);

/// Named-session table with admission control. Thread-safe.
class SessionManager {
 public:
  explicit SessionManager(ServeOptions opts);

  [[nodiscard]] const ServeOptions& options() const { return opts_; }

  /// Creates (and returns) a session — the expensive graph load + initial
  /// sparsification runs outside the table lock, so concurrent opens of
  /// *different* names overlap. Throws on duplicate/invalid names, a full
  /// table, or a failing load.
  std::shared_ptr<Session> open(const std::string& name,
                                const std::string& source);

  /// Looks up an open session; throws std::runtime_error when unknown or
  /// still opening.
  [[nodiscard]] std::shared_ptr<Session> attach(const std::string& name) const;

  /// Closes and removes a session (live attachments see "closed" errors).
  /// With persistence on, this is the *explicit teardown* path: the
  /// session's journal and checkpoint files are deleted — a client-closed
  /// session does not resurrect on the next start.
  void close(const std::string& name);

  /// Open session names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  [[nodiscard]] Index size() const;

  /// Closes every session (shutdown path) — blocks on in-flight commits.
  /// On-disk state is kept (each close writes a final checkpoint), so
  /// the next start restores every session warm.
  void close_all();

  /// Restores every session persisted in `state_dir` (no-op when
  /// persistence is off or the directory is empty). Returns the restored
  /// names. Call before serving traffic; throws on corrupt state files
  /// (SspbError / JournalParseError name the exact offset or line).
  std::vector<std::string> restore_all();

 private:
  /// Persistence wiring for `name` (empty paths when state_dir is unset).
  [[nodiscard]] SessionPersist persist_for(const std::string& name) const;

  const ServeOptions opts_;
  mutable std::mutex mu_;
  /// nullptr value = name reserved by an in-progress open.
  std::map<std::string, std::shared_ptr<Session>> sessions_;
};

}  // namespace ssp::serve
