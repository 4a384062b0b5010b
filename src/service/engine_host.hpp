// The service entry point: one long-lived host serving many concurrently
// maintained Datalog programs on one shared runtime.
//
// Ownership shape (DESIGN.md §10):
//
//     EngineHost ──────────────► HostCore (shared)
//                                 ├─ TaskRouter ── ThreadPool (N workers)
//                                 ├─ MetricsRegistry (host.* / session.*)
//                                 └─ defaults (scheduler, queue bound)
//     Session "a" ─► program+strat / RelationStore / scheduler spec
//                    UpdateQueue ─► apply thread ─► router channel
//     Session "b" ─► ... (same pool, own everything else)
//
// Every Session owns its parsed+stratified program, its store, and
// its apply threads; the ONLY shared mutable state is the worker pool (via
// TaskRouter channels) and the metrics registry — both multi-tenant by
// construction.  Sessions hold the HostCore via
// shared_ptr, so a Session outliving its EngineHost stays valid (the pool
// joins when the last holder drops).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/task_router.hpp"

namespace dsched::service {

class Session;

/// Host-level configuration, fixed for the host's lifetime.
struct HostOptions {
  /// Workers in the one shared pool all sessions' cascades run on.
  std::size_t workers = 4;
  /// Router channel slots == max cascades in flight at once across all
  /// sessions (each session uses at most one at a time).
  std::size_t max_concurrent_updates = 256;
  /// Scheduler spec for sessions that don't pick their own.
  std::string default_scheduler = "hybrid";
  /// Maintenance strategy ("dred", "bf") for sessions that
  /// don't pick their own (datalog/maintenance.hpp).
  std::string default_strategy = "dred";
  /// Queue bound for sessions that don't pick their own.
  std::size_t default_queue_capacity = 64;
  /// Epoch-pipeline depth K for sessions that don't pick their own: how
  /// many update cascades one session may have in flight at once
  /// (DESIGN.md §12).  1 = the classic serialized-per-session apply loop.
  std::size_t default_pipeline_depth = 1;
};

/// Per-session configuration; zero/empty fields inherit host defaults.
struct SessionOptions {
  /// Metrics prefix ("session.<name>.*"); auto-named "s<id>" when empty.
  std::string name;
  /// Scheduler factory spec ("hybrid", "levelbased", "lbl:<k>",
  /// "logicblox", "signal") ordering this session's cascades on the shared
  /// pool.  Empty → host default.
  /// Unknown specs are rejected at OpenSession with an error listing the
  /// valid values.
  std::string scheduler_spec;
  /// Maintenance strategy spec ("dred", "bf"); empty → host
  /// default.  Unknown names are rejected at OpenSession with an error
  /// listing the valid values.
  std::string maintenance_strategy;
  /// Max queued-but-unapplied batches before Submit blocks.  0 → host
  /// default.
  std::size_t queue_capacity = 0;
  /// Epoch-pipeline depth K: up to K cascades of this session overlap on
  /// the shared pool, fenced per dependency level by a StratumFrontier
  /// (runtime/pipeline.hpp).  0 → host default.  Clamped to [1, 64].
  /// Futures still resolve in dense epoch order regardless of depth.
  std::size_t pipeline_depth = 0;
  /// Hard per-session memory ceiling, in accounted bytes: every cascade
  /// of this session (all K in-flight epochs together) meters its tasks'
  /// resource_utility against ONE shared runtime::ResourceAccount, and
  /// the executor defers dispatch of any task that would push the live
  /// total over this bound.  Exhaustion therefore surfaces as slower
  /// cascades — and ultimately as Submit blocking on the bounded queue —
  /// never as a failed update.  0 = no ceiling (accounting only).
  std::uint64_t memory_budget = 0;
};

namespace detail {

/// The state sessions share with (and may outlive) the host handle.
struct HostCore {
  explicit HostCore(const HostOptions& opts)
      : options(opts),
        router({.workers = opts.workers,
                .max_channels = opts.max_concurrent_updates}) {}

  const HostOptions options;
  runtime::TaskRouter router;
  obs::MetricsRegistry metrics;
  std::atomic<std::size_t> active_sessions{0};
  std::atomic<std::uint64_t> sessions_opened{0};

  /// Live-session registry for FindSession: id -> weak ref.  Sessions
  /// register at open (EngineHost::OpenSession) and unregister inside
  /// Close(), so a hit is always a session that has not finished closing.
  /// weak_ptr (not raw) is the TSan-clean lifetime story: a lookup that
  /// races the owner dropping its shared_ptr either locks a still-live
  /// control block or observes expiry — never a dangling pointer.
  std::mutex registry_mutex;
  std::map<std::uint64_t, std::weak_ptr<Session>> session_registry;

  void Register(std::uint64_t id, const std::shared_ptr<Session>& session) {
    const std::lock_guard<std::mutex> lock(registry_mutex);
    session_registry[id] = session;
  }
  void Unregister(std::uint64_t id) {
    const std::lock_guard<std::mutex> lock(registry_mutex);
    session_registry.erase(id);
  }
};

}  // namespace detail

/// Factory/owner of the shared runtime.  Thread-safe: sessions may be
/// opened from any thread.
class EngineHost {
 public:
  explicit EngineHost(const HostOptions& options = {});
  ~EngineHost() = default;

  EngineHost(const EngineHost&) = delete;
  EngineHost& operator=(const EngineHost&) = delete;

  /// Parses, validates, and stratifies `program_text` into a new session.
  /// Throws util::ParseError / util::InvalidArgument on bad programs or a
  /// bad scheduler spec ("oracle" is rejected — it cannot drive live
  /// updates).  The session is independent: drop it whenever, in any
  /// order relative to the host.  Shared ownership so concurrent routing
  /// paths (FindSession) can hold the session across its owner's drop.
  [[nodiscard]] std::shared_ptr<Session> OpenSession(
      std::string_view program_text, const SessionOptions& options = {});

  /// Looks up a live session by its numeric id (Session::Id()).  Returns
  /// null when the id was never assigned, the session was destroyed, or
  /// Close() has completed — lookup-after-close is a miss by contract.
  /// Thread-safe against concurrent opens, closes, and drops; the returned
  /// shared_ptr keeps the session alive for the caller regardless of what
  /// the opener does with its own handle.
  [[nodiscard]] std::shared_ptr<Session> FindSession(std::uint64_t id);

  /// Ids of every currently registered (open, not yet closed) session, in
  /// ascending order.
  [[nodiscard]] std::vector<std::uint64_t> ActiveSessionIds();

  [[nodiscard]] std::size_t NumWorkers() const {
    return core_->router.NumWorkers();
  }
  [[nodiscard]] std::size_t ActiveSessions() const {
    return core_->active_sessions.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const HostOptions& Options() const { return core_->options; }

  /// The host-wide registry sessions publish `session.<name>.*` into.
  [[nodiscard]] obs::MetricsRegistry& Metrics() { return core_->metrics; }

  /// Direct router access for advanced callers (benches wiring their own
  /// cascades onto the shared pool).
  [[nodiscard]] runtime::TaskRouter& Router() { return core_->router; }

  /// Publishes `host.*` gauges (workers, active_sessions, sessions_opened,
  /// pool.* counters) into Metrics().
  void ExportMetrics();

 private:
  std::shared_ptr<detail::HostCore> core_;
};

}  // namespace dsched::service
