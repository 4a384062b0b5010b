// End-to-end executor dispatch-throughput benchmark.
//
// Measures tasks/sec and the sched_wall_seconds share of wall time for the
// batched work-stealing executor across wide / deep / diamond DAGs, all
// real scheduler policies, and 1..8 workers — against a faithful copy of
// the PRE-CHANGE executor (single-mutex FIFO pool, one PopReady per lock
// acquisition, per-task completion notify) kept below under
// namespace legacy.  Emits BENCH_executor.json so future PRs can track the
// trajectory.
//
// The batched engine runs each cell on a fresh TaskRouter of `workers`
// threads (the executor's only entry point); its steal/sleep/wakeup
// columns are that router's pool counters.  The window_adjusts /
// final_window columns show what the adaptive dispatch-window controller
// decided.
//
// Usage: micro_executor [--out=BENCH_executor.json] [--scale=1.0]
//                       [--trace=out.json]
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "graph/digraph_builder.hpp"
#include "runtime/executor.hpp"
#include "sched/factory.hpp"
#include "trace/generators.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace dsched::bench {

/// Burns roughly `iters` iterations of fake task work on the calling
/// worker.  A non-null task grain makes the overhead *share* of wall time
/// meaningful: with null bodies both engines' wall is pure overhead and
/// the ratio is dominated by single-core preemption noise.
inline void SpinWork(std::size_t iters) {
  volatile std::size_t sink = 0;
  for (std::size_t i = 0; i < iters; ++i) {
    sink = sink + 1;
  }
}

namespace legacy {

// --- The pre-change pool: one FIFO, one mutex, one cv, std::function jobs.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t workers) {
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }
  ~ThreadPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      shutting_down_ = true;
    }
    work_available_.notify_all();
    for (std::thread& worker : workers_) {
      worker.join();
    }
  }
  void Submit(std::function<void()> job) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(job));
    }
    work_available_.notify_one();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    all_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
  }

 private:
  void WorkerLoop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_available_.wait(
            lock, [this] { return shutting_down_ || !queue_.empty(); });
        if (queue_.empty()) {
          return;
        }
        job = std::move(queue_.front());
        queue_.pop_front();
        ++in_flight_;
      }
      job();
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        --in_flight_;
        if (queue_.empty() && in_flight_ == 0) {
          all_idle_.notify_all();
        }
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

struct RunStats {
  std::size_t executed = 0;
  double wall_seconds = 0.0;
  double sched_wall_seconds = 0.0;
  double dispatch_wall_seconds = 0.0;
};

// --- The pre-change executor: every PopReady/OnStarted/OnCompleted under
// one coordinator mutex, one task dispatched per lock acquisition, one
// lock+notify per completion.
inline RunStats Run(const trace::JobTrace& trace, sched::Scheduler& scheduler,
                    std::size_t workers, std::size_t spin_iters) {
  const graph::Dag& dag = trace.Graph();
  RunStats stats;
  util::WallTimer wall;
  util::Stopwatch sched_watch;
  util::Stopwatch dispatch_watch;

  scheduler.Prepare({&trace, workers});

  std::mutex mutex;
  std::condition_variable completions_arrived;
  std::deque<std::pair<util::TaskId, bool>> completions;
  std::vector<bool> activated(dag.NumNodes(), false);
  std::size_t activated_count = 0;
  std::size_t completed_count = 0;
  std::size_t inflight = 0;

  const auto activate = [&](util::TaskId t) {
    if (!activated[t]) {
      activated[t] = true;
      ++activated_count;
      const util::StopwatchGuard guard(sched_watch);
      scheduler.OnActivated(t);
    }
  };
  {
    const std::lock_guard<std::mutex> lock(mutex);
    for (const util::TaskId t : trace.InitialDirty()) {
      activate(t);
    }
  }

  ThreadPool pool(workers);
  std::unique_lock<std::mutex> lock(mutex);
  for (;;) {
    {
      const util::StopwatchGuard dispatch_guard(dispatch_watch);
      while (inflight < workers) {
        util::TaskId t = util::kInvalidTask;
        {
          const util::StopwatchGuard guard(sched_watch);
          t = scheduler.PopReady();
        }
        if (t == util::kInvalidTask) {
          break;
        }
        {
          const util::StopwatchGuard guard(sched_watch);
          scheduler.OnStarted(t);
        }
        ++inflight;
        pool.Submit([&, t] {
          if (spin_iters > 0) {
            SpinWork(spin_iters);
          }
          const bool changed = trace.Info(t).output_changes;
          {
            const std::lock_guard<std::mutex> inner(mutex);
            completions.emplace_back(t, changed);
          }
          completions_arrived.notify_one();
        });
      }
    }

    if (inflight == 0 && completions.empty()) {
      DSCHED_CHECK_MSG(completed_count >= activated_count,
                       "legacy executor deadlock");
      break;
    }

    completions_arrived.wait(lock, [&] { return !completions.empty(); });
    const util::StopwatchGuard drain_guard(dispatch_watch);
    while (!completions.empty()) {
      const auto [t, changed] = completions.front();
      completions.pop_front();
      --inflight;
      ++completed_count;
      ++stats.executed;
      if (changed) {
        for (const util::TaskId child : dag.OutNeighbors(t)) {
          activate(child);
        }
      }
      const util::StopwatchGuard guard(sched_watch);
      scheduler.OnCompleted(t, changed);
    }
  }
  lock.unlock();
  pool.Wait();

  stats.wall_seconds = wall.ElapsedSeconds();
  stats.sched_wall_seconds = sched_watch.TotalSeconds();
  stats.dispatch_wall_seconds = dispatch_watch.TotalSeconds();
  return stats;
}

}  // namespace legacy

/// A column of `diamonds` stacked diamonds, each 1 -> width -> 1.
trace::JobTrace MakeDiamonds(std::size_t diamonds, std::size_t width) {
  const std::size_t nodes = diamonds * (width + 1) + 1;
  graph::DigraphBuilder builder(nodes);
  util::TaskId head = 0;
  util::TaskId next = 1;
  for (std::size_t d = 0; d < diamonds; ++d) {
    const util::TaskId first_mid = next;
    for (std::size_t w = 0; w < width; ++w) {
      builder.AddEdge(head, next++);
    }
    const util::TaskId join = next++;
    for (std::size_t w = 0; w < width; ++w) {
      builder.AddEdge(first_mid + static_cast<util::TaskId>(w), join);
    }
    head = join;
  }
  std::vector<trace::TaskInfo> infos(nodes);
  return trace::JobTrace("diamond", std::move(builder).Build(),
                         std::move(infos), {0});
}

struct Row {
  std::string workload;
  std::string scheduler;
  std::size_t workers = 0;
  std::string engine;
  /// "null" = zero-work bodies (pure dispatch throughput); "spin" = ~1us
  /// of fake work per task (meaningful overhead shares).
  std::string body;
  std::size_t tasks = 0;
  double wall_seconds = 0.0;
  double tasks_per_sec = 0.0;
  double sched_wall_seconds = 0.0;
  double sched_share = 0.0;
  /// Coordinator time on the serialized dispatch path (scheduler calls +
  /// submits + completion bookkeeping, excluding blocked waits).
  double dispatch_wall_seconds = 0.0;
  /// (dispatch_wall_seconds - sched_wall_seconds) / wall_seconds: the
  /// engine's own dispatch overhead with scheduler-policy time factored
  /// out.  This is the number the batched executor is built to shrink.
  double overhead_share = 0.0;
  std::uint64_t dispatch_batches = 0;
  double avg_batch = 0.0;
  std::uint64_t max_batch = 0;
  std::uint64_t completion_drains = 0;
  std::uint64_t steals = 0;
  std::uint64_t sleeps = 0;
  std::uint64_t wakeups = 0;
  /// Duty-cycle controller activity (batched engine only).
  std::uint64_t window_adjusts = 0;
  std::uint64_t final_window = 0;
};

Row Measure(const trace::JobTrace& trace, const std::string& workload,
            const std::string& spec, std::size_t workers, bool batched,
            std::size_t spin_iters) {
  Row row;
  row.workload = workload;
  row.scheduler = spec;
  row.workers = workers;
  row.engine = batched ? "batched" : "legacy";
  row.body = spin_iters > 0 ? "spin" : "null";
  auto scheduler = sched::CreateScheduler(spec);
  if (batched) {
    runtime::Executor::TaskBody body;
    if (spin_iters > 0) {
      body = [&trace, spin_iters](util::TaskId t) {
        SpinWork(spin_iters);
        return trace.Info(t).output_changes;
      };
    }
    runtime::TaskRouter router({.workers = workers});
    const auto stats =
        runtime::Executor::Run(router, trace, *scheduler, body, {});
    const runtime::ThreadPoolStats pool = router.PoolStats();
    row.tasks = stats.executed;
    row.wall_seconds = stats.wall_seconds;
    row.sched_wall_seconds = stats.sched_wall_seconds;
    row.dispatch_wall_seconds = stats.dispatch_wall_seconds;
    row.dispatch_batches = stats.dispatch_batches;
    row.avg_batch = stats.AvgDispatchBatch();
    row.max_batch = stats.max_dispatch_batch;
    row.completion_drains = stats.completion_drains;
    row.steals = pool.steals;
    row.sleeps = pool.sleeps;
    row.wakeups = pool.wakeups;
    row.window_adjusts = stats.window_adjusts;
    row.final_window = stats.final_dispatch_window;
  } else {
    const auto stats = legacy::Run(trace, *scheduler, workers, spin_iters);
    row.tasks = stats.executed;
    row.wall_seconds = stats.wall_seconds;
    row.sched_wall_seconds = stats.sched_wall_seconds;
    row.dispatch_wall_seconds = stats.dispatch_wall_seconds;
  }
  row.tasks_per_sec = row.wall_seconds > 0.0
                          ? static_cast<double>(row.tasks) / row.wall_seconds
                          : 0.0;
  row.sched_share =
      row.wall_seconds > 0.0 ? row.sched_wall_seconds / row.wall_seconds : 0.0;
  row.overhead_share =
      row.wall_seconds > 0.0
          ? std::max(0.0, row.dispatch_wall_seconds - row.sched_wall_seconds) /
                row.wall_seconds
          : 0.0;
  return row;
}

void AppendRowJson(std::string& out, const Row& row, bool last) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"workload\": \"%s\", \"scheduler\": \"%s\", \"workers\": %zu, "
      "\"engine\": \"%s\", \"body\": \"%s\", \"tasks\": %zu, "
      "\"wall_seconds\": %.6f, "
      "\"tasks_per_sec\": %.1f, \"sched_wall_seconds\": %.6f, "
      "\"sched_share\": %.4f, \"dispatch_wall_seconds\": %.6f, "
      "\"overhead_share\": %.4f, \"dispatch_batches\": %llu, "
      "\"avg_batch\": %.2f, \"max_batch\": %llu, \"completion_drains\": %llu, "
      "\"steals\": %llu, \"sleeps\": %llu, \"wakeups\": %llu, "
      "\"window_adjusts\": %llu, \"final_window\": %llu}%s\n",
      row.workload.c_str(), row.scheduler.c_str(), row.workers,
      row.engine.c_str(), row.body.c_str(), row.tasks, row.wall_seconds,
      row.tasks_per_sec,
      row.sched_wall_seconds, row.sched_share, row.dispatch_wall_seconds,
      row.overhead_share,
      static_cast<unsigned long long>(row.dispatch_batches), row.avg_batch,
      static_cast<unsigned long long>(row.max_batch),
      static_cast<unsigned long long>(row.completion_drains),
      static_cast<unsigned long long>(row.steals),
      static_cast<unsigned long long>(row.sleeps),
      static_cast<unsigned long long>(row.wakeups),
      static_cast<unsigned long long>(row.window_adjusts),
      static_cast<unsigned long long>(row.final_window), last ? "" : ",");
  out += buf;
}

}  // namespace dsched::bench

int main(int argc, char** argv) {
  using namespace dsched;
  bench::MicroBenchArgs args;
  args.out = "BENCH_executor.json";
  if (!bench::ParseMicroBenchArgs(argc, argv, &args)) {
    return 2;
  }
  const std::string& out_path = args.out;
  const double scale = args.scale;
  const auto scaled = [scale](std::size_t n) {
    return static_cast<std::size_t>(static_cast<double>(n) * scale);
  };
  const auto session = bench::MaybeStartTrace(args.trace);

  // The three DAG shapes of the dispatch hot path: wide (one giant level —
  // maximal batch opportunity), deep (one task per level — minimal batch
  // opportunity, pure per-level overhead), diamond (alternating widths).
  struct Workload {
    const char* name;
    trace::JobTrace trace;
  };
  std::vector<Workload> workloads;
  workloads.push_back({"wide", trace::MakeFork(scaled(30000))});
  workloads.push_back({"deep", trace::MakeChain(scaled(12000))});
  workloads.push_back({"diamond", bench::MakeDiamonds(scaled(1500), 8)});

  const std::vector<std::string> specs = {"levelbased", "lbl:8", "logicblox",
                                          "signal", "hybrid"};
  const std::vector<std::size_t> worker_counts = {1, 2, 4, 8};

  // ~1us of fake work per task for the "spin" body variant (wide DAG
  // only): gives the overhead share a meaningful denominator.
  constexpr std::size_t kSpinIters = 2000;

  std::vector<bench::Row> rows;
  for (const Workload& workload : workloads) {
    const bool is_wide = std::string(workload.name) == "wide";
    const std::vector<std::size_t> bodies =
        is_wide ? std::vector<std::size_t>{0, kSpinIters}
                : std::vector<std::size_t>{0};
    for (const std::string& spec : specs) {
      for (const std::size_t workers : worker_counts) {
        for (const std::size_t spin : bodies) {
          for (const bool batched : {false, true}) {
            rows.push_back(bench::Measure(workload.trace, workload.name, spec,
                                          workers, batched, spin));
            const bench::Row& r = rows.back();
            std::printf(
                "%-8s %-10s P=%zu %-7s %-4s : %9.0f tasks/s  sched %5.1f%%  "
                "overhead %5.1f%%  batches %llu (avg %.1f)\n",
                r.workload.c_str(), r.scheduler.c_str(), r.workers,
                r.engine.c_str(), r.body.c_str(), r.tasks_per_sec,
                100.0 * r.sched_share, 100.0 * r.overhead_share,
                static_cast<unsigned long long>(r.dispatch_batches),
                r.avg_batch);
          }
        }
      }
    }
  }

  // Headline: batched vs legacy tasks/sec on the wide DAG at 8 workers
  // (null bodies: pure dispatch throughput), plus the overhead-share
  // criterion — on the spin-body wide rows, the batched engine's dispatch
  // overhead share of wall must be below the legacy engine's at EVERY
  // worker count.
  std::string summary;
  for (const std::string& spec : specs) {
    double legacy_tps = 0.0;
    double batched_tps = 0.0;
    bool share_drops_everywhere = true;
    for (const std::size_t workers : worker_counts) {
      double legacy_share = 0.0;
      double batched_share = 0.0;
      for (const bench::Row& r : rows) {
        if (r.workload == "wide" && r.scheduler == spec &&
            r.workers == workers) {
          if (r.body == "spin") {
            (r.engine == "batched" ? batched_share : legacy_share) =
                r.overhead_share;
          } else if (workers == 8) {
            (r.engine == "batched" ? batched_tps : legacy_tps) =
                r.tasks_per_sec;
          }
        }
      }
      if (batched_share >= legacy_share) {
        share_drops_everywhere = false;
      }
      std::printf("overhead wide(spin) P=%zu %-10s : legacy %5.1f%% -> "
                  "batched %5.1f%%\n",
                  workers, spec.c_str(), 100.0 * legacy_share,
                  100.0 * batched_share);
    }
    char buf[240];
    std::snprintf(buf, sizeof(buf),
                  "    \"wide_8workers_speedup_%s\": %.2f,\n"
                  "    \"wide_overhead_share_drops_at_every_count_%s\": %s,\n",
                  spec.c_str(),
                  legacy_tps > 0.0 ? batched_tps / legacy_tps : 0.0,
                  spec.c_str(), share_drops_everywhere ? "true" : "false");
    summary += buf;
    std::printf("speedup wide P=8 %-10s : %.2fx  (overhead share drops at "
                "every count: %s)\n",
                spec.c_str(),
                legacy_tps > 0.0 ? batched_tps / legacy_tps : 0.0,
                share_drops_everywhere ? "yes" : "no");
  }
  if (!summary.empty()) {
    summary.erase(summary.size() - 2, 1);  // drop the trailing comma
  }

  std::string json = "{\n";
  json += "  \"bench\": \"micro_executor\",\n";
  json += "  \"hw_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"scale\": " + std::to_string(scale) + ",\n";
  json += "  \"summary\": {\n" + summary + "  },\n";
  json += "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    bench::AppendRowJson(json, rows[i], i + 1 == rows.size());
  }
  json += "  ]\n}\n";

  if (!bench::WriteBenchFile(out_path, json)) {
    return 1;
  }
  std::printf("wrote %s (%zu rows)\n", out_path.c_str(), rows.size());

  obs::MetricsRegistry metrics;
  for (const bench::Row& r : rows) {
    if (r.workload == "wide" && r.workers == 8 && r.body == "null") {
      const std::string key =
          "micro_executor.wide.p8." + r.engine + "." + r.scheduler + ".";
      metrics.Set(key + "tasks_per_sec",
                  static_cast<std::uint64_t>(r.tasks_per_sec));
      metrics.Set(key + "sched_overhead_ns",
                  static_cast<std::uint64_t>(r.sched_wall_seconds * 1e9));
      metrics.Set(key + "steals", r.steals);
    }
  }
  bench::PrintMetrics(metrics);
  bench::FinishTrace(session.get(), args.trace);
  return 0;
}
