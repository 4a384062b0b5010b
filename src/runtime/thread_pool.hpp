// A low-contention work-stealing worker pool.
//
// The previous pool was a single FIFO behind one mutex: every submit and
// every claim fought over the same lock, and every submit paid a
// condition-variable notify plus a std::function heap allocation.  At high
// worker counts the lock traffic — not the work — dominated
// `sched_wall_seconds`.  This pool removes all three costs:
//
//  * Work items are plain TaskIds; the task body is ONE callback fixed at
//    construction, so submitting allocates nothing.
//  * Each worker owns a deque behind its own (almost always uncontended)
//    mutex.  Owners push/pop at the back (LIFO, cache-warm); thieves take
//    from the front (FIFO, oldest first) and move up to half the victim's
//    queue in one steal, so rebalancing is amortised.
//  * Sleeping is predicate-guarded by an atomic count of unclaimed items:
//    submitters only touch the sleep mutex when a worker is actually
//    asleep, and wake exactly as many workers as there are new items — no
//    thundering herd.
//
// RAII join on destruction (pending work is drained first), same as the old
// pool.  Jobs must not throw; exceptions terminate.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "util/types.hpp"

namespace dsched::runtime {

/// Contention/behaviour counters, aggregated across workers by Stats().
struct ThreadPoolStats {
  std::uint64_t submitted = 0;  ///< items handed to Submit/SubmitBatch
  std::uint64_t executed = 0;   ///< items whose body finished
  std::uint64_t steals = 0;     ///< items taken from another worker's deque
  std::uint64_t sleeps = 0;     ///< times a worker went to sleep
  std::uint64_t wakeups = 0;    ///< times a sleeping worker was woken
};

/// Fixed pool of workers running one callback over submitted work items.
class ThreadPool {
 public:
  /// One unit of queued work: an opaque 64-bit word the submitter encodes
  /// and the pool's TaskFn decodes.  Single-tenant engines pass a bare
  /// TaskId in the low bits; the multi-tenant TaskRouter packs a channel
  /// tag into the high 32 bits so many cascades can share one pool.
  using WorkItem = std::uint64_t;

  /// The per-item body, fixed for the pool's lifetime (so per-item submits
  /// move an 8-byte word, not a closure).
  using TaskFn = std::function<void(WorkItem)>;

  /// Spawns `workers` threads (at least 1) running `run` over items.
  ThreadPool(std::size_t workers, TaskFn run);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains pending items, then joins all workers.
  ~ThreadPool();

  /// Enqueues one item.
  void Submit(WorkItem task);

  /// Enqueues a batch, spreading contiguous chunks across worker deques
  /// under one lock acquisition per touched deque.
  void SubmitBatch(std::span<const WorkItem> tasks);

  /// Blocks until every submitted item has finished executing.
  void Wait();

  [[nodiscard]] std::size_t NumWorkers() const { return slots_.size(); }

  /// Aggregated counters; safe to call concurrently with running work
  /// (individual counters are relaxed atomics, the sum is approximate
  /// while work is in flight and exact once Wait() returned).
  [[nodiscard]] ThreadPoolStats Stats() const;

 private:
  // One cache line per worker: the deque mutex is the only lock on the
  // steady-state submit/claim path and is owner-local almost always.
  struct alignas(64) WorkerSlot {
    std::mutex mutex;
    std::deque<WorkItem> deque;
    /// Thief-private scratch for stolen surplus, touched only by this
    /// slot's own worker thread (never under any lock): TrySteal drains
    /// the victim into it, releases the victim's mutex, then appends to
    /// our deque — so no thread ever holds two slot mutexes at once.
    std::vector<WorkItem> loot;
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> sleeps{0};
    std::atomic<std::uint64_t> wakeups{0};
  };

  void WorkerLoop(std::size_t self);
  bool TryPopOwn(std::size_t self, WorkItem& out);
  bool TrySteal(std::size_t self, WorkItem& out);
  void WakeWorkers(std::size_t count);
  void FinishOne();

  TaskFn run_;
  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  /// Queued-but-unclaimed items; the sleep predicate.  Incremented before
  /// an item becomes visible, decremented by the claimer.
  std::atomic<std::size_t> unclaimed_{0};
  /// Submitted-but-unfinished items; the Wait() predicate.
  std::atomic<std::size_t> outstanding_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<bool> shutdown_{false};
  /// Round-robin cursor for spreading external submits.
  std::atomic<std::size_t> next_slot_{0};
  std::atomic<std::size_t> sleepers_{0};

  std::mutex sleep_mutex_;
  std::condition_variable work_available_;
  std::mutex done_mutex_;
  std::condition_variable all_done_;
  std::vector<std::thread> threads_;
};

}  // namespace dsched::runtime
