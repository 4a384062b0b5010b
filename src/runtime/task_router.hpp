// Multi-tenant routing over one shared work-stealing pool.
//
// The ThreadPool runs ONE body fixed at construction, which is exactly right
// for a single cascade but useless when many independently-scheduled
// cascades (one per service Session) must share the same worker threads.
// The TaskRouter closes that gap: it owns the process's pool and hands out
// lightweight *channels*, each carrying its own per-task body.  A submitted
// task is packed into the pool's 64-bit WorkItem as
//
//     [ channel id : high 32 bits | TaskId : low 32 bits ]
//
// so routing a task to its tenant is one shift on the worker — no map
// lookup, no per-task closure, no second queue.  Tasks from different
// channels interleave freely in the worker deques and steal from each other
// like any other items, so one stalled session cannot idle the pool.
//
// Lifecycle contract (enforced with checks, not locks, on the hot path):
//  * OpenChannel/Close are rare and take a mutex; Submit/dispatch never do
//    (beyond the pool's own deque locks).
//  * A channel's body must stay valid until Close() returns.  Close() may
//    only be called once every submitted task has *completed* (the Executor
//    guarantees this by counting completions); it then spins out the
//    sub-microsecond window where a worker has published its completion but
//    is still unwinding out of the body, so the body is never destroyed
//    under a running frame.
//  * Channel ids are recycled through a freelist after Close.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "util/types.hpp"

namespace dsched::runtime {

/// Owns the shared ThreadPool and multiplexes per-channel task bodies
/// onto it.  Thread-safe: channels may be opened, submitted to, and closed
/// concurrently from any number of coordinator threads.
class TaskRouter {
 public:
  /// Per-task body of one channel: does the work for `task`.
  using ChannelBody = std::function<void(util::TaskId task)>;

  struct Options {
    std::size_t workers = 4;
    /// Fixed channel-table capacity (slots are preallocated so dispatch
    /// never races a table resize).  One channel per in-flight cascade;
    /// sessions use one at a time, so this bounds concurrent updates.
    std::size_t max_channels = 256;
  };

  explicit TaskRouter(const Options& options);

  TaskRouter(const TaskRouter&) = delete;
  TaskRouter& operator=(const TaskRouter&) = delete;

  /// Joins the pool.  All channels must be closed first.
  ~TaskRouter();

  /// Move-only handle to one routed task stream.  Used by a single
  /// coordinator thread at a time (matching the Executor's model); the
  /// underlying router may serve many channels concurrently.
  class Channel {
   public:
    Channel() = default;
    Channel(Channel&& other) noexcept { *this = std::move(other); }
    Channel& operator=(Channel&& other) noexcept;
    Channel(const Channel&) = delete;
    Channel& operator=(const Channel&) = delete;
    ~Channel() { Close(); }

    /// Enqueues a batch onto the shared pool, tagged with this channel.
    void SubmitBatch(std::span<const util::TaskId> tasks);

    /// Detaches the body and recycles the id.  Callable only once every
    /// submitted task has completed; idempotent; called by the destructor.
    void Close();

    [[nodiscard]] bool IsOpen() const { return router_ != nullptr; }

   private:
    friend class TaskRouter;
    Channel(TaskRouter* router, std::uint32_t id) : router_(router), id_(id) {}

    TaskRouter* router_ = nullptr;
    std::uint32_t id_ = 0;
    /// Coordinator-private packing scratch, reused across batches.
    std::vector<ThreadPool::WorkItem> scratch_;
  };

  /// Claims a channel slot and installs its body.  Throws
  /// util::InvalidArgument when all Options::max_channels slots are open.
  [[nodiscard]] Channel OpenChannel(ChannelBody body);

  [[nodiscard]] std::size_t NumWorkers() const { return pool_->NumWorkers(); }

  /// Channels currently open (diagnostic; racy by nature).
  [[nodiscard]] std::size_t OpenChannels() const;

  /// Shared-pool counters, aggregated across all channels since start.
  [[nodiscard]] ThreadPoolStats PoolStats() const { return pool_->Stats(); }

 private:
  // One slot per possible channel, preallocated so workers index the table
  // without synchronizing against growth.  `active` counts workers currently
  // inside this channel's body; Close spins on it reaching zero before the
  // body is destroyed.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> active{0};
    ChannelBody body;
  };

  static ThreadPool::WorkItem Pack(std::uint32_t channel, util::TaskId task) {
    return (static_cast<ThreadPool::WorkItem>(channel) << 32) |
           static_cast<ThreadPool::WorkItem>(task);
  }

  void Dispatch(ThreadPool::WorkItem item);
  void CloseChannel(std::uint32_t id);

  std::vector<std::unique_ptr<Slot>> slots_;
  mutable std::mutex open_mutex_;
  std::vector<std::uint32_t> free_ids_;  // guarded by open_mutex_
  std::size_t open_count_ = 0;           // guarded by open_mutex_
  /// Declared last: destroyed first, so workers are joined while the slot
  /// table is still alive.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace dsched::runtime
