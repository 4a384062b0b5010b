#include "runtime/thread_pool.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace dsched::runtime {

ThreadPool::ThreadPool(std::size_t workers, TaskFn run)
    : run_(std::move(run)) {
  DSCHED_CHECK_MSG(workers >= 1, "thread pool needs at least one worker");
  DSCHED_CHECK_MSG(run_ != nullptr, "thread pool needs a task body");
  slots_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    slots_.push_back(std::make_unique<WorkerSlot>());
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(sleep_mutex_);
    shutdown_.store(true, std::memory_order_relaxed);
  }
  work_available_.notify_all();
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

void ThreadPool::Submit(WorkItem task) {
  DSCHED_CHECK_MSG(!shutdown_.load(std::memory_order_relaxed),
                   "submit on a shutting-down pool");
  const std::size_t slot =
      next_slot_.fetch_add(1, std::memory_order_relaxed) % slots_.size();
  // Counters first: a claimer's fetch_sub must never observe the item
  // before the increment (unclaimed_ would underflow).
  outstanding_.fetch_add(1);
  unclaimed_.fetch_add(1);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(slots_[slot]->mutex);
    slots_[slot]->deque.push_back(task);
  }
  WakeWorkers(1);
}

void ThreadPool::SubmitBatch(std::span<const WorkItem> tasks) {
  if (tasks.empty()) {
    return;
  }
  DSCHED_CHECK_MSG(!shutdown_.load(std::memory_order_relaxed),
                   "submit on a shutting-down pool");
  const std::size_t n = tasks.size();
  outstanding_.fetch_add(n);
  unclaimed_.fetch_add(n);
  submitted_.fetch_add(n, std::memory_order_relaxed);
  // Contiguous chunks, one lock acquisition per touched deque.  Stealing
  // fixes up any imbalance the chunking leaves.
  const std::size_t chunks = std::min(n, slots_.size());
  const std::size_t base = next_slot_.fetch_add(chunks, std::memory_order_relaxed);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = n * c / chunks;
    const std::size_t end = n * (c + 1) / chunks;
    WorkerSlot& slot = *slots_[(base + c) % slots_.size()];
    const std::lock_guard<std::mutex> lock(slot.mutex);
    slot.deque.insert(slot.deque.end(), tasks.begin() + static_cast<std::ptrdiff_t>(begin),
                      tasks.begin() + static_cast<std::ptrdiff_t>(end));
  }
  WakeWorkers(n);
}

void ThreadPool::WakeWorkers(std::size_t count) {
  // Only touch the sleep mutex when somebody is actually asleep, and wake
  // at most one worker per new item — no thundering herd.
  const std::size_t asleep = sleepers_.load(std::memory_order_seq_cst);
  if (asleep == 0) {
    return;
  }
  const std::size_t wakes = std::min(count, asleep);
  // Lock/unlock pairs the notify with the sleeper's predicate check; a
  // sleeper registering concurrently re-checks unclaimed_ under the lock
  // before blocking, so the wakeup cannot be lost.
  const std::lock_guard<std::mutex> lock(sleep_mutex_);
  if (wakes >= slots_.size()) {
    work_available_.notify_all();
  } else {
    for (std::size_t i = 0; i < wakes; ++i) {
      work_available_.notify_one();
    }
  }
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(done_mutex_);
  all_done_.wait(lock, [this] { return outstanding_.load() == 0; });
}

void ThreadPool::FinishOne() {
  if (outstanding_.fetch_sub(1) == 1) {
    // Pair with Wait(): taking the mutex orders this notify after any
    // in-progress predicate check.
    const std::lock_guard<std::mutex> lock(done_mutex_);
    all_done_.notify_all();
  }
}

bool ThreadPool::TryPopOwn(std::size_t self, WorkItem& out) {
  WorkerSlot& slot = *slots_[self];
  const std::lock_guard<std::mutex> lock(slot.mutex);
  if (slot.deque.empty()) {
    return false;
  }
  out = slot.deque.back();  // owner takes LIFO: newest, cache-warm
  slot.deque.pop_back();
  unclaimed_.fetch_sub(1);
  return true;
}

bool ThreadPool::TrySteal(std::size_t self, WorkItem& out) {
  const std::size_t n = slots_.size();
  WorkerSlot& own = *slots_[self];
  for (std::size_t i = 1; i < n; ++i) {
    WorkerSlot& victim = *slots_[(self + i) % n];
    std::size_t grab = 0;
    {
      std::unique_lock<std::mutex> victim_lock(victim.mutex, std::try_to_lock);
      if (!victim_lock.owns_lock() || victim.deque.empty()) {
        continue;  // contended or empty; a missed item re-checks via unclaimed_
      }
      // Thieves take FIFO from the front (oldest, least cache-affine), and
      // move up to half the victim's queue so steals stay rare.  The
      // surplus goes through the thief-private loot buffer: holding the
      // victim's lock while taking our own would let two thieves stealing
      // from each other deadlock (each holding the other's "own" slot).
      grab = (victim.deque.size() + 1) / 2;
      out = victim.deque.front();
      victim.deque.pop_front();
      own.loot.clear();
      for (std::size_t g = 1; g < grab; ++g) {
        own.loot.push_back(victim.deque.front());
        victim.deque.pop_front();
      }
    }
    // In-transit loot is still counted by unclaimed_, so no worker can
    // commit to sleeping before it lands in our deque below.
    if (!own.loot.empty()) {
      const std::lock_guard<std::mutex> own_lock(own.mutex);
      own.deque.insert(own.deque.end(), own.loot.begin(), own.loot.end());
    }
    unclaimed_.fetch_sub(1);  // the claimed item only; moved ones stay queued
    own.steals.fetch_add(grab, std::memory_order_relaxed);
    OBS_COUNTER(Category::kPoolSteal, grab);
    return true;
  }
  return false;
}

void ThreadPool::WorkerLoop(std::size_t self) {
  WorkerSlot& own = *slots_[self];
  for (;;) {
    WorkItem task = 0;
    if (TryPopOwn(self, task) || TrySteal(self, task)) {
      run_(task);
      own.executed.fetch_add(1, std::memory_order_relaxed);
      FinishOne();
      continue;
    }
    if (shutdown_.load(std::memory_order_relaxed)) {
      return;  // shutting down and drained
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    if (unclaimed_.load() > 0) {
      continue;  // work appeared while we were locking; retry the scan
    }
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    own.sleeps.fetch_add(1, std::memory_order_relaxed);
    {
      OBS_SCOPE(Category::kPoolSleep);
      work_available_.wait(lock, [this] {
        return shutdown_.load(std::memory_order_relaxed) ||
               unclaimed_.load() > 0;
      });
    }
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    own.wakeups.fetch_add(1, std::memory_order_relaxed);
  }
}

ThreadPoolStats ThreadPool::Stats() const {
  ThreadPoolStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  for (const auto& slot : slots_) {
    stats.executed += slot->executed.load(std::memory_order_relaxed);
    stats.steals += slot->steals.load(std::memory_order_relaxed);
    stats.sleeps += slot->sleeps.load(std::memory_order_relaxed);
    stats.wakeups += slot->wakeups.load(std::memory_order_relaxed);
  }
  return stats;
}

}  // namespace dsched::runtime
