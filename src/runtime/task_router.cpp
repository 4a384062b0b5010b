#include "runtime/task_router.hpp"

#include <string>
#include <thread>
#include <utility>

#include "util/error.hpp"

namespace dsched::runtime {

TaskRouter::TaskRouter(const Options& options) {
  DSCHED_CHECK_MSG(options.max_channels >= 1, "router needs at least one channel slot");
  DSCHED_CHECK_MSG(options.max_channels <= (1ULL << 32),
                   "channel ids are 32-bit tags");
  slots_.reserve(options.max_channels);
  free_ids_.reserve(options.max_channels);
  for (std::size_t i = 0; i < options.max_channels; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
  // Pop order is cosmetic; reverse so channel 0 is handed out first.
  for (std::size_t i = options.max_channels; i > 0; --i) {
    free_ids_.push_back(static_cast<std::uint32_t>(i - 1));
  }
  pool_ = std::make_unique<ThreadPool>(
      options.workers, [this](ThreadPool::WorkItem item) { Dispatch(item); });
}

TaskRouter::~TaskRouter() {
  pool_.reset();  // join workers before any liveness check
  const std::lock_guard<std::mutex> lock(open_mutex_);
  DSCHED_CHECK_MSG(open_count_ == 0,
                   "TaskRouter destroyed with channels still open");
}

TaskRouter::Channel TaskRouter::OpenChannel(ChannelBody body) {
  DSCHED_CHECK_MSG(body != nullptr, "channel needs a body");
  std::uint32_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(open_mutex_);
    if (free_ids_.empty()) {
      throw util::InvalidArgument("TaskRouter: all " +
                                  std::to_string(slots_.size()) +
                                  " channel slots are open");
    }
    id = free_ids_.back();
    free_ids_.pop_back();
    ++open_count_;
  }
  // No worker can hold this id (its previous owner drained before Close
  // recycled it), so installing the body needs no synchronization beyond
  // the pool-queue release when tasks are later submitted.
  slots_[id]->body = std::move(body);
  return Channel(this, id);
}

std::size_t TaskRouter::OpenChannels() const {
  const std::lock_guard<std::mutex> lock(open_mutex_);
  return open_count_;
}

void TaskRouter::Dispatch(ThreadPool::WorkItem item) {
  const auto id = static_cast<std::uint32_t>(item >> 32);
  const auto task = static_cast<util::TaskId>(item & 0xffffffffULL);
  Slot& slot = *slots_[id];
  // The acquire/release pair brackets the body call so CloseChannel's spin
  // on `active == 0` (acquire) observes everything the body did.
  slot.active.fetch_add(1, std::memory_order_acquire);
  slot.body(task);
  slot.active.fetch_sub(1, std::memory_order_release);
}

void TaskRouter::CloseChannel(std::uint32_t id) {
  Slot& slot = *slots_[id];
  // Every submitted task has completed (caller contract), so no NEW worker
  // can enter the body; at most a few are still unwinding between their
  // completion publish and the fetch_sub above.  That window is tiny, so a
  // yield spin beats any sleeping primitive here.
  while (slot.active.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  slot.body = nullptr;
  const std::lock_guard<std::mutex> lock(open_mutex_);
  free_ids_.push_back(id);
  --open_count_;
}

TaskRouter::Channel& TaskRouter::Channel::operator=(Channel&& other) noexcept {
  if (this != &other) {
    Close();
    router_ = std::exchange(other.router_, nullptr);
    id_ = std::exchange(other.id_, 0);
    scratch_ = std::move(other.scratch_);
  }
  return *this;
}

void TaskRouter::Channel::SubmitBatch(std::span<const util::TaskId> tasks) {
  DSCHED_CHECK_MSG(router_ != nullptr, "submit on a closed channel");
  if (tasks.empty()) {
    return;
  }
  scratch_.clear();
  scratch_.reserve(tasks.size());
  for (const util::TaskId task : tasks) {
    scratch_.push_back(Pack(id_, task));
  }
  router_->pool_->SubmitBatch(scratch_);
}

void TaskRouter::Channel::Close() {
  if (router_ == nullptr) {
    return;
  }
  router_->CloseChannel(id_);
  router_ = nullptr;
  id_ = 0;
}

}  // namespace dsched::runtime
