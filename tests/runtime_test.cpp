// Tests for the thread pool and the real multithreaded executor.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "runtime/executor.hpp"
#include "runtime/task_router.hpp"
#include "runtime/thread_pool.hpp"
#include "sched/factory.hpp"
#include "sched/level_based.hpp"
#include "trace/cascade.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"

namespace dsched::runtime {
namespace {

TEST(ThreadPoolTest, RunsAllJobs) {
  std::atomic<int> counter{0};
  ThreadPool pool(4, [&counter](util::TaskId) { counter.fetch_add(1); });
  for (util::TaskId i = 0; i < 100; ++i) {
    pool.Submit(i);
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
  const ThreadPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.submitted, 100u);
  EXPECT_EQ(stats.executed, 100u);
}

TEST(ThreadPoolTest, WaitBlocksUntilDrained) {
  std::atomic<int> done{0};
  ThreadPool pool(2, [&done](util::TaskId) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    done.fetch_add(1);
  });
  for (util::TaskId i = 0; i < 8; ++i) {
    pool.Submit(i);
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(3, [&done](util::TaskId) { done.fetch_add(1); });
    for (util::TaskId i = 0; i < 20; ++i) {
      pool.Submit(i);
    }
    pool.Wait();
  }
  EXPECT_EQ(done.load(), 20);
}

TEST(ThreadPoolTest, SubmitBatchRunsEveryItemExactlyOnce) {
  std::vector<std::atomic<int>> seen(500);
  ThreadPool pool(4, [&seen](ThreadPool::WorkItem t) { seen[t].fetch_add(1); });
  std::vector<ThreadPool::WorkItem> batch(500);
  for (ThreadPool::WorkItem i = 0; i < 500; ++i) {
    batch[i] = i;
  }
  pool.SubmitBatch(batch);
  pool.Wait();
  for (const auto& count : seen) {
    EXPECT_EQ(count.load(), 1);
  }
  EXPECT_EQ(pool.Stats().executed, 500u);
}

TEST(ThreadPoolTest, ReusableAcrossWaits) {
  std::atomic<int> done{0};
  ThreadPool pool(2, [&done](util::TaskId) { done.fetch_add(1); });
  for (int round = 0; round < 5; ++round) {
    std::vector<ThreadPool::WorkItem> batch = {0, 1, 2, 3};
    pool.SubmitBatch(batch);
    pool.Wait();
    EXPECT_EQ(done.load(), (round + 1) * 4);
  }
}

TEST(ThreadPoolTest, StealsRebalanceSkewedBatches) {
  // One long item pins a worker; the stealing path must let the other
  // workers drain the rest of its chunk.  With chunked batch submit on 2
  // workers, one deque holds ~half the items; the blocked owner forces
  // every one of them to be stolen.
  std::atomic<int> done{0};
  ThreadPool pool(2, [&done](ThreadPool::WorkItem t) {
    if (t == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
    done.fetch_add(1);
  });
  std::vector<ThreadPool::WorkItem> batch(64);
  for (ThreadPool::WorkItem i = 0; i < 64; ++i) {
    batch[i] = i;
  }
  pool.SubmitBatch(batch);
  pool.Wait();
  EXPECT_EQ(done.load(), 64);
  EXPECT_EQ(pool.Stats().executed, 64u);
}

TEST(TaskRouterTest, ChannelsRouteToTheirOwnBodies) {
  TaskRouter router({.workers = 4, .max_channels = 8});
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  auto ca = router.OpenChannel(
      [&a](util::TaskId) { a.fetch_add(1); });
  auto cb = router.OpenChannel(
      [&b](util::TaskId) { b.fetch_add(1); });
  std::vector<util::TaskId> tasks(100);
  for (util::TaskId i = 0; i < 100; ++i) {
    tasks[i] = i;
  }
  ca.SubmitBatch(tasks);
  cb.SubmitBatch(std::span<const util::TaskId>(tasks).subspan(0, 40));
  while (a.load() < 100 || b.load() < 40) {
    std::this_thread::yield();
  }
  ca.Close();
  cb.Close();
  EXPECT_EQ(a.load(), 100);
  EXPECT_EQ(b.load(), 40);
  EXPECT_EQ(router.OpenChannels(), 0u);
}

TEST(TaskRouterTest, SlotsRecycleAfterClose) {
  TaskRouter router({.workers = 2, .max_channels = 2});
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> ran{0};
    auto c1 = router.OpenChannel(
        [&ran](util::TaskId) { ran.fetch_add(1); });
    auto c2 = router.OpenChannel(
        [&ran](util::TaskId) { ran.fetch_add(1); });
    EXPECT_THROW(router.OpenChannel([](util::TaskId) {}),
                 util::InvalidArgument);
    const std::vector<util::TaskId> tasks = {0, 1, 2, 3};
    c1.SubmitBatch(tasks);
    c2.SubmitBatch(tasks);
    while (ran.load() < 8) {
      std::this_thread::yield();
    }
    c1.Close();
    c2.Close();
  }
  EXPECT_EQ(router.OpenChannels(), 0u);
}

TEST(TaskRouterTest, ConcurrentCoordinatorsInterleaveOnOnePool) {
  // Four coordinator threads each run their own submit/close cycles against
  // one shared 4-worker pool; every channel's count must be exact.
  TaskRouter router({.workers = 4, .max_channels = 16});
  std::vector<std::thread> coordinators;
  std::array<std::atomic<int>, 4> counts{};
  for (int s = 0; s < 4; ++s) {
    coordinators.emplace_back([&router, &counts, s] {
      for (int round = 0; round < 20; ++round) {
        std::atomic<int> ran{0};
        auto channel = router.OpenChannel(
            [&](util::TaskId) { ran.fetch_add(1); });
        std::vector<util::TaskId> tasks(50);
        for (util::TaskId i = 0; i < 50; ++i) {
          tasks[i] = i;
        }
        channel.SubmitBatch(tasks);
        while (ran.load() < 50) {
          std::this_thread::yield();
        }
        channel.Close();
        counts[static_cast<std::size_t>(s)].fetch_add(ran.load());
      }
    });
  }
  for (std::thread& t : coordinators) {
    t.join();
  }
  for (const auto& count : counts) {
    EXPECT_EQ(count.load(), 20 * 50);
  }
  EXPECT_EQ(router.PoolStats().executed, 4u * 20u * 50u);
}

TEST(ExecutorTest, OneAndFourWorkerRoutersRunTheSameCascade) {
  // A 1-worker router is the serial run; a 4-worker one overlaps tasks.
  // Both must execute exactly the trace's active set, under every policy.
  util::Rng rng(99);
  const trace::JobTrace trace = trace::MakeRandomDag(60, 0.06, 0.2, 0.7, rng);
  const trace::Cascade cascade = trace::ComputeCascade(trace);
  TaskRouter serial({.workers = 1});
  TaskRouter shared({.workers = 4});
  for (const char* spec : {"levelbased", "hybrid", "signal"}) {
    std::array<std::vector<std::atomic<int>>, 2> ran;
    std::array<Executor::RunStats, 2> stats{};
    for (std::size_t r = 0; r < 2; ++r) {
      ran[r] = std::vector<std::atomic<int>>(trace.NumNodes());
      auto scheduler = sched::CreateScheduler(spec);
      stats[r] = Executor::Run(
          r == 0 ? serial : shared, trace, *scheduler,
          [&](util::TaskId t) {
            ran[r][t].fetch_add(1);
            return trace.Info(t).output_changes;
          },
          {});
      EXPECT_EQ(stats[r].executed, cascade.NumActive()) << spec;
    }
    EXPECT_EQ(stats[0].activations, stats[1].activations) << spec;
    for (util::TaskId t = 0; t < trace.NumNodes(); ++t) {
      EXPECT_EQ(ran[0][t].load(), ran[1][t].load()) << spec << " task " << t;
      EXPECT_LE(ran[1][t].load(), 1) << spec << " task " << t;
    }
  }
  EXPECT_EQ(serial.OpenChannels(), 0u);
  EXPECT_EQ(shared.OpenChannels(), 0u);
}

TEST(ExecutorTest, ConcurrentCascadesOnOneRouterStayIsolated) {
  // Two cascades with different bodies run simultaneously on one router;
  // each must execute exactly its own active set.
  TaskRouter router({.workers = 4});
  std::vector<std::thread> runners;
  std::array<std::size_t, 3> executed{};
  for (std::size_t s = 0; s < 3; ++s) {
    runners.emplace_back([&router, &executed, s] {
      util::Rng rng(100 + static_cast<std::uint64_t>(s));
      const trace::JobTrace trace =
          trace::MakeRandomDag(50, 0.07, 0.25, 0.75, rng);
      const trace::Cascade cascade = trace::ComputeCascade(trace);
      auto scheduler = sched::CreateScheduler("hybrid");
      std::atomic<std::size_t> count{0};
      const auto stats = Executor::Run(
          router, trace, *scheduler,
          [&](util::TaskId t) {
            count.fetch_add(1);
            return trace.Info(t).output_changes;
          },
          {});
      EXPECT_EQ(stats.executed, cascade.NumActive());
      EXPECT_EQ(count.load(), cascade.NumActive());
      executed[s] = stats.executed;
    });
  }
  for (std::thread& t : runners) {
    t.join();
  }
  EXPECT_EQ(router.OpenChannels(), 0u);
  std::size_t total = 0;
  for (const std::size_t e : executed) {
    total += e;
  }
  EXPECT_EQ(router.PoolStats().executed, total);
}

TEST(ExecutorTest, RunsExactlyTheCascade) {
  util::Rng rng(77);
  const trace::JobTrace trace = trace::MakeRandomDag(60, 0.06, 0.2, 0.7, rng);
  const trace::Cascade cascade = trace::ComputeCascade(trace);
  sched::LevelBasedScheduler scheduler;
  TaskRouter router({.workers = 4});
  std::atomic<int> executed{0};
  const auto stats = Executor::Run(
      router, trace, scheduler,
      [&](util::TaskId t) {
        executed.fetch_add(1);
        return trace.Info(t).output_changes;
      },
      {});
  EXPECT_EQ(stats.executed, cascade.NumActive());
  EXPECT_EQ(executed.load(), static_cast<int>(cascade.NumActive()));
  EXPECT_GT(stats.wall_seconds, 0.0);
}

TEST(ExecutorTest, NullBodyUsesTraceBits) {
  const trace::JobTrace trace = trace::MakeChain(20);
  sched::LevelBasedScheduler scheduler;
  TaskRouter router({.workers = 2});
  const auto stats =
      Executor::Run(router, trace, scheduler, Executor::TaskBody{}, {});
  EXPECT_EQ(stats.executed, 20u);
  EXPECT_EQ(stats.activations, 20u);
}

TEST(ExecutorTest, DynamicOutputChangesControlActivation) {
  // The body decides at runtime: cut the cascade at node 2 of a chain.
  const trace::JobTrace trace = trace::MakeChain(10);
  sched::LevelBasedScheduler scheduler;
  TaskRouter router({.workers = 2});
  const auto stats = Executor::Run(
      router, trace, scheduler,
      [](util::TaskId t) { return t < 2; }, {});
  EXPECT_EQ(stats.executed, 3u);  // 0, 1, 2 (2 runs but stops the cascade)
}

TEST(ExecutorTest, ParallelismActuallyOverlaps) {
  // 8 independent 20ms tasks on 4 workers should take well under 160ms.
  const trace::JobTrace trace = trace::MakeFork(8);
  auto scheduler = sched::CreateScheduler("hybrid");
  TaskRouter router({.workers = 4});
  const auto stats = Executor::Run(
      router, trace, *scheduler,
      [](util::TaskId) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return true;
      },
      {});
  EXPECT_EQ(stats.executed, 9u);
  EXPECT_LT(stats.wall_seconds, 0.140);  // ~3 waves of 20ms + slack
}

/// Fork whose `leaves` children each hold `utility` accounted bytes while
/// running (the root is free); all outputs change, so everything runs.
trace::JobTrace MakeUtilityFork(std::size_t leaves, std::uint64_t utility) {
  trace::JobTrace plain = trace::MakeFork(leaves);
  std::vector<trace::TaskInfo> infos = plain.Tasks();
  for (std::size_t leaf = 1; leaf <= leaves; ++leaf) {
    infos[leaf].resource_utility = utility;
  }
  return {plain.Name(), plain.Graph(), std::move(infos),
          plain.InitialDirty()};
}

TEST(ExecutorTest, AccountingTracksUtilityTotalsAndPeak) {
  // No budget: the plane only counts.  Acquired bytes are exact (every
  // dispatched task's utility, once); the peak is bracketed by the largest
  // single task and the sum.
  const trace::JobTrace trace = MakeUtilityFork(8, 1024);
  sched::LevelBasedScheduler scheduler;
  TaskRouter router({.workers = 4});
  const auto stats =
      Executor::Run(router, trace, scheduler, Executor::TaskBody{}, {});
  EXPECT_EQ(stats.executed, 9u);
  EXPECT_EQ(stats.mem_acquired_bytes, 8u * 1024u);
  EXPECT_GE(stats.mem_peak_bytes, 1024u);
  EXPECT_LE(stats.mem_peak_bytes, 8u * 1024u);
  EXPECT_EQ(stats.mem_deferred, 0u);
  EXPECT_EQ(stats.mem_budget_stalls, 0u);
  EXPECT_EQ(stats.mem_forced, 0u);
}

TEST(ExecutorTest, BudgetGateNeverExceedsCeiling) {
  // 16 ready 1 KiB tasks against a 2 KiB ceiling: at most two may hold
  // bytes at once, everything still completes (backpressure, not
  // failure), and at least one dispatch must have been parked.
  const trace::JobTrace trace = MakeUtilityFork(16, 1024);
  sched::LevelBasedScheduler scheduler;
  TaskRouter router({.workers = 4});
  const auto stats = Executor::Run(router, trace, scheduler,
                                   Executor::TaskBody{},
                                   {.memory_budget = 2048});
  EXPECT_EQ(stats.executed, 17u);
  EXPECT_LE(stats.mem_peak_bytes, 2048u);
  EXPECT_GE(stats.mem_deferred, 1u);
  EXPECT_EQ(stats.mem_forced, 0u);
  EXPECT_EQ(stats.mem_acquired_bytes, 16u * 1024u);
}

TEST(ExecutorTest, OversizedTaskRunsSoloViaEscapeHatch) {
  // Each task is eight times the whole budget.  The escape hatch runs
  // them one at a time from an idle account — the run completes, every
  // oversized dispatch is counted, and the ceiling becomes the largest
  // single utility instead of a deadlock.
  const trace::JobTrace trace = MakeUtilityFork(3, 8192);
  sched::LevelBasedScheduler scheduler;
  TaskRouter router({.workers = 4});
  const auto stats = Executor::Run(router, trace, scheduler,
                                   Executor::TaskBody{},
                                   {.memory_budget = 1024});
  EXPECT_EQ(stats.executed, 4u);
  EXPECT_EQ(stats.mem_forced, 3u);
  // Solo means solo: the oversized tasks never overlap, so the peak is
  // exactly one of them.
  EXPECT_EQ(stats.mem_peak_bytes, 8192u);
}

TEST(ExecutorTest, SharedAccountBoundsConcurrentCascadesJointly) {
  // Two coordinator threads run utility-laden cascades against ONE
  // account with one joint ceiling — the service-session arrangement.
  // The account's peak must respect the ceiling even though acquisitions
  // race across threads.
  TaskRouter router({.workers = 4});
  ResourceAccount account;
  constexpr std::uint64_t kBudget = 4096;
  std::vector<std::thread> runners;
  std::array<Executor::RunStats, 2> stats{};
  for (std::size_t s = 0; s < 2; ++s) {
    runners.emplace_back([&router, &account, &stats, s] {
      const trace::JobTrace trace = MakeUtilityFork(12, 512);
      auto scheduler = sched::CreateScheduler("levelbased");
      stats[s] = Executor::Run(router, trace, *scheduler,
                                 Executor::TaskBody{},
                                 {.memory_budget = kBudget,
                                  .account = &account});
    });
  }
  for (std::thread& t : runners) {
    t.join();
  }
  EXPECT_LE(account.peak.load(), kBudget);
  EXPECT_EQ(account.live.load(), 0u);  // everything released
  for (const auto& run : stats) {
    EXPECT_EQ(run.executed, 13u);
    EXPECT_EQ(run.mem_acquired_bytes, 12u * 512u);
    // Each run's observed peak includes the sibling's bytes but still
    // respects the joint ceiling.
    EXPECT_LE(run.mem_peak_bytes, kBudget);
  }
}

TEST(ExecutorTest, EveryFactorySchedulerDrivesTheExecutor) {
  util::Rng rng(88);
  const trace::JobTrace trace = trace::MakeRandomDag(40, 0.08, 0.25, 0.8, rng);
  const trace::Cascade cascade = trace::ComputeCascade(trace);
  TaskRouter router({.workers = 3});
  for (const char* spec :
       {"levelbased", "lbl:3", "logicblox", "signal", "hybrid", "oracle"}) {
    auto scheduler = sched::CreateScheduler(spec);
    const auto stats = Executor::Run(router, trace, *scheduler,
                                     Executor::TaskBody{}, {});
    EXPECT_EQ(stats.executed, cascade.NumActive()) << spec;
  }
}

}  // namespace
}  // namespace dsched::runtime
