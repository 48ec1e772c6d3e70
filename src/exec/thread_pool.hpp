// exec::ThreadPool: the process-wide execution substrate.
//
// Before this layer existed, every concurrent construct in the repo spawned
// raw std::threads: each mpi_lite solve started one thread per rank
// (net::Universe::run) and each parallel batch a transient pool -- so eight
// concurrent jobs on an eight-rank plan put 64 runnable threads on the
// host, thrashing caches exactly the way the paper's fixed-P machine model
// says not to. This pool is the fix: ONE fixed set of worker threads
// (hardware_concurrency by default) that every layer above draws from, so
// concurrent jobs interleave on the same workers instead of multiplying
// them.
//
// Two kinds of work, with different scheduling contracts:
//
//  * Plain tasks (TaskGroup::add + wait): finite, independent closures --
//    batch items, fan-out work. Submitted to a work-stealing queue (one
//    deque per worker, LIFO for the owner, FIFO for thieves, plus a shared
//    injector for external producers). TaskGroup::wait is a HELPING wait:
//    the waiter executes its own group's still-queued tasks instead of
//    sleeping, so a task may submit subtasks and wait for them with any
//    number of busy workers -- nested fork/join cannot deadlock because the
//    waiter itself guarantees progress.
//
//  * Gangs (run_gang): n closures that must run CONCURRENTLY because they
//    block on one another (mpi_lite ranks blocked in mailbox receives and
//    barriers). A gang is admitted through FIFO all-or-nothing admission:
//    it reserves n - 1 workers (the caller runs gang tasks too) and waits
//    until the reservation fits, so the sum of outstanding gang tasks never
//    exceeds the worker count -- every admitted gang is guaranteed enough
//    executors, which is what makes blocking tasks on a bounded pool
//    deadlock-free. A gang wider than the whole pool (a d-cube with more
//    ranks than cores: unavoidable -- blocked ranks need n live threads)
//    waits for the pool to be exclusively its own and spawns temporary
//    threads for the overflow, so at most ONE oversized gang oversubscribes
//    at a time, by the minimum amount.
//
// Deadlock rules (enforced by construction, stress-tested under TSan):
//  - plain tasks terminate without blocking on anything outside the pool;
//    waiting on a TaskGroup from inside a task is fine (helping wait);
//  - gang tasks may block on each other (admission sizes the pool for
//    them) but must not submit further gangs;
//  - run_gang from a pool worker thread falls back to dedicated temporary
//    threads (a nested gang cannot reserve the worker it already occupies);
//    the repo hits this only when a batch item on the pool runs an
//    mpi-backend solve.
//
// Observability: queue-depth high-water and per-worker busy time feed
// svc::Metrics, so oversubscription vs interleaving shows up in the service
// report instead of staying a theory.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace jmh::exec {

struct GangState;  // run_gang's shared bookkeeping (defined in the .cpp)

/// Resolves a "0 = hardware pick" thread-count knob: @p requested when
/// nonzero, else hardware_concurrency (2 when the platform cannot tell).
std::size_t pick_workers(std::size_t requested);

struct PoolConfig {
  std::size_t workers = 0;  ///< worker threads; 0 = hardware_concurrency
  /// Pin worker i to CPU (i mod cores) on Linux; ignored elsewhere. Off by
  /// default: pinning helps steady-state throughput benches and hurts
  /// shared machines.
  bool pin_threads = false;
};

class ThreadPool {
 public:
  explicit ThreadPool(PoolConfig config = {});

  /// Joins the workers. All submitted work must be complete (every
  /// TaskGroup waited, every run_gang returned) -- the pool asserts the
  /// queues are empty.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t workers() const noexcept { return workers_.size(); }

  /// A set of plain tasks with one completion point. Create via group(),
  /// add closures, then wait() exactly once. wait() executes still-queued
  /// tasks of THIS group on the calling thread while it waits (helping),
  /// then rethrows the first task exception, in submission order.
  class TaskGroup {
   public:
    ~TaskGroup();
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;
    void add(std::function<void()> fn);
    void wait();

   private:
    friend class ThreadPool;
    struct State;
    explicit TaskGroup(ThreadPool& pool);
    ThreadPool* pool_;
    std::shared_ptr<State> state_;
  };

  TaskGroup group() { return TaskGroup(*this); }

  /// Runs fn(0) .. fn(n-1) concurrently and returns when all have
  /// finished. The closures may block on each other (see the gang contract
  /// above). The caller executes gang tasks itself while it waits. Called
  /// from a pool worker thread, falls back to dedicated temporary threads.
  /// Rethrows the first exception thrown by any gang closure (by lowest
  /// index) after all have finished.
  void run_gang(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// True on a thread currently executing a pool task (worker or helper).
  static bool on_worker_thread() noexcept;

  // -- observability ----------------------------------------------------------
  /// Tasks currently queued (plain + gang) across all queues.
  std::size_t queue_depth() const noexcept;
  /// High-water mark of queue_depth() since construction.
  std::size_t queue_high_water() const noexcept;
  /// Seconds each worker has spent executing tasks (index = worker).
  std::vector<double> worker_busy_seconds() const;

  /// The process-wide pool every layer shares. Created on first use with
  /// JMH_EXEC_THREADS (worker count) and JMH_EXEC_PIN=1 (pinning) honored.
  static ThreadPool& global();

 private:
  struct Task {
    std::function<void()> fn;
    std::shared_ptr<TaskGroup::State> group;  ///< null for gang tasks
    /// Shared, not raw: run_gang returns once all gang ENTRIES finish, but
    /// a ticket whose entry was taken by the caller or a temp may still sit
    /// queued -- it must keep the state alive until a worker pops it.
    std::shared_ptr<GangState> gang;
  };

  void worker_loop(std::size_t index);
  /// Pops a task: own deque back (LIFO), then the injector, then steal
  /// from other deques (FIFO). Returns false when nothing is queued.
  bool try_pop(std::size_t self, Task& out);
  void push_external(Task task);
  void push_local(Task task);
  void run_task(Task& task, std::size_t worker_index);
  void note_pushed();
  void note_popped();
  void run_gang_detached(std::size_t n, const std::function<void(std::size_t)>& fn);

  struct WorkerQueue {
    mutable std::mutex mu;
    std::deque<Task> deque;
  };

  mutable std::mutex mu_;                ///< injector + lifecycle
  std::condition_variable work_cv_;      ///< workers: work available / stop
  std::deque<Task> injector_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;

  // Gang admission (FIFO all-or-nothing reservation of workers).
  std::mutex gang_mu_;
  std::condition_variable gang_cv_;
  std::uint64_t gang_next_ticket_ = 0;
  std::uint64_t gang_serving_ = 0;
  std::size_t gang_reserved_ = 0;  ///< outstanding pool-queued gang tasks

  // Observability (relaxed atomics: monitoring, not synchronization).
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> high_water_{0};
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> busy_ns_;
};

}  // namespace jmh::exec
