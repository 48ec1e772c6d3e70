#include "exec/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/alloc_guard.hpp"
#include "common/assert.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace jmh::exec {

namespace {

// Which pool worker (if any) the current thread is. Helpers and gang
// callers stay kNotWorker: only threads whose lifetime the pool owns count,
// because run_gang's admission math reserves exactly those.
constexpr std::size_t kNotWorker = static_cast<std::size_t>(-1);
thread_local std::size_t tl_worker_index = kNotWorker;

void pin_to_cpu(std::thread& t, std::size_t index) {
#ifdef __linux__
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(index % cores), &set);
  // Best effort: a failed affinity call (cpuset-restricted container)
  // leaves the worker unpinned, which is always correct.
  pthread_setaffinity_np(t.native_handle(), sizeof set, &set);
#else
  (void)t;
  (void)index;
#endif
}

}  // namespace

std::size_t pick_workers(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 2;
}

// ---- TaskGroup --------------------------------------------------------------

struct ThreadPool::TaskGroup::State {
  std::mutex mu;
  std::condition_variable cv;
  /// Entries not yet started, with their submission index (error ordering).
  std::deque<std::pair<std::size_t, std::function<void()>>> pending;
  std::size_t added = 0;
  std::size_t finished = 0;
  std::size_t first_error_index = static_cast<std::size_t>(-1);
  std::exception_ptr first_error;

  /// Pops and runs one pending entry; false when none were pending. Shared
  /// by workers (via their ticket task) and the helping waiter, so each
  /// entry runs exactly once no matter who gets to it first.
  bool run_one() {
    std::pair<std::size_t, std::function<void()>> entry;
    {
      std::lock_guard lock(mu);
      if (pending.empty()) return false;
      entry = std::move(pending.front());
      pending.pop_front();
    }
    std::exception_ptr error;
    try {
      entry.second();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard lock(mu);
      if (error && entry.first < first_error_index) {
        first_error_index = entry.first;
        first_error = error;
      }
      ++finished;
    }
    cv.notify_all();
    return true;
  }
};

ThreadPool::TaskGroup::TaskGroup(ThreadPool& pool)
    : pool_(&pool), state_(std::make_shared<State>()) {}

ThreadPool::TaskGroup::~TaskGroup() {
  // wait() is part of the contract; recover (don't hang workers on a
  // dangling group) if a caller unwound past it.
  if (state_) wait();
}

void ThreadPool::TaskGroup::add(std::function<void()> fn) {
  {
    std::lock_guard lock(state_->mu);
    state_->pending.emplace_back(state_->added++, std::move(fn));
  }
  Task ticket;
  ticket.group = state_;
  if (tl_worker_index != kNotWorker)
    pool_->push_local(std::move(ticket));
  else
    pool_->push_external(std::move(ticket));
}

void ThreadPool::TaskGroup::wait() {
  // Helping wait: drain this group's still-queued entries on the calling
  // thread, then sleep until in-flight entries (taken by workers) finish.
  while (state_->run_one()) {
  }
  std::unique_lock lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->finished == state_->added; });
  const std::exception_ptr error = state_->first_error;
  lock.unlock();
  state_.reset();  // a second wait() (or the destructor) is a no-op
  if (error) std::rethrow_exception(error);
}

// ---- gangs ------------------------------------------------------------------

struct GangState {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> pot;  ///< indices not yet started
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t remaining = 0;  ///< indices not yet finished
  std::size_t first_error_index = static_cast<std::size_t>(-1);
  std::exception_ptr first_error;

  bool run_one() {
    std::size_t index;
    {
      std::lock_guard lock(mu);
      if (pot.empty()) return false;
      index = pot.front();
      pot.pop_front();
    }
    std::exception_ptr error;
    try {
      (*fn)(index);
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard lock(mu);
      if (error && index < first_error_index) {
        first_error_index = index;
        first_error = error;
      }
      --remaining;
    }
    cv.notify_all();
    return true;
  }

  /// Helps until the pot is dry, sleeps until every entry finished, and
  /// RETURNS (not throws) the first error by index: the caller still has
  /// temp threads to join before it may unwind.
  std::exception_ptr drain_and_wait() {
    while (run_one()) {
    }
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return remaining == 0; });
    return first_error;
  }
};

void ThreadPool::run_gang(std::size_t n, const std::function<void(std::size_t)>& fn) {
  JMH_REQUIRE(n >= 1, "gang size must be >= 1");
  if (n == 1) {
    fn(0);
    return;
  }
  // A nested gang cannot reserve the worker its caller already occupies;
  // dedicated temporaries keep it deadlock-free (see header contract).
  if (on_worker_thread() || workers_.empty()) {
    run_gang_detached(n, fn);
    return;
  }

  // Shared with the queued tickets: a stale ticket (its entry already taken
  // by the caller or a temp) may be popped AFTER this call returns, and
  // must still find a live state to no-op against.
  auto st = std::make_shared<GangState>();
  st->fn = &fn;
  st->remaining = n;
  for (std::size_t i = 0; i < n; ++i) st->pot.push_back(i);

  // FIFO all-or-nothing admission. The caller is one executor, so a gang
  // needs n - 1 workers; wider than the pool, it waits for exclusivity and
  // brings its own temporaries for the overflow.
  const std::size_t width = workers_.size();
  const std::size_t reserve = std::min(n - 1, width);
  const bool oversized = n - 1 > width;
  {
    // The admission wait is where gangs queue behind each other; its span
    // (arg = gang width) is how "solve was slow" separates into "waited for
    // workers" vs "computed slowly".
    const obs::SpanScope admit_span("exec.gang_admit", obs::Category::kExec,
                                    static_cast<std::uint64_t>(n));
    std::unique_lock lock(gang_mu_);
    const std::uint64_t ticket = gang_next_ticket_++;
    gang_cv_.wait(lock, [&] {
      if (gang_serving_ != ticket) return false;
      return oversized ? gang_reserved_ == 0 : gang_reserved_ + reserve <= width;
    });
    gang_reserved_ += reserve;
    ++gang_serving_;
  }
  gang_cv_.notify_all();

  // Overflow temporaries (only when this gang alone exceeds the machine).
  std::vector<std::thread> temps;
  if (n - 1 > reserve) {
    temps.reserve(n - 1 - reserve);
    for (std::size_t t = 0; t < n - 1 - reserve; ++t)
      temps.emplace_back([st] {
        while (st->run_one()) {
        }
      });
  }
  // Pool share: one ticket per reserved worker; a ticket that arrives
  // after the pot drained is a no-op and releases its reservation.
  for (std::size_t t = 0; t < reserve; ++t) {
    Task task;
    task.gang = st;
    push_external(std::move(task));
  }

  const std::exception_ptr error = st->drain_and_wait();  // caller helps too
  for (std::thread& t : temps) t.join();
  if (error) std::rethrow_exception(error);
}

void ThreadPool::run_gang_detached(std::size_t n, const std::function<void(std::size_t)>& fn) {
  GangState st;  // no tickets are queued, so stack lifetime is fine here
  st.fn = &fn;
  st.remaining = n;
  for (std::size_t i = 0; i < n; ++i) st.pot.push_back(i);
  std::vector<std::thread> temps;
  temps.reserve(n - 1);
  for (std::size_t t = 0; t < n - 1; ++t)
    temps.emplace_back([&st] {
      while (st.run_one()) {
      }
    });
  const std::exception_ptr error = st.drain_and_wait();
  for (std::thread& t : temps) t.join();
  if (error) std::rethrow_exception(error);
}

// ---- pool core --------------------------------------------------------------

ThreadPool::ThreadPool(PoolConfig config) {
  const std::size_t n = pick_workers(config.workers);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
    busy_ns_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  }
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
    if (config.pin_threads) pin_to_cpu(workers_.back(), i);
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::note_pushed() {
  // Bumps pending_ while HOLDING mu_ (callers guarantee it): workers check
  // the wait predicate under mu_, so an increment outside the lock could
  // land between a worker's predicate check and its sleep -- a classic
  // missed wakeup. The counter stays atomic only so queue_depth() and
  // note_popped() stay lock-free.
  const std::size_t depth = pending_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::size_t seen = high_water_.load(std::memory_order_relaxed);
  while (depth > seen &&
         !high_water_.compare_exchange_weak(seen, depth, std::memory_order_relaxed)) {
  }
}

void ThreadPool::note_popped() { pending_.fetch_sub(1, std::memory_order_relaxed); }

std::size_t ThreadPool::queue_depth() const noexcept {
  return pending_.load(std::memory_order_relaxed);
}

std::size_t ThreadPool::queue_high_water() const noexcept {
  return high_water_.load(std::memory_order_relaxed);
}

std::vector<double> ThreadPool::worker_busy_seconds() const {
  std::vector<double> out;
  out.reserve(busy_ns_.size());
  for (const auto& ns : busy_ns_) out.push_back(1e-9 * static_cast<double>(ns->load()));
  return out;
}

bool ThreadPool::on_worker_thread() noexcept { return tl_worker_index != kNotWorker; }

void ThreadPool::push_external(Task task) {
  {
    std::lock_guard lock(mu_);
    injector_.push_back(std::move(task));
    note_pushed();
  }
  work_cv_.notify_one();
}

void ThreadPool::push_local(Task task) {
  const std::size_t self = tl_worker_index;
  if (self == kNotWorker || self >= queues_.size()) {
    push_external(std::move(task));
    return;
  }
  {
    std::lock_guard lock(queues_[self]->mu);
    queues_[self]->deque.push_back(std::move(task));
  }
  {
    std::lock_guard lock(mu_);
    note_pushed();
  }
  work_cv_.notify_one();
}

bool ThreadPool::try_pop(std::size_t self, Task& out) {
  // Own deque, newest first: nested submissions stay cache-hot.
  {
    WorkerQueue& q = *queues_[self];
    std::lock_guard lock(q.mu);
    if (!q.deque.empty()) {
      out = std::move(q.deque.back());
      q.deque.pop_back();
      note_popped();
      return true;
    }
  }
  // Injector next (external producers), then steal oldest-first from the
  // other workers.
  {
    std::lock_guard lock(mu_);
    if (!injector_.empty()) {
      out = std::move(injector_.front());
      injector_.pop_front();
      note_popped();
      return true;
    }
  }
  for (std::size_t k = 1; k < queues_.size(); ++k) {
    const std::size_t victim = (self + k) % queues_.size();
    WorkerQueue& q = *queues_[victim];
    std::lock_guard lock(q.mu);
    if (!q.deque.empty()) {
      out = std::move(q.deque.front());
      q.deque.pop_front();
      note_popped();
      // Instant event (zero duration), arg = victim: steal storms show up
      // as dense tick rows in the trace. Armed-only, so the steady-state
      // dispatch path pays one relaxed load.
      if (obs::trace_armed())
        obs::trace_record("exec.steal", obs::Category::kExec, obs::trace_now_ns(), 0,
                          static_cast<std::uint64_t>(victim));
      return true;
    }
  }
  return false;
}

void ThreadPool::run_task(Task& task, std::size_t worker_index) {
  const auto start = std::chrono::steady_clock::now();
  if (task.group) {
    task.group->run_one();  // no-op when a helper already ran the entry
  } else if (task.gang) {
    task.gang->run_one();
    {
      std::lock_guard lock(gang_mu_);
      --gang_reserved_;  // this worker is lendable again
    }
    gang_cv_.notify_all();
  } else if (task.fn) {
    task.fn();
  }
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() - start)
          .count();
  busy_ns_[worker_index]->fetch_add(static_cast<std::uint64_t>(ns),
                                    std::memory_order_relaxed);
  // Reuses the busy-time clock reads above: an armed trace costs only the
  // record itself here, a disarmed one only this load.
  if (obs::trace_armed())
    obs::trace_record("exec.task", obs::Category::kExec, obs::trace_time_ns(start),
                      static_cast<std::uint64_t>(ns), worker_index);
}

void ThreadPool::worker_loop(std::size_t index) {
  tl_worker_index = index;
  Task task;
  for (;;) {
    // Steady-state dispatch must not allocate: popping a task is pure
    // moves (std::function's move steals, deque pop frees at most).
    // Audited in JMH_DASSERT builds; the task body itself may of course
    // allocate -- only the scheduling machinery is under contract.
    const common::AllocGuard dispatch_guard;
    if (try_pop(index, task)) {
      JMH_ALLOC_ASSERT_ZERO(dispatch_guard,
                            "pool dispatch (try_pop) allocated in steady state");
      run_task(task, index);
      task = Task{};
      continue;
    }
    std::unique_lock lock(mu_);
    work_cv_.wait(lock, [&] {
      return stopping_ || pending_.load(std::memory_order_relaxed) != 0;
    });
    if (stopping_ && pending_.load(std::memory_order_relaxed) == 0) break;
  }
  tl_worker_index = kNotWorker;
}

// ---- global instance --------------------------------------------------------

ThreadPool& ThreadPool::global() {
  // Trace infrastructure first: workers record spans until they join, so
  // the ring registry must be constructed BEFORE the pool to be destructed
  // after it (static destruction runs in reverse construction order).
  obs::init_tracing();
  static ThreadPool pool([] {
    PoolConfig config;
    if (const char* n = std::getenv("JMH_EXEC_THREADS"))
      config.workers = static_cast<std::size_t>(std::strtoull(n, nullptr, 10));
    if (const char* pin = std::getenv("JMH_EXEC_PIN"))
      config.pin_threads = std::string(pin) == "1";
    return config;
  }());
  // Gauges registered after the pool: their handles unregister (reverse
  // order again) while both the registry and the pool are still alive, so
  // a late render never calls into a dead pool.
  struct PoolGauges {
    obs::GaugeHandle workers;
    obs::GaugeHandle high_water;
    obs::GaugeHandle busy;
  };
  static const PoolGauges gauges{
      obs::Registry::global().register_gauge(
          "exec.pool.workers", [] { return static_cast<double>(pool.workers()); }),
      obs::Registry::global().register_gauge(
          "exec.pool.queue_high_water",
          [] { return static_cast<double>(pool.queue_high_water()); }),
      obs::Registry::global().register_gauge("exec.pool.busy_seconds_total", [] {
        double total = 0.0;
        for (double s : pool.worker_busy_seconds()) total += s;
        return total;
      })};
  (void)gauges;
  return pool;
}

}  // namespace jmh::exec
