// svc::SolverService: service results bit-identical to direct plan.solve
// across all three backends, cache amortization, coalescing correctness,
// error isolation, metrics accounting, and shutdown/drain semantics.
#include <gtest/gtest.h>

#include <future>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "la/sym_gen.hpp"
#include "svc/service.hpp"

namespace jmh::svc {
namespace {

la::Matrix test_matrix(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  return la::random_uniform_symmetric(n, rng);
}

void expect_bit_identical(const api::SolveReport& got, const api::SolveReport& want) {
  EXPECT_EQ(got.eigenvalues, want.eigenvalues);
  EXPECT_EQ(la::Matrix::max_abs_diff(got.eigenvectors, want.eigenvectors), 0.0);
  EXPECT_EQ(got.sweeps, want.sweeps);
  EXPECT_EQ(got.rotations, want.rotations);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(got.comm.messages, want.comm.messages);
  EXPECT_EQ(got.comm.elements, want.comm.elements);
  EXPECT_EQ(got.modeled_time, want.modeled_time);
  EXPECT_EQ(got.link_busy, want.link_busy);
}

// The acceptance criterion: reports served through the pool are
// bit-identical to direct plan.solve for the same matrices, on every
// backend.
TEST(SolverService, ServedReportsMatchDirectSolvesBitForBit) {
  const std::vector<std::string> specs = {
      "backend=inline,ordering=d4,m=16,d=2",
      "backend=mpi,ordering=d4,m=16,d=2",
      "backend=sim,ordering=pbr,m=16,d=2,pipeline=auto",
  };
  SolverService service({.workers = 3, .queue_capacity = 16, .cache_capacity = 8});

  std::vector<std::future<api::SolveReport>> futures;
  std::vector<api::SolveReport> direct;
  for (const std::string& spec : specs) {
    const api::SolvePlan plan = api::Solver::plan(api::SolverSpec::parse(spec));
    for (std::uint64_t seed : {5u, 6u, 7u}) {
      const la::Matrix a = test_matrix(16, seed);
      direct.push_back(plan.solve(a));
      futures.push_back(service.submit(spec, a));
    }
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const api::SolveReport served = futures[i].get();
    ASSERT_TRUE(served.converged) << "job " << i;
    expect_bit_identical(served, direct[i]);
  }
}

TEST(SolverService, CacheAmortizesRepeatedSpecs) {
  SolverService service({.workers = 2, .queue_capacity = 32, .cache_capacity = 8});
  const std::string spec = "backend=inline,ordering=d4,m=16,d=2";

  std::vector<std::future<api::SolveReport>> futures;
  for (std::uint64_t seed = 1; seed <= 10; ++seed)
    futures.push_back(service.submit(spec, test_matrix(16, seed)));
  for (auto& f : futures) EXPECT_TRUE(f.get().converged);
  service.drain();  // counters are recorded just after promise fulfillment

  const Metrics m = service.metrics();
  EXPECT_EQ(m.jobs_submitted, 10u);
  EXPECT_EQ(m.jobs_done, 10u);
  EXPECT_EQ(m.jobs_failed, 0u);
  // One distinct scenario: every resolution after a worker's first is a
  // hit. The cache deliberately compiles cold keys outside its lock, so
  // the 2 workers may race the first resolution and both count a miss
  // (the loser adopts the winner's entry) -- bounded by the worker count.
  EXPECT_GE(m.cache_misses, 1u);
  EXPECT_LE(m.cache_misses, 2u);
  EXPECT_EQ(m.cache_hits + m.cache_misses, 10u);
  EXPECT_EQ(m.latency_count, 10u);
  EXPECT_GT(m.latency_mean_s, 0.0);
  EXPECT_LE(m.latency_p50_s, m.latency_p90_s);
  EXPECT_LE(m.latency_p90_s, m.latency_p99_s);
  EXPECT_LE(m.latency_p99_s, m.latency_max_s);
  EXPECT_GE(m.queue_high_water, 1u);
  EXPECT_EQ(m.workers, 2u);
}

TEST(SolverService, CoalescingKeepsResultsIdentical) {
  // One worker + large coalesce bound: same-spec runs execute as batches.
  SolverService service(
      {.workers = 1, .queue_capacity = 64, .cache_capacity = 4, .max_coalesce = 8});
  const std::string spec = "backend=inline,ordering=br,m=16,d=2";
  const api::SolvePlan plan = api::Solver::plan(api::SolverSpec::parse(spec));

  std::vector<std::future<api::SolveReport>> futures;
  std::vector<api::SolveReport> direct;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const la::Matrix a = test_matrix(16, seed);
    direct.push_back(plan.solve(a));
    futures.push_back(service.submit(spec, a));
  }
  for (std::size_t i = 0; i < futures.size(); ++i)
    expect_bit_identical(futures[i].get(), direct[i]);
  service.drain();

  const Metrics m = service.metrics();
  EXPECT_EQ(m.jobs_done, 12u);
  EXPECT_EQ(m.cache_misses, 1u);
}

TEST(SolverService, BadSpecsFailTheJobNotTheService) {
  SolverService service({.workers = 1, .queue_capacity = 8, .cache_capacity = 4});

  auto bad_parse = service.submit("bogus=1", test_matrix(16, 1));
  auto infeasible = service.submit("m=4,d=2", test_matrix(4, 2));
  auto wrong_order = service.submit("m=16,d=2", test_matrix(12, 3));
  EXPECT_THROW(bad_parse.get(), std::invalid_argument);
  EXPECT_THROW(infeasible.get(), std::invalid_argument);
  EXPECT_THROW(wrong_order.get(), std::invalid_argument);

  // The service keeps serving after failures.
  auto good = service.submit("m=16,d=2", test_matrix(16, 4));
  EXPECT_TRUE(good.get().converged);
  service.drain();

  const Metrics m = service.metrics();
  EXPECT_EQ(m.jobs_failed, 3u);
  EXPECT_EQ(m.jobs_done, 1u);
}

TEST(SolverService, DrainWaitsForQuiescence) {
  SolverService service({.workers = 2, .queue_capacity = 32, .cache_capacity = 4});
  std::vector<std::future<api::SolveReport>> futures;
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    futures.push_back(service.submit("backend=inline,ordering=d4,m=16,d=2",
                                     test_matrix(16, seed)));
  service.drain();
  // After drain every future is immediately ready.
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_TRUE(f.get().converged);
  }
  const Metrics m = service.metrics();
  EXPECT_EQ(m.jobs_done + m.jobs_failed, m.jobs_submitted);
  EXPECT_EQ(m.queue_depth, 0u);
}

TEST(SolverService, ShutdownFulfillsAdmittedJobsAndRejectsNewOnes) {
  SolverService service({.workers = 1, .queue_capacity = 32, .cache_capacity = 4});
  std::vector<std::future<api::SolveReport>> futures;
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    futures.push_back(service.submit("backend=inline,ordering=d4,m=16,d=2",
                                     test_matrix(16, seed)));
  service.shutdown();
  for (auto& f : futures) EXPECT_TRUE(f.get().converged) << "admitted jobs must drain";

  auto rejected = service.submit("m=16,d=2", test_matrix(16, 9));
  EXPECT_THROW(rejected.get(), std::runtime_error);
  EXPECT_EQ(service.try_submit("m=16,d=2", test_matrix(16, 9)), std::nullopt);

  service.shutdown();  // idempotent
}

TEST(SolverService, TrySubmitShedsWhenSaturated) {
  // Tiny queue + slow-ish jobs: with enough rapid try_submits at least the
  // capacity bound must eventually shed (the queue holds at most 1).
  SolverService service({.workers = 1, .queue_capacity = 1, .cache_capacity = 4});
  std::vector<std::future<api::SolveReport>> admitted;
  std::size_t shed = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    auto f = service.try_submit("backend=inline,ordering=d4,m=32,d=2",
                                test_matrix(32, seed));
    if (f) admitted.push_back(std::move(*f));
    else ++shed;
  }
  for (auto& f : admitted) EXPECT_TRUE(f.get().converged);
  EXPECT_GT(shed, 0u);
  service.drain();
  const Metrics m = service.metrics();
  EXPECT_EQ(m.jobs_submitted, admitted.size());
  EXPECT_EQ(m.jobs_done, admitted.size());
  EXPECT_LE(m.queue_high_water, 1u);
}

TEST(SolverService, DestructorDrainsOutstandingJobs) {
  std::future<api::SolveReport> f;
  {
    SolverService service({.workers = 1, .queue_capacity = 8, .cache_capacity = 2});
    f = service.submit("backend=inline,ordering=d4,m=16,d=2", test_matrix(16, 1));
  }  // ~SolverService: close, drain, join
  EXPECT_TRUE(f.get().converged);
}

TEST(SolverService, MetricsSummaryMentionsTheKeyCounters) {
  SolverService service({.workers = 1, .queue_capacity = 8, .cache_capacity = 2});
  service.submit("backend=inline,ordering=d4,m=16,d=2", test_matrix(16, 1)).get();
  const std::string text = service.metrics().summary();
  EXPECT_NE(text.find("workers"), std::string::npos);
  EXPECT_NE(text.find("cache hits"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
  EXPECT_NE(text.find("high water"), std::string::npos);
  EXPECT_NE(text.find("dispatch"), std::string::npos);
}

TEST(SolverService, MetricsCarryDispatcherBusyTimeAndPoolStats) {
  SolverService service({.workers = 2, .queue_capacity = 16, .cache_capacity = 4});
  std::vector<std::future<api::SolveReport>> futures;
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    futures.push_back(service.submit("backend=inline,ordering=d4,m=32,d=2",
                                     test_matrix(32, seed)));
  for (auto& f : futures) EXPECT_TRUE(f.get().converged);
  service.drain();

  const Metrics m = service.metrics();
  ASSERT_EQ(m.worker_busy_s.size(), 2u);  // one slot per dispatcher
  double dispatched = 0.0;
  for (double b : m.worker_busy_s) {
    EXPECT_GE(b, 0.0);
    dispatched += b;
  }
  EXPECT_GT(dispatched, 0.0);  // six solves cannot take zero time

  // The shared pool section mirrors exec::ThreadPool::global().
  EXPECT_EQ(m.pool_workers, exec::ThreadPool::global().workers());
  EXPECT_EQ(m.pool_busy_s.size(), m.pool_workers);
}

}  // namespace
}  // namespace jmh::svc
