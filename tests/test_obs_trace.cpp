// obs:: tracing: span nesting per thread, ring wrap semantics (drop oldest,
// count drops, never stall), the trace=0 bit-identical contract on every
// backend scenario, allocation-free armed recording, phase-attributed
// report timings, and the Chrome trace_event JSON golden.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/solver.hpp"
#include "common/alloc_guard.hpp"
#include "la/sym_gen.hpp"
#include "obs/trace.hpp"
#include "svc/service.hpp"

namespace jmh::obs {
namespace {

la::Matrix test_matrix(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  return la::random_uniform_symmetric(n, rng);
}

// The four backend execution scenarios of the paper protocol: inline,
// mpi_lite full-block, mpi_lite pipelined, and the simulated machine.
const char* const kScenarios[] = {
    "backend=inline,ordering=d4,m=16,d=2",
    "backend=mpi,ordering=d4,m=16,d=2",
    "backend=mpi,ordering=br,m=16,d=2,pipeline=2",
    "backend=sim,ordering=pbr,m=16,d=2,pipeline=auto",
};

void expect_bit_identical(const api::SolveReport& got, const api::SolveReport& want,
                          const char* label) {
  EXPECT_EQ(got.eigenvalues, want.eigenvalues) << label;
  EXPECT_EQ(la::Matrix::max_abs_diff(got.eigenvectors, want.eigenvectors), 0.0) << label;
  EXPECT_EQ(got.sweeps, want.sweeps) << label;
  EXPECT_EQ(got.rotations, want.rotations) << label;
  EXPECT_EQ(got.converged, want.converged) << label;
  EXPECT_EQ(got.comm.messages, want.comm.messages) << label;
  EXPECT_EQ(got.comm.elements, want.comm.elements) << label;
  EXPECT_EQ(got.comm.barriers, want.comm.barriers) << label;
  EXPECT_EQ(got.modeled_time, want.modeled_time) << label;
  EXPECT_EQ(got.link_busy, want.link_busy) << label;
}

#if JMH_TRACE_ENABLED

TEST(Trace, SpansNestPerThread) {
  reset_tracing();
  const ArmScope arm(true);
  {
    const SpanScope outer("outer", Category::kExec, 1);
    {
      const SpanScope inner("inner", Category::kExec, 2);
    }
  }
  const std::vector<TraceEvent> events = snapshot_trace_events();
  ASSERT_EQ(events.size(), 2u);
  // Complete events are recorded at scope EXIT, so the inner span lands
  // first; both must carry this thread's ring id and nest by interval.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_EQ(inner.tid, outer.tid);
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.dur_ns, outer.start_ns + outer.dur_ns);
}

TEST(Trace, ThreadsRecordIntoDistinctRings) {
  reset_tracing();
  const ArmScope arm(true);
  trace_record("main", Category::kExec, trace_now_ns(), 0, 0);
  std::thread other([] { trace_record("other", Category::kExec, trace_now_ns(), 0, 0); });
  other.join();
  const std::vector<TraceEvent> events = snapshot_trace_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST(Trace, RingWrapDropsOldestAndCounts) {
  reset_tracing();
  const ArmScope arm(true);
  const std::size_t cap = trace_ring_capacity();
  ASSERT_GT(cap, 0u);
  const std::size_t extra = 100;
  for (std::size_t i = 0; i < cap + extra; ++i)
    trace_record("e", Category::kExec, i, 1, i);  // arg = sequence number
  EXPECT_EQ(trace_recorded_events(), cap + extra);
  EXPECT_EQ(trace_dropped_events(), extra);
  const std::vector<TraceEvent> events = snapshot_trace_events();
  ASSERT_EQ(events.size(), cap);
  // Oldest events are the ones dropped: the survivors are the LAST cap
  // records, oldest-first.
  for (std::size_t i = 0; i < cap; ++i)
    ASSERT_EQ(events[i].arg, extra + i) << "index " << i;
}

#ifndef NDEBUG
TEST(Trace, ArmedRecordingIsAllocationFreeAfterWarmup) {
  reset_tracing();
  const ArmScope arm(true);
  trace_record("warmup", Category::kExec, 0, 0, 0);  // ring created here
  const common::AllocGuard guard;
  for (int i = 0; i < 1000; ++i) {
    const SpanScope span("steady", Category::kSweep, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(guard.allocations(), 0u)
      << "armed span recording allocated after the ring warmed up";
}
#endif

// trace=1 must observe, never perturb: solution fields, sweep counts, and
// traffic counters stay bit-identical to the trace=0 run on every backend
// scenario -- and the trace=0 run records NOTHING.
TEST(Trace, UnarmedSolveIsBitIdenticalOnEveryBackend) {
  const la::Matrix a = test_matrix(16, 42);
  for (const char* scenario : kScenarios) {
    reset_tracing();
    const api::SolveReport plain =
        api::Solver::solve(api::SolverSpec::parse(scenario), a);
    EXPECT_EQ(trace_recorded_events(), 0u)
        << scenario << ": an unarmed solve recorded trace events";
    EXPECT_EQ(plain.timings.sweep_ns, 0u) << scenario;
    EXPECT_EQ(plain.timings.comm_ns, 0u) << scenario;
    EXPECT_EQ(plain.timings.assembly_ns, 0u) << scenario;

    std::string traced_spec(scenario);  // built by append: gcc 12 -Wrestrict
    traced_spec += ",trace=1";
    const api::SolveReport traced =
        api::Solver::solve(api::SolverSpec::parse(traced_spec), a);
    EXPECT_GT(trace_recorded_events(), 0u) << scenario;
    expect_bit_identical(traced, plain, scenario);
  }
}

TEST(Trace, TracedSolvePopulatesPhaseTimings) {
  reset_tracing();
  const la::Matrix a = test_matrix(32, 7);
  const api::SolveReport r = api::Solver::solve(
      api::SolverSpec::parse("backend=mpi,ordering=d4,m=32,d=2,trace=1"), a);
  EXPECT_GT(r.timings.plan_ns, 0u);
  EXPECT_GT(r.timings.sweep_ns, 0u);
  EXPECT_GT(r.timings.comm_ns, 0u);
  // comm is attributed from within the sweeps (plus the init allreduce), so
  // a comm total beyond sweep + one allreduce would be double counting.
  EXPECT_EQ(r.timings.queue_ns, 0u);  // svc fills this; a direct solve does not
  EXPECT_EQ(r.timings.retries, 0u);
}

// Service jobs carry the serving-plane attribution: queue_ns from the
// admission timestamp, the svc.queue_wait span, and per-job svc.solve
// envelopes in the trace.
TEST(Trace, ServiceJobsCarryQueueAttribution) {
  reset_tracing();
  const std::string spec = "backend=inline,ordering=d4,m=16,d=2,trace=1";
  svc::SolverService service({.workers = 1, .queue_capacity = 8});
  auto f1 = service.submit(spec, test_matrix(16, 1));
  auto f2 = service.submit(spec, test_matrix(16, 2));
  const api::SolveReport r1 = f1.get();
  const api::SolveReport r2 = f2.get();
  service.drain();
  EXPECT_GT(r1.timings.queue_ns, 0u);
  EXPECT_GT(r2.timings.queue_ns, 0u);
  EXPECT_GT(r1.timings.sweep_ns, 0u);
  bool saw_queue_wait = false;
  bool saw_svc_solve = false;
  for (const TraceEvent& e : snapshot_trace_events()) {
    if (std::string(e.name) == "svc.queue_wait") saw_queue_wait = true;
    if (std::string(e.name) == "svc.solve") saw_svc_solve = true;
  }
  EXPECT_TRUE(saw_queue_wait);
  EXPECT_TRUE(saw_svc_solve);
}

// The Chrome trace_event rendering is a machine interface: golden-pinned
// modulo timing digits. Regenerate with JMH_UPDATE_GOLDEN=1.
TEST(Trace, ChromeJsonMatchesGolden) {
  reset_tracing();
  const la::Matrix a = test_matrix(16, 3);
  // Single-threaded inline scenario, one sweep: a deterministic span
  // sequence on one ring.
  (void)api::Solver::solve(
      api::SolverSpec::parse("backend=inline,ordering=d4,m=16,d=2,max_sweeps=1,trace=1"), a);
  std::string json = chrome_trace_json();

  // Normalize what legitimately varies run to run: timestamps, durations,
  // and the ring id (earlier tests may have registered rings first).
  json = std::regex_replace(json, std::regex(R"("ts":[0-9.]+)"), "\"ts\":T");
  json = std::regex_replace(json, std::regex(R"("dur":[0-9.]+)"), "\"dur\":D");
  json = std::regex_replace(json, std::regex(R"("tid":[0-9]+)"), "\"tid\":N");

  std::string golden_path(JMH_SOURCE_DIR);  // built by append: gcc 12 -Wrestrict
  golden_path += "/tests/golden/trace_inline_m16.json";
  if (std::getenv("JMH_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out) << "cannot write " << golden_path;
    out << json;
    GTEST_SKIP() << "golden updated: " << golden_path;
  }
  std::ifstream in(golden_path);
  ASSERT_TRUE(in) << "missing golden " << golden_path
                  << " (regenerate with JMH_UPDATE_GOLDEN=1)";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(json, want.str());
}

#endif  // JMH_TRACE_ENABLED

// plan_ns covers building the ordering: for MinAlpha at d=5 the sequence
// search is most of Solver::plan, so the reported plan time must reach at
// least half of the fastest of five stand-alone constructions. plan_ns is
// measured in both trace modes.
TEST(Trace, PlanNsCoversOrderingConstruction) {
  using Clock = std::chrono::steady_clock;
  auto fastest = std::numeric_limits<std::uint64_t>::max();
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point t0 = Clock::now();
    const ord::JacobiOrdering ordering(ord::OrderingKind::MinAlpha, 5);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0);
    fastest = std::min(fastest, static_cast<std::uint64_t>(ns.count()));
  }
  const api::SolvePlan plan =
      api::Solver::plan(api::SolverSpec::parse("ordering=minalpha,m=128,d=5"));
  const api::SolveReport r = plan.solve(test_matrix(128, 3));
  EXPECT_GE(2 * r.timings.plan_ns, fastest);
}

// Structural validation holds in BOTH trace modes: the writer always emits
// a loadable trace_event document.
TEST(Trace, ChromeJsonIsStructurallyValid) {
  std::ostringstream out;
  write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json.substr(0, 40);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\""), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
  EXPECT_EQ(chrome_trace_json(), json);
}

}  // namespace
}  // namespace jmh::obs
