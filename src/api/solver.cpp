#include "api/solver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <utility>

#include "api/task_adapter.hpp"
#include "common/assert.hpp"
#include "exec/thread_pool.hpp"
#include "obs/trace.hpp"
#include "pipe/optimizer.hpp"
#include "solve/fault_injection.hpp"
#include "solve/inline_transport.hpp"
#include "solve/mpi_transport.hpp"
#include "solve/parallel_jacobi.hpp"
#include "solve/sim_transport.hpp"
#include "solve/sweep_engine.hpp"

namespace jmh::api {

namespace {

/// Moves the executor-agnostic solution fields into a report.
void fill_solution(SolveReport& report, solve::DistributedResult&& dr) {
  report.eigenvalues = std::move(dr.eigenvalues);
  report.eigenvectors = std::move(dr.eigenvectors);
  report.sweeps = dr.sweeps;
  report.converged = dr.converged;
  report.rotations = dr.rotations;
  report.comm = dr.comm;
}

/// Same for a task=svd run: V rides in the eigenvectors slot (see
/// SolveReport), sigma and U in their own fields.
void fill_svd_solution(SolveReport& report, solve::SvdSolveResult&& sr) {
  report.singular_values = std::move(sr.singular_values);
  report.u = std::move(sr.u);
  report.eigenvectors = std::move(sr.v);
  report.sweeps = sr.sweeps;
  report.converged = sr.converged;
  report.rotations = sr.rotations;
  report.comm = sr.comm;
}

}  // namespace

SolvePlan::SolvePlan(SolverSpec spec, ord::JacobiOrdering ordering, std::uint64_t plan_t0)
    : spec_(spec),
      adapter_(&adapter_for(spec.task)),
      ordering_(std::move(ordering)),
      // The blocks partition what the CORE solves: min(rows, m) columns (a
      // wide svd/pca input runs as its transpose).
      layout_(adapter_->core_geometry(spec).cols, spec.d) {
  JMH_REQUIRE(ordering_.dimension() == spec_.d, "ordering dimension must match spec.d");
  JMH_REQUIRE(ordering_.kind() == spec_.ordering, "ordering kind must match spec.ordering");
  // A traced spec records plan compilation as a span; plan_ns_ itself is
  // measured unconditionally (two clock reads amortized over every solve).
  const obs::ArmScope arm(spec_.trace);
  const obs::SpanScope plan_span("plan", obs::Category::kPlan,
                                 static_cast<std::uint64_t>(spec_.m));
  switch (spec_.pipelining) {
    case PipeliningPolicy::Off:
      q_ = 0;
      break;
    case PipeliningPolicy::Fixed:
      q_ = spec_.q;
      break;
    case PipeliningPolicy::Auto: {
      // Qmax = columns a block can be split into; uneven layouts bound by
      // the smallest block so no phase degenerates to empty packets.
      std::uint64_t q_max = layout_.block_size(0);
      for (ord::BlockId b = 1; b < layout_.num_blocks(); ++b)
        q_max = std::min<std::uint64_t>(q_max, layout_.block_size(b));
      q_max = std::max<std::uint64_t>(1, q_max);
      // Rows-aware payload: a rectangular transition moves rows + m elements
      // per column, so the optimal q shifts with the aspect ratio. Modeled
      // on the CORE shape (a wide input transposes before the sweeps).
      const CoreGeometry geo = adapter_->core_geometry(spec_);
      pipe::ProblemParams prob;
      prob.d = spec_.d;
      prob.m = static_cast<double>(geo.cols);
      prob.rows = geo.rows == geo.cols ? 0.0 : static_cast<double>(geo.rows);
      const pipe::OptimalQ best =
          pipe::find_optimal_sweep_q(ordering_, prob, spec_.machine, q_max);
      q_ = best.q;
      planned_cost_ = best.cost;
      break;
    }
  }
  plan_ns_ = obs::trace_now_ns() - plan_t0;
}

SolveReport SolvePlan::solve_prepared(const la::Matrix& a,
                                      const solve::SolveOptions& opts) const {
  SolveReport report;
  report.task = spec_.task;
  report.backend = spec_.backend;
  report.ordering = spec_.ordering;
  report.topk = spec_.topk;

  // The sweep protocol is task-agnostic (it orthogonalizes columns either
  // way); only the extraction from the final blocks differs, and which of
  // the two extractions a task consumes is the adapter's CoreKind.
  const bool svd = adapter_->core_kind() == CoreKind::Svd;
  const auto assemble = [&](std::vector<solve::ColumnBlock> blocks,
                            const solve::EngineResult& er) {
    const obs::SpanScope span("assemble", obs::Category::kAssembly,
                              static_cast<std::uint64_t>(a.cols()),
                              opts.timing != nullptr ? &opts.timing->assembly_ns : nullptr);
    if (svd)
      fill_svd_solution(report, solve::assemble_svd_result(std::move(blocks), a.rows(),
                                                           a.cols(), er.sweeps, er.converged,
                                                           er.rotations, er.leading));
    else
      fill_solution(report, solve::assemble_result(std::move(blocks), a.rows(), er.sweeps,
                                                   er.converged, er.rotations, er.leading));
  };

  // Single-owner backends wrap their transport in the fault decorator only
  // when a schedule is armed (mpi wraps per rank inside run_mpi_protocol);
  // a non-Ok engine status aborts before assembly -- partial blocks never
  // become a report.
  const auto run_engine = [&](solve::Transport& transport) {
    solve::EngineResult er;
    if (opts.faults.enabled()) {
      solve::FaultInjectingTransport faulty(transport, opts.faults);
      er = run_sweep_protocol(faulty, ordering_, opts);
    } else {
      er = run_sweep_protocol(transport, ordering_, opts);
    }
    if (er.status != solve::RunStatus::Ok) throw solve::SolveInterrupted(er.status);
    return er;
  };

  switch (spec_.backend) {
    case Backend::Inline: {
      // Pipelining reschedules messages; with no messages to schedule the
      // inline substrate always executes unpipelined.
      solve::InlineTransport transport(a, spec_.d);
      const solve::EngineResult er = run_engine(transport);
      assemble(transport.collect_blocks(), er);
      break;
    }
    case Backend::MpiLite: {
      report.pipelining_q = q_;
      if (svd)
        fill_svd_solution(report, solve::solve_mpi_svd_like(a, ordering_, opts, q_));
      else
        fill_solution(report, solve::solve_mpi_like(a, ordering_, opts, q_));
      break;
    }
    case Backend::Sim: {
      report.pipelining_q = q_;
      solve::SimSolveOptions sopts;
      sopts.machine = spec_.machine;
      sopts.overlap_startup = spec_.overlap_startup;
      sopts.pipelined_q = q_;
      solve::SimTransport transport(a, spec_.d, sopts);
      const solve::EngineResult er = run_engine(transport);
      assemble(transport.collect_blocks(), er);
      report.has_model = true;
      report.modeled_time = transport.modeled_time();
      report.vote_time = transport.vote_time();
      report.modeled_sweeps = transport.modeled_sweeps();
      report.link_busy = transport.clock().link_busy;
      break;
    }
  }
  return report;
}

SolveReport SolvePlan::solve(const la::Matrix& a) const { return solve(a, {}); }

SolveReport SolvePlan::solve(const la::Matrix& a, const SolveOverrides& overrides) const {
  adapter_->check_input(spec_, a);

  solve::SolveOptions opts = spec_.solve_options();
  opts.gershgorin_shift = false;  // the evd adapter's prepare unwraps it
  opts.cancel = overrides.cancel;
  // The deadline is relative to THIS call, chained under any caller token:
  // whichever fires first decides the status.
  if (spec_.deadline_ms > 0)
    opts.cancel = opts.cancel.with_timeout(std::chrono::milliseconds(spec_.deadline_ms));
  opts.faults.attempt = overrides.fault_attempt;

  // trace=1 arms the process recorder for this call and attaches the phase
  // sink; trace=0 leaves opts.timing null so the hot path pays no clock
  // reads (the bit-identical contract of the spec grammar).
  const obs::ArmScope arm(spec_.trace);
  obs::SolveTimingSink sink;
  if (spec_.trace) opts.timing = &sink;
  const auto finalize = [&](SolveReport& report) {
    report.timings.plan_ns = plan_ns_;
    report.timings.sweep_ns = sink.sweep_ns.load(std::memory_order_relaxed);
    report.timings.comm_ns = sink.comm_ns.load(std::memory_order_relaxed);
    report.timings.assembly_ns = sink.assembly_ns.load(std::memory_order_relaxed);
  };

  // Map the transport layer's typed failures onto the api taxonomy here, at
  // the one place every backend funnels through; anything still escaping as
  // an untyped exception past this point is a bug (svc wraps it Internal).
  try {
    // The adapter sandwich: prepare -> core -> assemble. An identity
    // prepare returns an empty matrix and the core consumes the caller's
    // input by reference -- no copy, and evd/tall-svd solves run the exact
    // pre-adapter path.
    const PreparedProblem prep = adapter_->prepare(spec_, a);
    const la::Matrix& core_a = prep.a.rows() == 0 ? a : prep.a;
    SolveReport report = solve_prepared(core_a, opts);
    adapter_->assemble(spec_, prep, report);
    finalize(report);
    return report;
  } catch (const solve::TransportCorrupt& e) {
    throw SolveError(SolveStatus::TransportCorrupt, e.what());
  } catch (const solve::SolveInterrupted& e) {
    throw SolveError(e.status() == solve::RunStatus::DeadlineExceeded
                         ? SolveStatus::DeadlineExceeded
                         : SolveStatus::Cancelled,
                     e.what());
  }
}

std::vector<SolveReport> SolvePlan::solve_batch(const std::vector<la::Matrix>& as,
                                                std::size_t workers) const {
  std::vector<SolveReport> reports(as.size());
  if (as.empty()) return reports;
  const std::size_t executors = std::min(exec::pick_workers(workers), as.size());

  // Error semantics must not depend on the pool size (the auto pick varies
  // by machine): every matrix is attempted, and the exception rethrown is
  // the LOWEST-INDEX failure, not whichever finished first in wall-clock.
  std::mutex error_mu;
  std::exception_ptr first_error;
  std::size_t first_error_index = as.size();
  auto solve_one = [&](std::size_t i) {
    try {
      reports[i] = solve(as[i]);
    } catch (...) {
      std::lock_guard lock(error_mu);
      if (i < first_error_index) {
        first_error_index = i;
        first_error = std::current_exception();
      }
    }
  };

  if (executors <= 1) {
    for (std::size_t i = 0; i < as.size(); ++i) solve_one(i);
  } else {
    // The caller plus executors-1 runner tasks on the shared exec pool.
    // Runners drain a shared index, so a late-starting runner (busy pool)
    // just finds the index exhausted and no-ops -- the caller's own run()
    // guarantees every matrix is attempted even if no pool worker ever
    // frees up. Helping wait makes nested batches (a batch item submitting
    // a batch) safe.
    std::atomic<std::size_t> next{0};
    auto run = [&] {
      for (std::size_t i = next.fetch_add(1); i < as.size(); i = next.fetch_add(1))
        solve_one(i);
    };
    exec::ThreadPool::TaskGroup group = exec::ThreadPool::global().group();
    for (std::size_t t = 0; t < executors - 1; ++t) group.add(run);
    run();
    group.wait();
  }
  if (first_error) std::rethrow_exception(first_error);
  return reports;
}

namespace {

/// The feasibility gate a spec string cannot express (every legality rule
/// is validate()'s): one column per block of the CORE geometry (wide inputs
/// solve their transpose, so the short side is what the blocks partition).
void validate_plan_spec(const SolverSpec& spec) {
  JMH_REQUIRE(adapter_for(spec.task).core_geometry(spec).cols >= (std::size_t{2} << spec.d),
              "need at least one column per block (min(rows, m) >= 2^(d+1))");
}

}  // namespace

SolvePlan Solver::plan(const SolverSpec& spec) {
  validate(spec);
  validate_plan_spec(spec);
  JMH_REQUIRE(spec.ordering != ord::OrderingKind::Custom,
              "custom orderings carry their own sequences; use plan(spec, ordering)");
  // plan_ns starts here: building the ordering (MinAlpha's backtracking
  // search) is the bulk of plan compilation.
  const std::uint64_t t0 = obs::trace_now_ns();
  ord::JacobiOrdering ordering(spec.ordering, spec.d);
  return SolvePlan(spec, std::move(ordering), t0);
}

SolvePlan Solver::plan(const SolverSpec& spec, ord::JacobiOrdering ordering) {
  const std::uint64_t t0 = obs::trace_now_ns();
  validate(spec);
  validate_plan_spec(spec);
  return SolvePlan(spec, std::move(ordering), t0);
}

SolveReport Solver::solve(const SolverSpec& spec, const la::Matrix& a) {
  return plan(spec).solve(a);
}

}  // namespace jmh::api
