// The three workloads. Each is generated from this single process with a
// seed; every result is checked outside the timed region.
//
//   mpi_large     closed loop, one client, one reused mpi plan (the paper's
//                 headline configuration: minalpha on a 2-cube, auto q)
//   inline_large  closed loop, one client, one reused inline plan
//                 (single-threaded, no messages: kernels + sweep engine)
//   service_mix   open loop, seeded Poisson arrivals into SolverService
#include <cmath>
#include <deque>
#include <future>
#include <list>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/solver.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "common/rng.hpp"
#include "exec/thread_pool.hpp"
#include "la/onesided_jacobi.hpp"
#include "la/shift.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "steal.hpp"
#include "svc/service.hpp"

namespace perfbench {

using jmh::api::SolvePlan;
using jmh::api::Solver;
using jmh::api::SolveReport;
using jmh::api::SolverSpec;
using jmh::la::Matrix;

namespace {

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double pool_busy_s() {
  double sum = 0.0;
  for (double s : jmh::exec::ThreadPool::global().worker_busy_seconds()) sum += s;
  return sum;
}

/// Exact counts over a fixed, seed-determined set of solves: the same seed
/// gives the same values on every run, whatever the host's speed.
struct ExactCounts {
  double solves = 0, rotations = 0, sweeps = 0, mpi_solves = 0, messages = 0, elements = 0;
  void add(const SolveReport& r) {
    solves += 1;
    rotations += static_cast<double>(r.rotations);
    sweeps += r.sweeps;
    if (r.backend == jmh::api::Backend::MpiLite) {
      mpi_solves += 1;
      messages += static_cast<double>(r.comm.messages);
      elements += static_cast<double>(r.comm.elements);
    }
  }
  void put(MetricSet& layer) const {
    const double mpi = std::max(mpi_solves, 1.0);
    layer.set("la.rotations_per_solve", rotations / solves, "count");
    layer.set("solve.sweeps_per_solve", sweeps / solves, "count");
    layer.set("net.messages_per_solve", messages / mpi, "count");
    layer.set("net.elements_per_solve", elements / mpi, "count");
  }
};

/// Median ms of Solver::plan(spec), timed from outside.
double plan_ms(const SolverSpec& spec, int repeats) {
  std::vector<double> t;
  for (int i = 0; i < repeats; ++i) {
    SpanScope span("api.plan", "api");
    const auto t0 = Clock::now();
    const SolvePlan plan = Solver::plan(spec);
    t.push_back(seconds_since(t0) * 1e3);
  }
  return quantile(t, 0.5);
}

/// Median ms of la::onesided_jacobi_cyclic on the matrix the engine
/// iterates on for input @p a under @p spec (shifted when the spec shifts):
/// the single-threaded baseline, bottom rung of the layer ladder.
double sequential_ms(const SolverSpec& spec, const Matrix& a, int repeats) {
  const Matrix core =
      spec.gershgorin_shift ? jmh::la::add_diagonal_shift(a, jmh::la::gershgorin_radius(a)) : a;
  std::vector<double> t;
  for (int i = 0; i < repeats; ++i) {
    SpanScope span("la.onesided_jacobi_cyclic", "la");
    const auto t0 = Clock::now();
    const auto r = jmh::la::onesided_jacobi_cyclic(core);
    t.push_back(seconds_since(t0) * 1e3);
    if (!r.converged) throw std::runtime_error("sequential baseline did not converge");
  }
  return quantile(t, 0.5);
}

/// The probes sized to one workload's geometry (rows x cols columns for
/// the kernels, an m-column d-cube block for pack and ping-pong).
void put_probes(MetricSet& layer, std::size_t rows, std::size_t cols, std::size_t m, int d,
                std::uint64_t seed) {
  const KernelRates k = probe_kernels(rows, cols, seed);
  layer.set("la.gram3_gbps", k.gram3_gbps, "GB/s");
  layer.set("la.fused_rotate_gbps", k.fused_rotate_gbps, "GB/s");
  layer.set("solve.block_pack_gbps", probe_block_pack_gbps(m, d, rows, seed), "GB/s");
  const PingPongFit fit = probe_pingpong(block_payload_elems(m, d, rows));
  layer.set("net.pingpong_us", fit.ts_us, "us");
  layer.set("net.us_per_kelem", fit.us_per_kelem, "us/kelem");
  layer.set("exec.gang_us", probe_gang_us(4), "us");
}

/// modeled_time per sweep and mean link utilization of @p spec re-planned
/// on the sim backend, for input @p a.
void put_sim_model(MetricSet& layer, SolverSpec spec, const Matrix& a) {
  spec.backend = jmh::api::Backend::Sim;
  spec.trace = false;
  const SolveReport r = Solver::plan(spec).solve(a);
  layer.set("sim.modeled_time_per_sweep", r.modeled_time / std::max(r.modeled_sweeps, 1),
            "model_t");
  layer.set("sim.link_utilization", r.mean_link_utilization(), "ratio");
}

void put_absent_svc(MetricSet& layer) {
  // Closed-loop workloads never enter svc: these read 0 by definition.
  layer.set("svc.queue_wait_p50_ms", 0.0, "ms");
  layer.set("svc.queue_wait_p99_ms", 0.0, "ms");
  layer.set("svc.cache_hit_ratio", 0.0, "ratio");
  layer.set("svc.cache_lookups", 0.0, "count");
  layer.set("svc.coalesced_batches", 0.0, "count");
  layer.set("svc.retries", 0.0, "count");
}

/// Sets end-to-end latency metric @p name to the q-quantile of @p quiet
/// (the samples from quiet seconds), and records the same quantile over
/// @p all samples as info "all.<name>", so the two can be compared.
void set_latency(Outcome& out, const std::string& name, const std::vector<double>& quiet,
                 const std::vector<double>& all, double q) {
  out.e2e.set(name, block_quantile(quiet, q), "ms");
  out.info.set("all." + name, block_quantile(all, q), "ms");
}

void put_steal(Outcome& out, const StealMonitor& steal, double kept_share) {
  out.info.set("steal_share", steal.total_share(), "ratio");
  out.info.set("quiet_share", kept_share, "ratio");
}

// ---------------------------------------------------------------------------
// Closed loop
// ---------------------------------------------------------------------------

struct ClosedLoopConfig {
  const char* spec;
  int warm_solves;        ///< fixed seeded set behind the exact counts
  int warmup;             ///< of them, solved during set-up (the warm-up)
  double slo_ms;          ///< latency limit for svc_slo_ratio
  std::uint64_t parity_every;  ///< mpi: 1 in N jobs re-solved inline
};

ClosedLoopConfig closed_loop_config(const std::string& workload) {
  if (workload == "mpi_large")
    return {"backend=mpi,ordering=minalpha,m=128,d=2,pipeline=auto,shift=1", 12, 2, 60.0, 16};
  if (workload == "inline_large")
    return {"backend=inline,ordering=d4,m=192,d=3,shift=1", 4, 1, 200.0, 0};
  throw std::invalid_argument("unknown closed-loop workload " + workload);
}

struct LoopSamples {
  std::vector<double> latency_ms;
  std::vector<Clock::time_point> done_at;  ///< when each latency sample ended
  std::vector<double> sweep_ms, comm_ms, assembly_ms;  ///< traced only
  double busy_solve_s = 0.0;
  double window_s = 0.0;
  double pool_busy_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t within_slo = 0;
  std::uint64_t report_plan_ns = 0;
};

/// Solves fresh seeded matrices through @p plan for @p seconds.
LoopSamples closed_loop(const SolvePlan& plan, const SolvePlan* parity_plan,
                        const ClosedLoopConfig& cfg, jmh::Xoshiro256& rng, double seconds,
                        Outcome& out) {
  LoopSamples s;
  const SolverSpec& spec = plan.spec();
  const double busy0 = pool_busy_s();
  const auto start = Clock::now();
  while (seconds_since(start) < seconds) {
    const std::uint64_t seed = rng();
    const bool parity = parity_plan != nullptr && rng.below(cfg.parity_every) == 0;
    const Matrix a = make_input(spec, seed);
    ++out.attempted;
    ++s.attempted;
    SpanScope request("bench.request", "bench", seed | 1);
    SolveReport r;
    double dt = 0.0;
    try {
      SpanScope call("api.solve", "api");
      const auto t0 = Clock::now();
      r = plan.solve(a);
      dt = seconds_since(t0);
    } catch (const std::exception& e) {
      out.fail(std::string("solve threw: ") + e.what());
      continue;
    }
    s.latency_ms.push_back(dt * 1e3);
    s.done_at.push_back(Clock::now());
    s.busy_solve_s += dt;
    if (spec.trace) {
      s.sweep_ms.push_back(ms(r.timings.sweep_ns));
      s.comm_ms.push_back(ms(r.timings.comm_ns));
      s.assembly_ms.push_back(ms(r.timings.assembly_ns));
    }
    s.report_plan_ns = r.timings.plan_ns;
    SpanScope check("bench.check", "bench");
    std::string why = check_report(spec, a, r, &out.pm_tie_columns);
    if (why.empty() && parity) why = compare_bits(r, parity_plan->solve(a));
    if (!why.empty()) {
      out.fail(why);
      continue;
    }
    if (dt * 1e3 <= cfg.slo_ms) ++s.within_slo;
  }
  s.window_s = seconds_since(start);
  s.pool_busy_s = pool_busy_s() - busy0;
  return s;
}

}  // namespace

Outcome run_closed_loop(const Options& opt, const ReadyFn& ready) {
  Outcome out;
  const ClosedLoopConfig cfg = closed_loop_config(opt.workload);
  const SolverSpec spec = SolverSpec::parse(cfg.spec);
  jmh::Xoshiro256 rng(opt.seed);

  // -- set-up: plan, the fixed seeded warm set's inputs, the warm-up --------
  const SolvePlan plan = Solver::plan(spec);
  std::vector<Matrix> warm;
  for (int i = 0; i < cfg.warm_solves; ++i) warm.push_back(make_input(spec, rng()));
  std::vector<SolveReport> warm_reports;
  const auto solve_warm = [&] { warm_reports.push_back(plan.solve(warm[warm_reports.size()])); };
  for (int i = 0; i < cfg.warmup; ++i) solve_warm();
  ready();
  if (opt.setup_only) return out;

  // -- the rest of the warm set, its checks and the parity plan, untimed ----
  while (warm_reports.size() < warm.size()) solve_warm();
  ExactCounts counts;
  for (const SolveReport& r : warm_reports) counts.add(r);
  const bool has_parity = cfg.parity_every != 0;
  std::optional<SolvePlan> parity_plan;
  if (has_parity) {
    SolverSpec inline_spec = spec;
    inline_spec.backend = jmh::api::Backend::Inline;
    parity_plan.emplace(Solver::plan(inline_spec));
  }
  for (std::size_t i = 0; i < warm.size(); ++i) {
    ++out.attempted;
    std::string why = check_report(spec, warm[i], warm_reports[i], &out.pm_tie_columns);
    if (why.empty() && has_parity) why = compare_bits(warm_reports[i], parity_plan->solve(warm[i]));
    if (!why.empty()) out.fail("warm-up solve: " + why);
  }

  // -- untraced measurement --------------------------------------------------
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  StealMonitor steal;
  const LoopSamples u =
      closed_loop(plan, has_parity ? &*parity_plan : nullptr, cfg, rng, untraced_s, out);
  steal.stop();
  double kept = 1.0;
  const std::vector<double> lat = quiet_samples(u.latency_ms, u.done_at, steal, &kept);
  put_steal(out, steal, kept);
  const double p50 = block_quantile(lat, 0.5);
  out.info.set("samples", static_cast<double>(u.latency_ms.size()), "count");
  set_latency(out, "solve_p50_ms", lat, u.latency_ms, 0.5);
  set_latency(out, "solve_p95_ms", lat, u.latency_ms, 0.95);
  // Back-to-back solves per second of solve time: 1 / block mean latency,
  // over blocks of 20 solves (one block when there are fewer).
  const std::size_t block = std::min<std::size_t>(20, lat.size());
  std::vector<double> rate;
  for (std::size_t b = 0; block != 0 && b + block <= lat.size(); b += block) {
    double sum_ms = 0.0;
    for (std::size_t i = b; i < b + block; ++i) sum_ms += lat[i];
    rate.push_back(static_cast<double>(block) * 1e3 / sum_ms);
  }
  out.e2e.set("solves_per_s", rate.empty() ? 0.0 : quantile(rate, 0.5), "1/s");
  // A closed-loop client's request IS the solve call: svc_* are the same
  // client-observed latencies.
  set_latency(out, "svc_p50_ms", lat, u.latency_ms, 0.5);
  set_latency(out, "svc_p99_ms", lat, u.latency_ms, 0.99);
  out.e2e.set("svc_slo_ratio",
              static_cast<double>(u.within_slo) / static_cast<double>(u.attempted), "ratio");
  if (!opt.trace) return out;

  // -- traced run: per-layer metrics ----------------------------------------
  MetricSet& layer = out.layer;
  SolverSpec traced_spec = spec;
  traced_spec.trace = true;
  const SolvePlan traced_plan = Solver::plan(traced_spec);
  StealMonitor traced_steal;
  const LoopSamples t = closed_loop(traced_plan, nullptr, cfg, rng, opt.seconds / 2, out);
  traced_steal.stop();
  const std::vector<double> traced_lat =
      quiet_samples(t.latency_ms, t.done_at, traced_steal, nullptr);

  const std::size_t m = spec.m;
  put_probes(layer, m, m, m, spec.d, opt.seed);
  const double seq_ms = sequential_ms(spec, warm.front(), 3);
  counts.put(layer);
  layer.set("la.sequential_solve_ms", seq_ms, "ms");
  const double sweep = quantile(t.sweep_ms, 0.5), comm = quantile(t.comm_ms, 0.5);
  layer.set("solve.sweep_cpu_ms", sweep, "ms");
  layer.set("solve.comm_cpu_ms", comm, "ms");
  layer.set("solve.compute_cpu_ms", sweep - comm, "ms");
  layer.set("solve.engine_overhead_ratio", p50 / seq_ms, "ratio");
  auto& pool = jmh::exec::ThreadPool::global();
  layer.set("exec.pool_busy_share",
            u.pool_busy_s / (static_cast<double>(pool.workers()) * u.window_s), "ratio");
  layer.set("exec.queue_high_water", static_cast<double>(pool.queue_high_water()), "count");
  layer.set("api.plan_ms", plan_ms(spec, 5), "ms");
  layer.set("api.report_plan_ms", ms(t.report_plan_ns), "ms");
  layer.set("api.assembly_ms", quantile(t.assembly_ms, 0.5), "ms");
  put_absent_svc(layer);
  layer.set("pipe.auto_q", static_cast<double>(plan.pipelining_q()), "count");
  put_sim_model(layer, spec, warm.front());
  layer.set("obs.trace_overhead_ratio", block_quantile(traced_lat, 0.5) / p50, "ratio");
  layer.set("gen.lag_p99_ms", 0.0, "ms");  // closed loop: no schedule to lag
  return out;
}

// ---------------------------------------------------------------------------
// service_mix: open loop
// ---------------------------------------------------------------------------

namespace {

/// Arrival rate (jobs/s): about half of what the service sustains while the
/// hypervisor takes 20-30% of the CPUs (METHODOLOGY.md). Half the quiet
/// saturation (`jmh_perfbench --workload service_mix --saturate`) saturated
/// the loop in such stretches.
constexpr double kServiceRate = 600.0;
/// svc_slo_ratio's latency limit, timed from each job's due time.
constexpr double kServiceSloMs = 10.0;
/// Share of jobs whose spec is distinct (a plan-cache miss).
constexpr double kDistinctShare = 0.05;

struct Family {
  const char* spec;
  std::uint64_t weight;
};

// The repo's replayable mixed workload, examples/workloads/service_mix.txt:
// one family per distinct spec line there, weighted by twice its line
// count. Its mpi lines run here with d = 1 (2-rank gangs) so two
// dispatchers never hold more than nproc = 4 runnable compute threads. The
// last family, the one medium job, is not in that file: an m = 64 evd at
// weight 1, about 2% of the jobs, so that in-service p95 falls among the
// small jobs and p99 among the medium ones, not on the edge between them.
constexpr Family kFamilies[] = {
    {"backend=inline,ordering=d4,m=32,d=2,shift=1", 8},
    {"backend=inline,ordering=minalpha,m=32,d=2,pipeline=auto,shift=1", 6},
    {"backend=mpi,ordering=d4,m=16,d=1,shift=1", 4},
    {"backend=sim,ordering=pbr,m=24,d=2,pipeline=auto,shift=1", 4},
    {"task=svd,backend=inline,ordering=d4,m=24,rows=36,d=2", 4},
    {"task=svd,backend=mpi,ordering=d4,m=16,rows=24,d=1", 2},
    {"task=svd,backend=sim,ordering=pbr,m=24,rows=36,d=2,pipeline=auto", 2},
    {"task=svd,backend=inline,ordering=d4,m=24,rows=12,d=1", 2},
    {"task=svd,backend=mpi,ordering=d4,m=24,rows=12,d=1", 2},
    {"task=pca,backend=inline,ordering=d4,m=24,rows=36,d=2,stop=offdiag_abs", 4},
    {"task=pca,backend=sim,ordering=pbr,m=16,rows=8,d=1,stop=offdiag_abs", 2},
    {"backend=inline,ordering=d4,m=64,d=2,shift=1", 1},
};
constexpr std::size_t kMpiFamily = 2;      ///< block pack / ping-pong geometry
constexpr std::size_t kSimFamily = 3;      ///< sim.* and pipe.auto_q come from it
constexpr std::size_t kMediumFamily = 11;  ///< la probes + sequential baseline
constexpr std::size_t kDistinct = std::size(kFamilies);

/// A distinct spec: the sim family under a machine model no other job
/// uses, so its plan (ordering + pipelining optimizer) is compiled afresh.
std::string distinct_spec(std::uint64_t serial) {
  return std::string(kFamilies[kSimFamily].spec) + ",ts=" + std::to_string(200 + serial);
}

/// One scheduled job. Its input is generated from `seed` just before it
/// is due (and again for its check), so a run holds no matrix backlog.
struct Arrival {
  double due_s = 0.0;
  std::size_t family = 0;
  std::string spec;
  std::uint64_t seed = 0;
};

std::vector<Arrival> make_arrivals(jmh::Xoshiro256& rng, double rate, double seconds,
                                   std::uint64_t& distinct_serial, bool trace) {
  std::uint64_t total = 0;
  for (const Family& f : kFamilies) total += f.weight;
  std::vector<Arrival> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform01()) / rate;
    if (t >= seconds) break;
    Arrival job;
    job.due_s = t;
    if (rng.uniform01() < kDistinctShare) {
      job.family = kDistinct;
      job.spec = distinct_spec(distinct_serial++);
    } else {
      std::uint64_t pick = rng.below(total);
      while (pick >= kFamilies[job.family].weight) pick -= kFamilies[job.family++].weight;
      job.spec = kFamilies[job.family].spec;
    }
    if (trace) job.spec += ",trace=1";
    job.seed = rng();
    out.push_back(std::move(job));
  }
  return out;
}

Matrix arrival_input(const Arrival& job) {
  return make_input(SolverSpec::parse(job.spec), job.seed);
}

struct ServiceSamples {
  std::vector<double> latency_ms;    ///< from due time to observed completion
  std::vector<Clock::time_point> done_at;  ///< observed completion of each
  std::vector<double> in_service_ms; ///< completion - submit - queue wait
  std::vector<double> queue_ms;
  std::vector<double> lag_ms;        ///< generator lateness per submit
  std::vector<double> sweep_ms, comm_ms, assembly_ms;  ///< traced jobs
  std::vector<double> medium_ms;     ///< in-service ms of the medium family
  std::uint64_t attempted = 0;       ///< submitted (generator thread only)
  std::uint64_t within_slo = 0;      ///< checked OK and within kServiceSloMs
  std::uint64_t done = 0;            ///< checked OK
  double window_s = 0.0;
};

/// Submits @p jobs on their schedule from this thread. A second, mostly
/// blocked thread stamps completions: it waits up to kPollSleep on the
/// oldest outstanding future (so an in-order completion is stamped as it
/// happens), then collects every other future that is ready. While more
/// than kCheckSlack remains before the next due time, this thread checks
/// one stamped job; it checks the rest after the last completion.
ServiceSamples open_loop(jmh::svc::SolverService& service, const std::vector<Arrival>& jobs,
                         Outcome& out) {
  constexpr auto kPollSleep = std::chrono::microseconds(100);
  constexpr auto kCheckSlack = std::chrono::microseconds(500);
  struct Pending {
    std::size_t k;
    Clock::time_point submitted;
    std::future<SolveReport> f;
    std::uint64_t span_id;
  };
  struct Finished {
    std::size_t k;
    SolveReport r;
    std::string error;  ///< the job's exception, if it threw
    bool within_slo;
  };
  ServiceSamples s;  // latency fields: stamper only, until it is joined
  std::mutex mu;
  std::list<Pending> pending;       // guarded by mu; only the stamper erases
  std::deque<Finished> finished;    // guarded by mu
  bool all_submitted = false;       // guarded by mu
  SpanRecorder* rec = SpanRecorder::current();
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  const auto due_tp = [&](std::size_t k) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(jobs[k].due_s));
  };

  std::thread stamper([&] {
    Clock::time_point last = start;
    for (;;) {
      Pending* oldest = nullptr;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (!pending.empty()) oldest = &pending.front();
      }
      // Safe outside the lock: list nodes stay put while others are added.
      if (oldest != nullptr)
        oldest->f.wait_for(kPollSleep);
      else
        std::this_thread::sleep_for(kPollSleep);
      std::vector<std::pair<Pending, Clock::time_point>> ready;
      bool stop = false;
      {
        std::lock_guard<std::mutex> lock(mu);
        for (auto it = pending.begin(); it != pending.end();) {
          if (it->f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
            ++it;
            continue;
          }
          ready.emplace_back(std::move(*it), Clock::now());
          it = pending.erase(it);
        }
        stop = all_submitted && pending.empty();
      }
      for (auto& [p, now] : ready) {
        Finished f{p.k, {}, {}, false};
        try {
          f.r = p.f.get();
          const double lat = std::chrono::duration<double, std::milli>(now - due_tp(p.k)).count();
          const double queue = ms(f.r.timings.queue_ns);
          s.latency_ms.push_back(lat);
          s.done_at.push_back(now);
          s.queue_ms.push_back(queue);
          s.in_service_ms.push_back(
              std::chrono::duration<double, std::milli>(now - p.submitted).count() - queue);
          if (jobs[p.k].family == kMediumFamily) s.medium_ms.push_back(s.in_service_ms.back());
          if (f.r.timings.sweep_ns != 0) {
            s.sweep_ms.push_back(ms(f.r.timings.sweep_ns));
            s.comm_ms.push_back(ms(f.r.timings.comm_ns));
            s.assembly_ms.push_back(ms(f.r.timings.assembly_ns));
          }
          f.within_slo = lat <= kServiceSloMs;
        } catch (const std::exception& e) {
          f.error = std::string("job threw: ") + e.what();
        }
        if (rec != nullptr) {
          Span job;
          job.name = "svc.job";
          job.layer = "svc";
          job.id = job.request = p.span_id;
          job.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             p.submitted.time_since_epoch()).count();
          job.end_ns =
              std::chrono::duration_cast<std::chrono::nanoseconds>(now.time_since_epoch()).count();
          rec->add(job);
        }
        last = std::max(last, now);
        std::lock_guard<std::mutex> lock(mu);
        finished.push_back(std::move(f));
      }
      if (stop) break;
    }
    s.window_s = std::chrono::duration<double>(last - start).count();
  });

  // Checks one stamped job; false when none is waiting.
  const auto check_one = [&] {
    Finished f;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (finished.empty()) return false;
      f = std::move(finished.front());
      finished.pop_front();
    }
    const Arrival& job = jobs[f.k];
    std::string why = f.error;
    if (why.empty())
      why = check_report(SolverSpec::parse(job.spec), arrival_input(job), f.r,
                         &out.pm_tie_columns);
    if (!why.empty()) {
      out.fail(job.spec + ": " + why);
    } else {
      ++s.done;
      if (f.within_slo) ++s.within_slo;
    }
    return true;
  };

  Matrix next = jobs.empty() ? Matrix() : arrival_input(jobs.front());
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const auto due = due_tp(k);
    for (auto now = Clock::now(); now < due; now = Clock::now()) {
      if (due - now > kCheckSlack && check_one()) continue;
      std::this_thread::sleep_for(std::min<Clock::duration>(due - now, kPollSleep));
    }
    ++out.attempted;
    ++s.attempted;
    const auto submitted = Clock::now();
    s.lag_ms.push_back(std::chrono::duration<double, std::milli>(submitted - due).count());
    const std::uint64_t span_id = rec != nullptr ? rec->next_id() : 0;
    std::future<SolveReport> f;
    {
      SpanScope span("svc.submit", "svc", span_id);
      f = service.submit(jobs[k].spec, std::move(next));
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back({k, submitted, std::move(f), span_id});
    }
    if (k + 1 < jobs.size()) next = arrival_input(jobs[k + 1]);
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    all_submitted = true;
  }
  stamper.join();
  while (check_one()) {
  }
  return s;
}

/// One warm-up job: its spec, input and report, checked after set-up.
struct Warm {
  SolverSpec spec;
  Matrix a;
  SolveReport r;
};

/// Submits one job of every family and waits: fills the plan cache, warms
/// the code paths, and yields the fixed seeded set behind the exact counts.
std::vector<Warm> warm_families(jmh::svc::SolverService& service, jmh::Xoshiro256& rng,
                                bool trace) {
  std::vector<Warm> out;
  for (const Family& family : kFamilies) {
    std::string text = family.spec;
    if (trace) text += ",trace=1";
    Warm w{SolverSpec::parse(text), {}, {}};
    w.a = make_input(w.spec, rng());
    w.r = service.submit(text, w.a).get();
    out.push_back(std::move(w));
  }
  return out;
}

void check_warm(const std::vector<Warm>& warm, Outcome& out) {
  for (const Warm& w : warm) {
    ++out.attempted;
    const std::string why = check_report(w.spec, w.a, w.r, &out.pm_tie_columns);
    if (!why.empty()) out.fail("warm-up " + w.spec.to_string() + ": " + why);
  }
}

jmh::svc::ServiceConfig service_config() {
  jmh::svc::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 4096;
  cfg.cache_capacity = 64;
  cfg.max_coalesce = 4;
  return cfg;
}

/// Saturation throughput: every job of a seconds-long schedule submitted
/// at once, jobs/s until the service drains.
Outcome saturate(const Options& opt) {
  Outcome out;
  jmh::Xoshiro256 rng(opt.seed);
  jmh::svc::SolverService service(service_config());
  check_warm(warm_families(service, rng, false), out);
  std::uint64_t serial = 0;
  std::vector<Arrival> jobs = make_arrivals(rng, kServiceRate, opt.seconds, serial, false);
  std::vector<Matrix> inputs;
  for (const Arrival& j : jobs) inputs.push_back(arrival_input(j));
  std::vector<std::future<SolveReport>> fs;
  const auto t0 = Clock::now();
  for (std::size_t k = 0; k < jobs.size(); ++k)
    fs.push_back(service.submit(jobs[k].spec, std::move(inputs[k])));
  for (auto& f : fs) f.get();
  const double dt = seconds_since(t0);
  out.attempted += jobs.size();
  out.info.set("saturation_jobs_per_s", static_cast<double>(jobs.size()) / dt, "1/s");
  return out;
}

}  // namespace

Outcome run_service_mix(const Options& opt, const ReadyFn& ready) {
  if (opt.saturate) return saturate(opt);
  Outcome out;
  jmh::Xoshiro256 rng(opt.seed);
  std::uint64_t serial = 0;

  // -- set-up: service + pool start, cache warm-up, the whole schedule ------
  jmh::svc::SolverService service(service_config());
  const std::vector<Warm> warm = warm_families(service, rng, false);
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::vector<Arrival> jobs = make_arrivals(rng, kServiceRate, untraced_s, serial, false);
  ready();
  if (opt.setup_only) return out;
  check_warm(warm, out);
  ExactCounts counts;
  for (const Warm& w : warm) counts.add(w.r);
  const SolveReport& sim_report = warm[kSimFamily].r;

  const jmh::svc::Metrics m0 = service.metrics();
  StealMonitor steal;
  const ServiceSamples u = open_loop(service, jobs, out);
  steal.stop();
  const jmh::svc::Metrics m1 = service.metrics();
  double kept = 1.0;
  const std::vector<double> in_service = quiet_samples(u.in_service_ms, u.done_at, steal, &kept);
  const std::vector<double> lat = quiet_samples(u.latency_ms, u.done_at, steal, nullptr);
  put_steal(out, steal, kept);

  out.info.set("samples", static_cast<double>(u.latency_ms.size()), "count");
  out.info.set("rate", kServiceRate, "1/s");
  set_latency(out, "solve_p50_ms", in_service, u.in_service_ms, 0.5);
  set_latency(out, "solve_p95_ms", in_service, u.in_service_ms, 0.95);
  // Jobs checked OK per second the dispatchers spent executing job groups:
  // the rate the service sustains, not the fixed arrival rate.
  double dispatch_busy_s = 0.0;
  for (std::size_t i = 0; i < m1.worker_busy_s.size(); ++i)
    dispatch_busy_s +=
        m1.worker_busy_s[i] - (i < m0.worker_busy_s.size() ? m0.worker_busy_s[i] : 0.0);
  out.e2e.set("solves_per_s", static_cast<double>(u.done) / dispatch_busy_s, "1/s");
  const double p50 = block_quantile(lat, 0.5);
  set_latency(out, "svc_p50_ms", lat, u.latency_ms, 0.5);
  set_latency(out, "svc_p99_ms", lat, u.latency_ms, 0.99);
  out.e2e.set("svc_slo_ratio",
              static_cast<double>(u.within_slo) / static_cast<double>(u.attempted), "ratio");
  if (!opt.trace) return out;

  // -- traced run ------------------------------------------------------------
  MetricSet& layer = out.layer;
  check_warm(warm_families(service, rng, true), out);
  std::vector<Arrival> traced_jobs =
      make_arrivals(rng, kServiceRate, opt.seconds / 2, serial, true);
  StealMonitor traced_steal;
  const ServiceSamples t = open_loop(service, traced_jobs, out);
  traced_steal.stop();
  const std::vector<double> traced_lat =
      quiet_samples(t.latency_ms, t.done_at, traced_steal, nullptr);

  const SolverSpec medium = SolverSpec::parse(kFamilies[kMediumFamily].spec);
  const SolverSpec mpi = SolverSpec::parse(kFamilies[kMpiFamily].spec);
  const Matrix medium_a = make_input(medium, opt.seed);
  put_probes(layer, medium.m, medium.m, mpi.m, mpi.d, opt.seed);
  const double seq_ms = sequential_ms(medium, medium_a, 5);
  counts.put(layer);
  layer.set("la.sequential_solve_ms", seq_ms, "ms");
  const double sweep = quantile(t.sweep_ms, 0.5), comm = quantile(t.comm_ms, 0.5);
  layer.set("solve.sweep_cpu_ms", sweep, "ms");
  layer.set("solve.comm_cpu_ms", comm, "ms");
  layer.set("solve.compute_cpu_ms", sweep - comm, "ms");
  layer.set("solve.engine_overhead_ratio", quantile(u.medium_ms, 0.5) / seq_ms, "ratio");
  double busy = 0.0;
  for (std::size_t i = 0; i < m1.pool_busy_s.size(); ++i)
    busy += m1.pool_busy_s[i] - (i < m0.pool_busy_s.size() ? m0.pool_busy_s[i] : 0.0);
  layer.set("exec.pool_busy_share",
            busy / (static_cast<double>(std::max<std::size_t>(m1.pool_workers, 1)) * u.window_s),
            "ratio");
  layer.set("exec.queue_high_water", static_cast<double>(m1.pool_queue_high_water), "count");

  // api: a distinct spec's plan compile, timed from outside, beside what
  // the report says the compile took.
  const SolverSpec miss = SolverSpec::parse(distinct_spec(serial++));
  layer.set("api.plan_ms", plan_ms(miss, 5), "ms");
  const SolveReport miss_r = Solver::plan(miss).solve(make_input(miss, opt.seed));
  layer.set("api.report_plan_ms", ms(miss_r.timings.plan_ns), "ms");
  layer.set("api.assembly_ms", quantile(t.assembly_ms, 0.5), "ms");

  layer.set("svc.queue_wait_p50_ms", quantile(u.queue_ms, 0.5), "ms");
  layer.set("svc.queue_wait_p99_ms", quantile(u.queue_ms, 0.99), "ms");
  const double hits = static_cast<double>(m1.cache_hits - m0.cache_hits);
  const double lookups = hits + static_cast<double>(m1.cache_misses - m0.cache_misses);
  layer.set("svc.cache_hit_ratio", hits / std::max(lookups, 1.0), "ratio");
  layer.set("svc.cache_lookups", lookups, "count");
  layer.set("svc.coalesced_batches", static_cast<double>(m1.batches - m0.batches), "count");
  layer.set("svc.retries", static_cast<double>(m1.retries - m0.retries), "count");
  layer.set("pipe.auto_q", static_cast<double>(sim_report.pipelining_q), "count");
  layer.set("sim.modeled_time_per_sweep",
            sim_report.modeled_time / std::max(sim_report.modeled_sweeps, 1), "model_t");
  layer.set("sim.link_utilization", sim_report.mean_link_utilization(), "ratio");
  layer.set("obs.trace_overhead_ratio", block_quantile(traced_lat, 0.5) / p50, "ratio");
  layer.set("gen.lag_p99_ms", block_quantile(u.lag_ms, 0.99), "ms");
  return out;
}

}  // namespace perfbench
