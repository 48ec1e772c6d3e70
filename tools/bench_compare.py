#!/usr/bin/env python3
"""Diff a fresh bench_micro JSON against one or more committed baselines.

Compares google-benchmark JSON outputs case by case and fails (exit 1) when
any hot case regresses beyond the allowed fraction:

    regression = fresh_time / baseline_time - 1  >  --max-regression

Usage:
    bench_micro --benchmark_out=fresh.json --benchmark_out_format=json \
                --benchmark_filter='...'
    # single baseline (positional, the original form)
    tools/bench_compare.py BENCH_kernels.json fresh.json
    # several baselines gated in one invocation
    tools/bench_compare.py --baseline BENCH_kernels.json \
                           --baseline BENCH_plan_reuse.json \
                           --baseline BENCH_service.json fresh.json

Multiple --baseline files are merged into one case table (duplicate case
names across baselines take the first file's time and print a warning), so
one run of bench_micro gates every committed baseline at once.

Only cases matching --filter (default: the named hot cases of PERF.md)
and present in BOTH tables are gated; everything else is reported
informationally. A baseline recorded on a different host (google-benchmark
context host_name / num_cpus) gets a note on stderr; the gate itself is
unchanged. Baselines are machine-specific: gate with the default 15%
only against baselines recorded on the same machine (see PERF.md). Across
machines (e.g. CI runners vs the baseline host) use a coarse
--max-regression to catch order-of-magnitude regressions -- an accidental
O(n^2) or a reintroduced per-step allocation -- rather than micro drift.
"""

import argparse
import json
import re
import sys

# The hot cases this repo's perf work is gated on (PERF.md): the fused
# kernels and solve paths (BENCH_kernels.json), the facade plan-reuse cases
# (BENCH_plan_reuse.json), the service throughput cases
# (BENCH_service.json), the SVD workload (BENCH_svd.json), the task-adapter
# workloads -- pca and wide svd (BENCH_tasks.json) -- the shared execution
# substrate cases -- oversubscribed service throughput and truncated topk
# solves (BENCH_exec.json) -- and the robustness overheads: checksummed
# serialization and the per-sweep cancel poll (BENCH_robustness.json).
DEFAULT_FILTER = (
    r"^(BM_RotationKernel|BM_GramKernel|BM_InlineSolve|BM_MpiSolve(Pipelined)?|"
    r"BM_BlockSerializeInto|BM_BlockSerializeRoundtrip|BM_SequentialCyclicSolve|"
    r"BM_PlanConstruction|BM_PlanReuseSolve|BM_PerSolveReconstruction|"
    r"BM_SpecRoundTrip|BM_ServiceThroughput|BM_ServiceOversub|BM_SvdSolve|"
    r"BM_PcaSolve|BM_WideSvdSolve|"
    r"BM_TopkSolve|BM_SweepCancelCheck|BM_TraceSpan|BM_SolveTraced)(/|$)"
)

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_cases(path):
    """name -> real_time in ns, aggregates (mean/median/stddev rows) skipped."""
    with open(path) as f:
        doc = json.load(f)
    cases = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        unit = TIME_UNIT_NS[b.get("time_unit", "ns")]
        cases[b["name"]] = float(b["real_time"]) * unit
    return cases


def load_host(path):
    """(host_name, num_cpus) from the google-benchmark context block."""
    with open(path) as f:
        ctx = json.load(f).get("context", {})
    return ctx.get("host_name"), ctx.get("num_cpus")


def note_host_mismatch(baseline_paths, fresh_path):
    """One stderr note per baseline host that differs from the fresh run's.

    Informational only: a ratio across machines mixes the code change with
    the hardware change, so the reader should know when that is the case.
    """
    fresh_host = load_host(fresh_path)
    by_host = {}
    for path in baseline_paths:
        host = load_host(path)
        if host != fresh_host:
            by_host.setdefault(host, []).append(path)
    for (name, cpus), paths in by_host.items():
        print(f"NOTE: baseline host {name} ({cpus} cpus; {', '.join(paths)}) differs "
              f"from the fresh run's host {fresh_host[0]} ({fresh_host[1]} cpus); "
              f"ratios compare different machines", file=sys.stderr)


def merge_baselines(paths):
    """First occurrence of a case name wins; conflicts are warned about."""
    merged = {}
    for path in paths:
        for name, time_ns in load_cases(path).items():
            if name in merged:
                if merged[name] != time_ns:
                    print(f"WARNING: case '{name}' appears in several baselines; "
                          f"keeping the first ({merged[name]:.0f}ns, ignoring "
                          f"{path}'s {time_ns:.0f}ns)", file=sys.stderr)
                continue
            merged[name] = time_ns
    return merged


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="*",
                    help="'BASELINE FRESH' (original form) or just 'FRESH' with --baseline")
    ap.add_argument("--baseline", action="append", default=[],
                    help="committed baseline JSON; repeat to gate several files at once")
    ap.add_argument("--max-regression", type=float, default=0.15,
                    help="allowed fractional slowdown on gated cases (default 0.15)")
    ap.add_argument("--filter", default=DEFAULT_FILTER,
                    help="regex naming the gated hot cases (default: PERF.md hot set)")
    ap.add_argument("--allow-missing", action="store_true",
                    help="tolerate gated baseline cases absent from the fresh run "
                         "(for deliberately filtered bench invocations)")
    ap.add_argument("--list", action="store_true",
                    help="list the baseline cases (with gate markers) instead of "
                         "comparing; the matching bench_micro --benchmark_filter "
                         "regex for gated-only reruns is printed last")
    args = ap.parse_args()

    if args.list:
        # Inventory mode: what would one comparison run gate? Takes the same
        # baseline arguments as a comparison (--baseline and/or positional).
        paths = args.baseline + args.files
        if not paths:
            ap.error("--list needs at least one baseline JSON")
        base = merge_baselines(paths)
        gate = re.compile(args.filter)
        if not base:
            print("bench_compare: baseline(s) contain no cases", file=sys.stderr)
            return 2
        width = max(len(n) for n in base)
        print(f"{'case':<{width}}  {'baseline':>12}  gated")
        for name in sorted(base):
            print(f"{name:<{width}}  {base[name]:>10.0f}ns  {'*' if gate.search(name) else ''}")
        gated_names = sorted({n.split("/")[0] for n in base if gate.search(n)})
        print(f"\n{sum(1 for n in base if gate.search(n))} of {len(base)} cases gated")
        if gated_names:
            print("rerun gated cases with: --benchmark_filter='^("
                  + "|".join(gated_names) + ")(/|$)'")
        return 0

    if args.baseline:
        if len(args.files) != 1:
            ap.error("with --baseline, pass exactly one fresh JSON")
        baseline_paths, fresh_path = args.baseline, args.files[0]
    else:
        if len(args.files) != 2:
            ap.error("usage: bench_compare.py BASELINE FRESH (or --baseline ... FRESH)")
        baseline_paths, fresh_path = [args.files[0]], args.files[1]

    base = merge_baselines(baseline_paths)
    fresh = load_cases(fresh_path)
    note_host_mismatch(baseline_paths, fresh_path)
    gate = re.compile(args.filter)

    rows = []
    failures = []
    for name in sorted(set(base) & set(fresh)):
        ratio = fresh[name] / base[name] if base[name] > 0 else float("inf")
        gated = bool(gate.search(name))
        rows.append((name, base[name], fresh[name], ratio, gated))
        if gated and ratio - 1.0 > args.max_regression:
            failures.append((name, ratio))

    if not rows:
        print("bench_compare: no common cases between baseline(s) and fresh run",
              file=sys.stderr)
        return 2

    width = max(len(r[0]) for r in rows)
    print(f"{'case':<{width}}  {'baseline':>12}  {'fresh':>12}  {'ratio':>7}  gated")
    for name, b, f, ratio, gated in rows:
        print(f"{name:<{width}}  {b:>10.0f}ns  {f:>10.0f}ns  {ratio:>6.2f}x  {'*' if gated else ''}")

    # A gated case that vanished from the fresh run is a gate bypass, not a
    # footnote: a renamed or deleted benchmark would otherwise pass the gate
    # forever. Hard failure unless the caller explicitly filtered it out.
    gated_missing = [n for n in base if gate.search(n) and n not in fresh]
    if gated_missing:
        severity = "WARNING" if args.allow_missing else "FAIL"
        print(f"\n{severity}: gated baseline cases missing from fresh run: "
              f"{', '.join(sorted(gated_missing))}", file=sys.stderr)
        if not args.allow_missing:
            print("(rename/remove the baseline entry, or pass --allow-missing for a "
                  "deliberately filtered run)", file=sys.stderr)
            return 1

    if failures:
        print(f"\nFAIL: {len(failures)} hot case(s) regressed beyond "
              f"{args.max_regression:.0%}:", file=sys.stderr)
        for name, ratio in failures:
            print(f"  {name}: {ratio:.2f}x baseline", file=sys.stderr)
        return 1

    print(f"\nOK: no gated case regressed beyond {args.max_regression:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
