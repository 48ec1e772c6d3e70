#!/usr/bin/env python3
"""The repo benchmark: one command, one named workload, every metric.

    python3 perfbench/run.py --workload mpi_large|inline_large|service_mix \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the library and the
measuring binary jmh_perfbench (perfbench/CMakeLists.txt, Release only)
into .bench_build/perfbench, times set-up in several fresh processes,
runs the workload (untraced: in MEASURE_PROCS processes one after another,
each metric the median over them; traced: in one), checks every result,
and prints the metrics.
The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are BENCHMARK.json's
end_to_end set, with --trace 1 its per_layer set (the traced run also
writes a Chrome trace). Lines before it, each
starting with '#', carry the host record, context and failure reasons; the
same record is written to .bench_build/perfbench/results/.

METHODOLOGY.md in this directory explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "jmh_perfbench"
WORKLOADS = ("mpi_large", "inline_large", "service_mix")
SETUP_SAMPLES = 9  # set-up timed in this many processes; setup_s is the median
# An untraced run measures in this many processes one after another, each
# for an equal share of --seconds, and reports each metric's median over
# them: one process that lands on a busy core then moves no figure.
MEASURE_PROCS = 5


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(f"perfbench: {msg}")
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures (once) and builds jmh_perfbench; refuses non-Release builds."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no source tree at {ROOT} (need CMakeLists.txt and src/)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and "CMAKE_BUILD_TYPE:STRING=Release" not in cache.read_text():
        fail(f"{BUILD} is not a Release build; remove it or configure it as Release")
    if not cache.is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, timeout=300).returncode != 0:
            fail("cmake configure failed", 1)
    cmd = ["cmake", "--build", str(BUILD), "--target", "jmh_perfbench", "-j", str(min(nproc(), 4))]
    if subprocess.run(cmd, stdout=sys.stderr, timeout=840).returncode != 0:
        fail("build failed", 1)


def child_env():
    env = dict(os.environ)
    env["JMH_EXEC_THREADS"] = str(nproc())  # the exec pool is at most nproc wide
    return env


def run_child(args, timeout):
    """Runs jmh_perfbench; returns (spawn-to-ready seconds, PB_RESULT dict or None)."""
    t0 = time.monotonic()
    proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout, env=child_env())
    ready, result = None, None
    for line in proc.stdout.splitlines():
        if line.startswith("PB_READY "):
            ready = float(line.split()[1]) - t0
        elif line.startswith("PB_RESULT "):
            result = json.loads(line[len("PB_RESULT "):])
    if proc.returncode != 0 or ready is None:
        fail(f"jmh_perfbench exited {proc.returncode} for {' '.join(args)}", 1)
    return ready, result


def read_first(path, prefix=None):
    try:
        for line in Path(path).read_text().splitlines():
            if prefix is None:
                return line.strip()
            if line.startswith(prefix):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def source_revision():
    """The git commit when there is one; a digest of the sources always."""
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    digest.update((ROOT / "CMakeLists.txt").read_bytes())
    return commit, digest.hexdigest()[:16]


def host_record():
    return {
        "nproc": nproc(),
        "cpu_model": read_first("/proc/cpuinfo", "model name") or platform.processor(),
        "governor": read_first("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
        "kernel": platform.release(),
        "python": platform.python_version(),
    }


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        ticks = [int(x) for x in fields[1:9]]
        return ticks[7], sum(ticks)
    except (OSError, IndexError, ValueError):
        return None


def steal_share(start, end):
    """Share of CPU time the hypervisor gave to other guests between two
    cpu_ticks() readings: a shared host's interference, seen from inside."""
    if start is None or end is None or end[1] <= start[1]:
        return None
    return (end[0] - start[0]) / (end[1] - start[1])


def expected_metrics():
    """{name: unit} per mode, from BENCHMARK.json at the checkout root."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    opt = ap.parse_args()
    if opt.seconds <= 0 or opt.seed < 0:
        fail("--seconds must be positive and --seed non-negative")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json not found at the checkout root")
    e2e_names, layer_names = expected_metrics()

    build()
    load_start, ticks_start = os.getloadavg(), cpu_ticks()
    base = ["--workload", opt.workload, "--seed", str(opt.seed)]

    # setup_s: spawn to first timed request, median over fresh processes
    # (each builds its plan, starts the pool, makes inputs, warms up): the
    # measuring processes plus set-up-only ones. A traced run reports no
    # setup_s and runs in one process, so it times only its own set-up.
    procs = 1 if opt.trace else MEASURE_PROCS
    setup = [run_child(base + ["--seconds", "1", "--setup-only"], timeout=120)[0]
             for _ in range(0 if opt.trace else SETUP_SAMPLES - procs)]

    trace_path = None
    results = []
    for k in range(procs):
        # Each measuring process gets its own seed, derived from --seed.
        seed = opt.seed if procs == 1 else opt.seed * procs + k
        seconds = opt.seconds / procs
        args = ["--workload", opt.workload, "--seed", str(seed), "--seconds", repr(seconds),
                "--trace", str(opt.trace)]
        if opt.trace:
            (BUILD / "traces").mkdir(parents=True, exist_ok=True)
            trace_path = BUILD / "traces" / f"{opt.workload}-seed{opt.seed}.json"
            args += ["--trace-out", str(trace_path)]
        ready, result = run_child(args, timeout=seconds * 2 + 60)
        if result is None:
            fail("jmh_perfbench printed no result", 1)
        setup.append(ready)
        results.append(result)

    metrics = {}
    wanted = layer_names if opt.trace else e2e_names
    for name, unit in wanted.items():
        if name == "setup_s":
            metrics[name] = {"value": statistics.median(setup), "unit": "s"}
            continue
        values = []
        for result in results:
            m = result["layer" if opt.trace else "e2e"].get(name)
            if m is None or m["value"] is None or not math.isfinite(m["value"]):
                fail(f"metric {name} missing or not finite", 1)
            if m["unit"] != unit:
                fail(f"metric {name} has unit {m['unit']}, BENCHMARK.json says {unit}", 1)
            values.append(m["value"])
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    info = {name: {"value": statistics.median(r["info"][name]["value"] for r in results),
                   "unit": m["unit"]} for name, m in results[0]["info"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)

    commit, digest = source_revision()
    record = {
        "workload": opt.workload, "seed": opt.seed, "seconds": opt.seconds, "trace": opt.trace,
        "host": dict(host_record(), load_start=load_start, load_end=os.getloadavg(),
                     steal_share=steal_share(ticks_start, cpu_ticks())),
        "build": results[0]["build"], "git_commit": commit, "source_digest": digest,
        "setup_samples_s": setup, "info": info,
        "per_process": [{"e2e": r["e2e"], "info": r["info"]} for r in results],
        "failures": [why for r in results for why in r["failures"]],
        "trace_file": str(trace_path.relative_to(ROOT)) if trace_path else None,
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    (BUILD / "results").mkdir(parents=True, exist_ok=True)
    out = BUILD / "results" / f"{opt.workload}-seed{opt.seed}-trace{opt.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for key in ("host", "build", "git_commit", "source_digest", "setup_samples_s"):
        print(f"# {key}: {json.dumps(record[key])}")
    for name, m in info.items():
        print(f"# info {name} = {m['value']:.6g} {m['unit']}")
    print(f"# fail_ratio = {failed / max(attempted, 1):.6g} ({failed} of {attempted})")
    for why in record["failures"]:
        print(f"# FAILED: {why}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
