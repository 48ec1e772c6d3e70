#!/usr/bin/env python3
"""Self-test of the repo benchmark. Run from the root of a source checkout:

    python3 perfbench/selftest.py

1. A short smoke run of every workload run.py knows (BENCHMARK.json's and
   the manual mpi_large), untraced and traced, through the
   one command (perfbench/run.py): the last line must hold exactly the
   keys correct/attempted/failed/metrics, every BENCHMARK.json metric of
   that mode must be present, finite and carry BENCHMARK.json's unit, and
   every result must pass its check.
2. A second traced run with the same seed must reproduce the exact counts
   (rotations, sweeps, messages, elements, modeled time, auto q).
3. In a directory holding only BENCHMARK.json and perfbench/, the command
   must exit non-zero without printing a result.

Exits 0 when all of it holds.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
from run import WORKLOADS  # noqa: E402  (every workload run.py accepts)

SMOKE_SECONDS = "2"
SEED = "7"
EXACT = ("la.rotations_per_solve", "solve.sweeps_per_solve", "net.messages_per_solve",
         "net.elements_per_solve", "sim.modeled_time_per_sweep", "pipe.auto_q")

problems = []


def check(cond, what):
    if not cond:
        problems.append(what)
        print(f"FAIL {what}", flush=True)


def run(root, workload, trace):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", SEED, "--seconds", SMOKE_SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)


def result_of(proc, label):
    check(proc.returncode == 0, f"{label}: exit {proc.returncode}: {proc.stderr[-800:]}")
    if proc.returncode != 0:
        return None
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(last.get("correct") is True and last.get("failed") == 0,
          f"{label}: results failed their checks")
    check(isinstance(last.get("attempted"), int) and last["attempted"] >= 1, f"{label}: attempted")
    return last


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in WORKLOADS:
        traced = {}
        for trace in (0, 1):
            label = f"{w} trace={trace}"
            last = result_of(run(ROOT, w, trace), label)
            if last is None:
                continue
            metrics = last["metrics"]
            check(set(metrics) == set(modes[trace]), f"{label}: metric names differ from "
                  f"BENCHMARK.json: {sorted(set(metrics) ^ set(modes[trace]))}")
            for name, m in metrics.items():
                value = m.get("value")
                check(isinstance(value, (int, float)) and math.isfinite(value),
                      f"{label}: {name} not finite")
                check(m.get("unit") == modes[trace].get(name), f"{label}: {name} unit")
            if trace:
                traced = metrics
            print(f"ok   {label}: {len(metrics)} metrics, {last['attempted']} checked", flush=True)
        again = result_of(run(ROOT, w, 1), f"{w} trace=1 (repeat)")
        if traced and again:
            for name in EXACT:
                check(traced[name]["value"] == again["metrics"][name]["value"],
                      f"{w}: {name} differs between two runs of seed {SEED}: "
                      f"{traced[name]['value']} vs {again['metrics'][name]['value']}")
            print(f"ok   {w}: exact counts repeat", flush=True)

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench")
    proc = run(bare, spec["workloads"][0]["name"], 0)
    check(proc.returncode != 0 and "metrics" not in proc.stdout,
          "a directory without the sources must fail without a result")
    shutil.rmtree(bare, ignore_errors=True)
    print("ok   bare directory refused" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
