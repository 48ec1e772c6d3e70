#!/usr/bin/env python3
"""Golden cases for the lint tooling (tools/lint/) and tools/bench_compare.py.

Each case materializes a miniature repository in a temp directory and runs
the real linter binaries against it, asserting both the exit code and that
the expected diagnostic is printed. This is the regression suite for the
linters themselves -- the C++ AllocGuard counterpart lives in
tests/test_alloc_guard.cpp.

Registered in ctest as `lint_golden`; also runnable directly:
    python3 tests/lint/test_lint_golden.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
CHECK_LAYERS = REPO / "tools" / "lint" / "check_layers.py"
RUN_TIDY = REPO / "tools" / "lint" / "run_tidy.py"
BENCH_COMPARE = REPO / "tools" / "bench_compare.py"

MANIFEST = """\
[layers.common]
deps = []

[layers.la]
deps = ["common"]

[layers.ord]
deps = ["common", "la"]

[toplevel]
dirs = ["tests", "bench", "examples"]
"""

HDR = '#pragma once\n'


def write_tree(root: Path, files: dict[str, str]) -> None:
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")


def run_layers(root: Path, manifest: str = MANIFEST) -> subprocess.CompletedProcess:
    (root / "tools" / "lint").mkdir(parents=True, exist_ok=True)
    (root / "tools" / "lint" / "layers.toml").write_text(manifest, encoding="utf-8")
    return subprocess.run(
        [sys.executable, str(CHECK_LAYERS), "--root", str(root)],
        capture_output=True, text=True)


class CheckLayersGolden(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def test_clean_tree_passes(self):
        write_tree(self.root, {
            "src/common/util.hpp": HDR,
            "src/la/matrix.hpp": HDR + '#include "common/util.hpp"\n',
            "src/la/matrix.cpp": '#include "la/matrix.hpp"\n',
            "tests/test_matrix.cpp": '#include "la/matrix.hpp"\n',
        })
        proc = run_layers(self.root)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_forbidden_upward_include_fails(self):
        # la is below ord in the DAG; an la -> ord include is the canonical
        # layering break this linter exists to catch.
        write_tree(self.root, {
            "src/common/util.hpp": HDR,
            "src/ord/ordering.hpp": HDR,
            "src/la/matrix.hpp": HDR + '#include "ord/ordering.hpp"\n',
        })
        proc = run_layers(self.root)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("layer 'la' may not include \"ord/ordering.hpp\"", proc.stdout)

    def test_upward_include_from_cpp_fails(self):
        # An implementation file is held to the same rule as a header: the
        # manifest has no exception mechanism.
        write_tree(self.root, {
            "src/common/util.hpp": HDR,
            "src/ord/ordering.hpp": HDR,
            "src/la/bridge.hpp": HDR,
            "src/la/bridge.cpp": '#include "la/bridge.hpp"\n#include "ord/ordering.hpp"\n',
        })
        proc = run_layers(self.root)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("layer 'la' may not include \"ord/ordering.hpp\" "
                      "(allowed: common; upward edges are forbidden)", proc.stdout)

    def test_missing_pragma_once_fails(self):
        write_tree(self.root, {
            "src/common/util.hpp": "// no include guard of any kind\n",
        })
        proc = run_layers(self.root)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("lacks '#pragma once'", proc.stdout)

    def test_relative_include_fails(self):
        write_tree(self.root, {
            "src/common/util.hpp": HDR,
            "src/la/matrix.hpp": HDR + '#include "../common/util.hpp"\n',
        })
        proc = run_layers(self.root)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("relative include", proc.stdout)

    def test_cpp_without_header_pair_fails(self):
        write_tree(self.root, {
            "src/la/orphan.cpp": "int la_orphan;\n",
        })
        proc = run_layers(self.root)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("no header pair", proc.stdout)

    def test_real_repo_manifest_is_clean(self):
        # The repo itself must conform to its own committed manifest.
        proc = subprocess.run([sys.executable, str(CHECK_LAYERS)],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


class NolintDisciplineGolden(unittest.TestCase):
    def run_tidy_on(self, content: str) -> subprocess.CompletedProcess:
        with tempfile.TemporaryDirectory() as tmp:
            f = Path(tmp) / "case.cpp"
            f.write_text(content, encoding="utf-8")
            return subprocess.run(
                [sys.executable, str(RUN_TIDY), str(f)],
                capture_output=True, text=True)

    def test_bare_nolint_fails(self):
        proc = self.run_tidy_on("int x = 0;  // NOLINT\n")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("bare NOLINT", proc.stderr)

    def test_named_nolint_without_reason_fails(self):
        proc = self.run_tidy_on("int x = 0;  // NOLINT(bugprone-foo)\n")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("bare NOLINT", proc.stderr)

    def test_block_suppression_fails(self):
        proc = self.run_tidy_on("// NOLINTBEGIN(bugprone-foo)\nint x = 0;\n")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("NOLINTBEGIN", proc.stderr)

    def test_named_nolint_with_reason_passes(self):
        proc = self.run_tidy_on(
            "int x = 0;  // NOLINT(bugprone-foo): golden case, sanctioned\n")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_repo_nolint_discipline_is_clean(self):
        proc = subprocess.run([sys.executable, str(RUN_TIDY)],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


class BenchCompareHostGolden(unittest.TestCase):
    """A baseline from another host is noted on stderr; the gate is unchanged."""

    def run_compare(self, base_ctx: dict, fresh_ctx: dict) -> subprocess.CompletedProcess:
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, ctx in (("base.json", base_ctx), ("fresh.json", fresh_ctx)):
                doc = {"context": ctx, "benchmarks": [
                    {"name": "BM_SpecRoundTrip", "run_type": "iteration",
                     "real_time": 100.0, "time_unit": "ns"}]}
                path = Path(tmp) / name
                path.write_text(json.dumps(doc), encoding="utf-8")
                paths.append(str(path))
            return subprocess.run([sys.executable, str(BENCH_COMPARE), *paths],
                                  capture_output=True, text=True)

    def test_host_mismatch_prints_one_note(self):
        proc = self.run_compare({"host_name": "old", "num_cpus": 1},
                                {"host_name": "new", "num_cpus": 4})
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(proc.stderr.count("NOTE: baseline host old (1 cpus"), 1, proc.stderr)
        self.assertIn("fresh run's host new (4 cpus)", proc.stderr)

    def test_same_host_prints_no_note(self):
        ctx = {"host_name": "box", "num_cpus": 4}
        proc = self.run_compare(ctx, ctx)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertNotIn("NOTE", proc.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
