#!/usr/bin/env python3
"""The benchmark's own tests, at tiny scale (about a minute in all).

    python3 perfbench/test_perfbench.py

They run perfbench/run.py with --scale tiny and check the result line, the
report and the exit code: every metric named in BENCHMARK.json is emitted
with its unit, the per-family layer rates appear only for the workloads that
run those families, a flipped byte in a cells file is counted as a failed
cell, a non-default seed passes the self-consistency checks, a missing pin
file fails the default seed, the traced run reports its coverage with obs
tracing off, mismatched provenance is refused, and a directory without the
library sources fails without a result line.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "perfbench-test"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYERS = ROOT / ".bench_build" / "perfbench" / "layers"

# Traced-run metrics of single backends, reported only where a workload's
# grid runs that backend.
FAMILY_METRICS = {
    "pipelined": ["sim.pipelined.ns_per_op"],
    "general": ["sim.general.ns_per_op"],
    "backup": ["backup.ns_per_op"],
    "msg": ["msg.ns_per_message", "msg.messages"],
    "mutex": ["mutex.ns_per_entry", "mutex.entries"],
    "hybrid": ["hybrid.ns_per_dispatch"],
    "check": ["check.states_per_s", "check.new_state_ratio"],
    "fleet": ["fleet.overhead_s"],
}
WORKLOAD_FAMILIES = {
    "fig1": {"pipelined"},
    "backends": {"general", "backup", "msg", "mutex", "hybrid", "check"},
    "tiny-cells": {"pipelined", "general", "hybrid", "fleet"},
}

_runs = {}


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)
    return proc


def tiny(workload, trace=0, seed=1, *extra):
    """Runs one tiny-scale workload (cached) -> (proc, result line, report)."""
    key = (workload, trace, seed, extra)
    if key not in _runs:
        SCRATCH.mkdir(parents=True, exist_ok=True)
        out = SCRATCH / f"{workload}-{trace}-{seed}-{len(_runs)}.json"
        proc = run_bench("--workload", workload, "--seed", str(seed),
                         "--seconds", "1", "--trace", str(trace),
                         "--scale", "tiny", "--out", str(out), *extra)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        _runs[key] = (proc, line, json.loads(out.read_text()), out)
    return _runs[key]


class MetricsTest(unittest.TestCase):
    def check_names(self, trace, section):
        wanted = {m["name"]: m["unit"] for m in SPEC[section]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, line, _, _ = tiny(workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                self.assertTrue(line["correct"])
                self.assertEqual(set(line),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertEqual(set(line["metrics"]), set(wanted))
                for name, unit in wanted.items():
                    self.assertEqual(line["metrics"][name]["unit"], unit)
                    value = line["metrics"][name]["value"]
                    self.assertIsInstance(value, (int, float))
                    self.assertNotIsInstance(value, bool)
                    self.assertIn(name, proc.stdout.split("\n", 2)[2])

    def test_end_to_end_metrics_are_named_with_units(self):
        self.check_names(0, "end_to_end")

    def test_per_layer_metrics_are_named_with_units(self):
        self.check_names(1, "per_layer")

    def test_report_carries_provenance(self):
        _, _, report, _ = tiny("fig1")
        for key in ("git_sha", "git_dirty", "source_digest", "compiler",
                    "cxx_flags", "build_type", "nproc", "cpu_model"):
            self.assertIn(key, report["provenance"])
        self.assertIn("merge_s", report["metrics"])
        for m in report["metrics"].values():
            self.assertLessEqual(m["q1"], m["median"])
            self.assertLessEqual(m["median"], m["q3"])
            self.assertGreaterEqual(m["runs"], 1)


    def test_family_metrics_only_where_the_grid_runs_them(self):
        for workload in WORKLOADS:
            _, line, report, _ = tiny(workload, 1)
            for family, names in FAMILY_METRICS.items():
                for name in names:
                    with self.subTest(workload=workload, metric=name):
                        self.assertNotIn(name, line["metrics"])
                        if family in WORKLOAD_FAMILIES[workload]:
                            self.assertIn(name, report["metrics"])
                        else:
                            self.assertNotIn(name, report["metrics"])


class CorrectnessTest(unittest.TestCase):
    def test_one_byte_flip_is_a_failed_cell(self):
        proc, line, report, _ = tiny("fig1", 0, 1, "--inject-flip")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(line["correct"])
        self.assertGreaterEqual(line["failed"], 1)
        self.assertGreater(report["failed_frac"], 0.0)
        self.assertIn("cold pass", " ".join(report["problems"]))

    def test_non_default_seed_is_self_consistent(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                proc, line, report, _ = tiny("backends", trace, 987654)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                self.assertEqual(line["failed"], 0)
                self.assertNotEqual(report["notes"].get("pinned_check"),
                                    "compared")

    def test_default_seed_is_compared_with_pinned_bytes(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    _, line, report, _ = tiny(workload, trace)
                    self.assertEqual(report["notes"].get("pinned_check"),
                                     "compared")
                    self.assertEqual(line["failed"], 0)

    def test_missing_pin_file_fails_every_cell(self):
        tiny("fig1")  # builds the binary
        for trace in (0, 1):
            with self.subTest(trace=trace):
                out = SCRATCH / f"missing-pin-{trace}.json"
                proc = subprocess.run(
                    [str(LAYERS), "--workload=fig1", "--scale=tiny",
                     "--seconds=0.1", f"--trace={trace}",
                     f"--work-dir={SCRATCH / 'missing-pin'}", f"--out={out}",
                     f"--pinned={SCRATCH / 'no-such-pin.txt'}"],
                    capture_output=True, text=True, timeout=300)
                self.assertEqual(proc.returncode, 1, proc.stderr)
                report = json.loads(out.read_text())
                self.assertEqual(report["failed"], report["attempted"])
                self.assertIn("no pinned expected bytes",
                              " ".join(report["messages"]))

    def test_traced_run_reports_coverage_with_tracing_off(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, line, report, _ = tiny(workload, 1)
                coverage = line["metrics"]["trace.coverage"]["value"]
                self.assertGreater(coverage, 0.5)
                self.assertLessEqual(coverage, 1.0 + 1e-9)
                self.assertIn("trace.overhead_frac", line["metrics"])
                self.assertFalse(report["obs_enabled_after"])


class CommandTest(unittest.TestCase):
    def test_compare_refuses_differing_provenance(self):
        _, _, _, path = tiny("fig1")
        report = json.loads(path.read_text())
        same = run_bench("--compare", str(path), str(path))
        self.assertEqual(same.returncode, 0, same.stderr)
        other = SCRATCH / "other-compiler.json"
        report["provenance"]["compiler"] = "another compiler"
        other.write_text(json.dumps(report))
        refused = run_bench("--compare", str(path), str(other))
        self.assertNotEqual(refused.returncode, 0)
        self.assertIn("refusing to compare", refused.stderr)
        self.assertIn("compiler", refused.stderr)
        report = json.loads(path.read_text())
        report["provenance"]["git_sha"] = "0" * 40
        other.write_text(json.dumps(report))
        self.assertEqual(run_bench("--compare", str(path), str(other)).returncode, 0)

    def test_fails_without_the_library_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("--workload", "fig1", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare,
                         script=bare / "perfbench" / "run.py")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
