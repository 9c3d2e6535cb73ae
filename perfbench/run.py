#!/usr/bin/env python3
"""Layered campaign benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload fig1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload tiny-cells --trace 1
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --compare A.json B.json

The first call in a checkout configures and builds the benchmark package
(perfbench/CMakeLists.txt, which compiles the library from ../src) under
.bench_build/. Each call then runs perfbench/layers for one workload, prints
every metric by name with its unit, median, quartiles and repetition count,
and ends with one JSON line:

    {"correct": true, "attempted": <cells>, "failed": <cells>, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The full report, with provenance, is written to --out
(default .bench_build/perfbench-out/<workload>-seed<seed>-trace<trace>.json).
The exit code is 0 only when every cell passed every check. --compare prints
the ratio of two such reports and refuses reports whose provenance differs in
anything but the commit (sha, dirty flag, source digest).
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
OUT = BUILD_ROOT / "perfbench-out"
PINNED = HERE / "pinned"
DEFAULT_SEED = 1
SOURCES = [ROOT / "src" / "CMakeLists.txt", ROOT / "bench" / "harness.cpp",
           ROOT / "bench" / "campaign_worker.cpp"]
# Provenance fields that may differ between two compared reports.
COMMIT_FIELDS = {"git_sha", "git_dirty", "source_digest"}
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def benchmark_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def cmake_home(build):
    cache = build / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return line.split("=", 1)[1]
    return None


def build():
    """Configures (once per checkout) and builds the benchmark; returns bin dir."""
    missing = [str(p.relative_to(ROOT)) for p in SOURCES if not p.exists()]
    if missing:
        fail("cannot build: missing " + ", ".join(missing) +
             " (run from a full checkout)")
    if shutil.which("cmake") is None:
        fail("cannot build: cmake not found")
    BUILD_ROOT.mkdir(exist_ok=True)
    with open(BUILD_ROOT / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if cmake_home(BUILD) not in (None, str(HERE)):
            shutil.rmtree(BUILD)  # a copied build tree from another checkout
        steps = []
        if cmake_home(BUILD) is None:
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j",
                      str(os.cpu_count() or 1)])
        for cmd in steps:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                tail = (proc.stdout + proc.stderr).splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed: " + " ".join(cmd))
    return BUILD


def git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """sha256 over the sources the benchmark binary is built from."""
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    files += sorted(p for p in HERE.iterdir()
                    if p.is_file() and p.suffix in (".cpp", ".txt"))
    files += SOURCES[1:] + [ROOT / "bench" / "harness.h"]
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes() + b"\0")
    return h.hexdigest()


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(report):
    sha = git("rev-parse", "HEAD")
    dirty = None
    if sha is not None:
        status = git("status", "--porcelain", "--untracked-files=no")
        dirty = bool(status) if status is not None else None
    return {
        "git_sha": sha or "unknown",
        "git_dirty": dirty,
        "source_digest": source_digest(),
        "compiler": report.pop("compiler", "unknown"),
        "cxx_flags": report.pop("cxx_flags", "").strip(),
        "build_type": report.pop("build_type", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "hardware_threads": report.pop("hardware_threads", None),
        "cpu_model": cpu_model(),
    }


def expected_metrics(spec, trace):
    if spec is None:
        return None
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def print_table(report, listed):
    """One row per metric; rows not in BENCHMARK.json are marked."""
    print(f"{'metric':34s} {'median':>14s} {'unit':6s} {'q1':>14s} "
          f"{'q3':>14s} runs")
    for name, m in sorted(report["metrics"].items()):
        mark = "" if listed is None or name in listed else "  (report only)"
        print(f"{name:34s} {m['median']:14.6g} {m['unit']:6s} "
              f"{m['q1']:14.6g} {m['q3']:14.6g} {m['runs']}{mark}")


def run(args):
    spec = benchmark_spec()
    if spec is not None and args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    bin_dir = build()
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    raw = OUT / f"raw-{tag}-{os.getpid()}.json"
    pinned = PINNED / f"{args.workload}-{args.scale}.txt"
    cmd = [str(bin_dir / "layers"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}", f"--scale={args.scale}",
           f"--work-dir={work}", f"--out={raw}",
           f"--worker={bin_dir / 'campaign_worker'}"]
    if args.inject_flip:
        cmd.append("--inject-flip=true")
    if args.write_pinned:
        PINNED.mkdir(exist_ok=True)
        cmd.append(f"--write-pinned={pinned}")
    elif args.seed == DEFAULT_SEED:
        cmd.append(f"--pinned={pinned}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code is None:
        fail(f"layers did not finish within {RUN_TIMEOUT_S} s", 3)
    if code not in (0, 1) or not raw.exists():
        fail(f"layers exited with code {code} and no report", 3)
    report = json.loads(raw.read_text())
    raw.unlink()
    report["provenance"] = provenance(report)
    report["seconds"] = args.seconds

    problems = list(report.get("messages", []))
    if code != 0 and not problems:
        problems.append(f"layers exited with code {code}")
    if report.get("obs_enabled_after") or report.get("obs_enabled_before"):
        problems.append("obs tracing was enabled")
    wanted = expected_metrics(spec, args.trace)
    metrics = report["metrics"]
    for name, unit in (wanted or {}).items():
        m = metrics.get(name)
        if m is None:
            problems.append(f"metric {name} missing")
        elif m["unit"] != unit:
            problems.append(f"metric {name} in {m['unit']}, expected {unit}")
        elif not math.isfinite(m["median"]):
            problems.append(f"metric {name} is not finite")
    attempted = int(report["attempted"])
    failed = int(report["failed"])
    correct = failed == 0 and not problems and attempted > 0
    report["correct"] = correct
    report["failed_frac"] = failed / attempted if attempted else 1.0
    report["problems"] = problems

    out = Path(args.out) if args.out else OUT / f"{tag}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")

    prov = report["provenance"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"scale={args.scale} threads={report['threads']} "
          f"cells={attempted} notes={json.dumps(report['notes'])}")
    print("provenance " + json.dumps(prov))
    print_table(report, wanted)
    print(f"{'failed_frac':34s} {report['failed_frac']:14.6g} {'frac':6s} "
          f"({failed} of {attempted} cells failed)")
    for p in problems:
        print(f"FAILED: {p}")
    names = wanted if wanted is not None else {k: m["unit"] for k, m in metrics.items()}
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k]["median"], "unit": metrics[k]["unit"]}
                        for k in names if k in metrics}}
    print(json.dumps(line))
    return 0 if correct else 1


def compare(path_a, path_b):
    """Prints B's medians against A's; refuses mismatched provenance."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    pa, pb = a.get("provenance", {}), b.get("provenance", {})
    differing = sorted(k for k in set(pa) | set(pb)
                       if k not in COMMIT_FIELDS and pa.get(k) != pb.get(k))
    if differing:
        for k in differing:
            print(f"  {k}: {pa.get(k)!r} vs {pb.get(k)!r}", file=sys.stderr)
        fail("refusing to compare: provenance differs in " + ", ".join(differing))
    for key in ("workload", "trace", "scale", "seconds"):
        if a.get(key) != b.get(key):
            fail(f"refusing to compare: {key} differs "
                 f"({a.get(key)!r} vs {b.get(key)!r})")
    spec = benchmark_spec() or {}
    bounds = {m["name"]: m for m in spec.get("end_to_end", [])}
    bounds.update({m["name"]: m for m in spec.get("per_layer", [])})
    worse = []
    print(f"{'metric':34s} {'A':>14s} {'B':>14s} {'B/A':>8s} unit")
    for name in sorted(set(a["metrics"]) & set(b["metrics"])):
        ma, mb = a["metrics"][name]["median"], b["metrics"][name]["median"]
        ratio = mb / ma if ma else float("nan")
        flag = ""
        m = bounds.get(name)
        if m is not None and "bound" in m and ma:
            change = (mb - ma) / abs(ma)
            if m["better"] == "higher":
                change = -change
            if change > m["bound"]:
                flag = f"  worse by more than {m['bound']:.0%}"
                worse.append(name)
        print(f"{name:34s} {ma:14.6g} {mb:14.6g} {ratio:8.3f} "
              f"{a['metrics'][name]['unit']}{flag}")
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help='a workload of BENCHMARK.json, or "all"')
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: the benchmark's own tests")
    ap.add_argument("--out", help="report path")
    ap.add_argument("--inject-flip", action="store_true",
                    help="flip one byte of a cells file (self-test)")
    ap.add_argument("--write-pinned", action="store_true",
                    help="pin this run's cells bytes as the expected bytes "
                         f"(use with --seed {DEFAULT_SEED})")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two reports")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.write_pinned and args.seed != DEFAULT_SEED:
        ap.error(f"--write-pinned pins the default seed ({DEFAULT_SEED})")
    workloads = [args.workload]
    if args.workload == "all":
        spec = benchmark_spec()
        if spec is None:
            ap.error("--workload all needs BENCHMARK.json")
        if args.out:
            ap.error("--out needs a single workload")
        workloads = [w["name"] for w in spec["workloads"]]
    code = 0
    for workload in workloads:
        start = time.monotonic()
        code = max(code, run(argparse.Namespace(**{**vars(args), "workload": workload})))
        print(f"perfbench: {workload} {time.monotonic() - start:.1f} s",
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
