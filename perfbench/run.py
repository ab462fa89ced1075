#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload core-serial --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --trace 1
    python3 perfbench/run.py --self-check

The first form builds the simulator libraries and the perfbench driver
(an optimized CMake build under .bench_build/ at the repository root),
then runs one workload; the driver's last line of standard output is
the JSON result. The second form runs every workload of BENCHMARK.json
in turn at full size. The third form runs every workload of BENCHMARK.json
once at reduced size, with tracing off and on, and checks that each
declared metric is emitted with its declared unit.

Everything the benchmark writes stays under .bench_build/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
SCRATCH = BUILD_ROOT / "scratch"
# Compilers and the driver write temporary files under TMPDIR.
ENV = dict(os.environ, TMPDIR=str(BUILD_ROOT / "tmp"))
BINARY = BUILD / "perfbench"
DEFAULT_SEED = 1  # perfbench/workloads.hh kDefaultSeed
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the build up to date. Build output goes
    to stderr so the driver's result stays the last line of stdout."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"simulator sources not found under {ROOT / 'src'}")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    (BUILD_ROOT / "tmp").mkdir(parents=True, exist_ok=True)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=ENV).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return BINARY.is_file()


def provenance_args():
    """Git revision when the tree is a git checkout, and a content hash
    of the sources the benchmark builds, which identifies the code even
    where there is no git metadata."""
    rev = "none"
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if p.returncode == 0:
            rev = p.stdout.strip()
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in (ROOT / "src", HERE):
        files += sorted(p for p in d.rglob("*") if p.is_file())
    for f in files:
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(str(f.relative_to(ROOT)).encode() + b"\0")
            h.update(f.read_bytes())
    return ["--git-rev", rev, "--source-sha", h.hexdigest()]


def run_driver(args, capture):
    cmd = [str(BINARY)] + args + ["--scratch", str(SCRATCH)]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=ENV, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s: " + " ".join(cmd))
        return None


def self_check():
    """Run each workload small, traced and untraced, and check the result
    against BENCHMARK.json's metric names and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            p = run_driver(["--workload", w["name"], "--trace", str(trace),
                            "--self-check"] + provenance_args(), True)
            if p is None:
                ok = False
                continue
            lines = p.stdout.strip().splitlines()
            sys.stdout.write(p.stdout)
            problems = []
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
                problems.append("last line is not a JSON object")
            if result is not None:
                if sorted(result) != ["attempted", "correct", "failed",
                                      "metrics"]:
                    problems.append(f"result keys are {sorted(result)}")
                if not result.get("correct") or result.get("failed"):
                    problems.append("outputs failed their checks")
                got = result.get("metrics", {})
                want = {m["name"]: m["unit"] for m in spec[key]}
                if set(got) != set(want):
                    problems.append(
                        f"metrics differ: missing {sorted(set(want) - set(got))}"
                        f", extra {sorted(set(got) - set(want))}")
                for name, unit in want.items():
                    m = got.get(name)
                    if m is not None and (m.get("unit") != unit or
                                          not isinstance(m.get("value"),
                                                         (int, float))):
                        problems.append(f"{name}: {m} is not a {unit} value")
            if p.returncode != 0:
                problems.append(f"exit code {p.returncode}")
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            log(f"self-check {w['name']} trace={trace}: {status}")
            ok = ok and not problems
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--self-check", action="store_true")
    a = ap.parse_args()
    if not a.self_check and not a.workload:
        ap.error("--workload is required")
    if a.seed < 0:
        ap.error("--seed must not be negative")
    if not build():
        return 2
    SCRATCH.mkdir(parents=True, exist_ok=True)
    if a.self_check:
        return 0 if self_check() else 1
    names = [a.workload]
    if a.workload == "all":
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
    rc = 0
    for name in names:
        p = run_driver(["--workload", name, "--seed", str(a.seed),
                        "--seconds", repr(a.seconds), "--trace", a.trace]
                       + provenance_args(), False)
        rc = rc or (1 if p is None else p.returncode)
    return rc


if __name__ == "__main__":
    sys.exit(main())
