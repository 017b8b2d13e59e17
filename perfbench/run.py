#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds
perfbench/ (and with it the engine library) into .bench_build/; later runs
only rebuild what changed. Build output goes to stderr; stdout carries the
benchmark's report, whose last line is one JSON object with the keys
correct, attempted, failed and metrics.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "goodones_perfbench"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    source = ROOT / "perfbench"
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no goodones sources under {ROOT}; run from the repository root")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(source), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def git(*args):
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp():
    """What was measured, taken when the benchmark runs (not at configure
    time): the commit and dirty flag when the tree is a git checkout, and
    always a digest of the sources the binary was built from."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for tree in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / tree).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    sha = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return {
        "sha": sha or "unknown",
        "dirty": "unknown" if dirty is None else ("1" if dirty else "0"),
        "source_sha256": digest.hexdigest()[:16],
    }


def run_timeout(seconds):
    """How long one run may take: the measured seconds twice over, for
    contention from other processes, plus the profiling and set-up that
    come on top of them (three BGMS pipelines take about 20 s)."""
    return 90 + 2 * seconds


def run(workload, seed, seconds, trace, echo=True):
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               # Relative, so unix socket paths stay short in a deep checkout.
               "--scratch", ".bench_build/run", "--reports", ".bench_build/reports"]
    for key, value in stamp().items():
        command += ["--stamp", f"{key}={value}"]
    timeout = run_timeout(seconds)
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {timeout} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout)
        fail(f"{workload} exited with code {done.returncode}")
    if echo:
        print("\n".join(lines), flush=True)
    return json.loads(lines[-1])


def self_test():
    """The benchmark's own checks: the binary's machinery tests, then one
    short run per workload and mode, checking that every metric
    BENCHMARK.json names is emitted with its unit and every check passes."""
    if subprocess.run([str(BINARY), "--self-test"]).returncode != 0:
        fail("binary self-test failed")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run(workload, 7, 6, trace, echo=False)
            emitted = result["metrics"]
            for metric in listed:
                got = emitted.get(metric["name"])
                if got is None:
                    problems.append(f"{workload}/trace{trace}: {metric['name']} not emitted")
                elif got["unit"] != metric["unit"]:
                    problems.append(f"{workload}/trace{trace}: {metric['name']} unit "
                                    f"{got['unit']} != {metric['unit']}")
            extra = set(emitted) - {m["name"] for m in listed}
            if extra:
                problems.append(f"{workload}/trace{trace}: unlisted metrics {sorted(extra)}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{workload}/trace{trace}: {result['failed']} failed checks")
            print(f"{workload} trace={trace}: {len(emitted)} metrics, "
                  f"{result['attempted']} checks, {result['failed']} failed", flush=True)
    for problem in problems:
        print("FAIL " + problem)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["stream", "profile"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    build()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    run(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
