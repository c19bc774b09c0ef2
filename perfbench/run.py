#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload report --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (which compiles the
mlpsim library from src/) into $CARGO_TARGET_DIR or .bench_build, runs
the benchmark binary and relays its output; the last line of standard
output is the result object. It also keeps the deterministic work
counters of every (binary, workload, seed, seconds, trace) it has run
and marks the result incorrect when a rerun's counters differ.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["report", "pod_explain"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds 1..120")
    return args


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"mlpsim sources not found under {ROOT / 'src'}")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(cmd))
    return build_dir / "perfbench"


def revision():
    """The git revision, or a digest of src/ when there is no .git."""
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def check_counters(build_dir, binary, args, counters):
    """Compare with the counters of an earlier run of the same inputs."""
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    state = build_dir / "counters" / digest
    state.mkdir(parents=True, exist_ok=True)
    path = state / f"{args.workload}-{args.seed}-{args.seconds}-{args.trace}.json"
    text = json.dumps(counters, sort_keys=True)
    if path.is_file():
        if path.read_text() != text:
            before = json.loads(path.read_text())
            diff = sorted(k for k in set(before) | set(counters)
                          if before.get(k) != counters.get(k))
            print("# PROBLEM: deterministic counters differ from an earlier "
                  "run with the same seed: " + ", ".join(diff[:10]))
            return False
        return True
    path.write_text(text)
    return True


def main():
    args = parse_args()
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    binary = build(build_dir)
    env = dict(os.environ, PERFBENCH_REVISION=revision())
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(build_dir / "work")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"benchmark exited with code {done.returncode}")

    lines = done.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
        if line.startswith('{"counters":'):
            if not check_counters(build_dir, binary, args,
                                  json.loads(line)["counters"]):
                result["correct"] = False
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
