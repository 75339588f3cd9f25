#!/usr/bin/env python3
"""Repository benchmark: build perfbench from this checkout, run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: erosion_pool4, erosion_ranks4, serve_mixed (see
perfbench/README.md). The first run configures and builds the libraries and
the benchmark binary in Release mode under .bench_build/; later runs reuse
the build.

Prints a stamp line, the binary's summary lines and, as the last line of
standard output, one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are BENCHMARK.json's end_to_end
metrics, with --trace 1 its per_layer metrics; a traced run also writes a
Chrome trace-event file under .bench_build/traces/. Exits 0 only when every
checked output was correct; exits non-zero without a result when the source
tree or the build is missing or unusable.

Self-test knob: --reference-seed N checks against another seed's reference
(the oracle must then fail every operation).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
WORKLOADS = ("erosion_pool4", "erosion_ranks4", "serve_mixed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--reference-seed", type=int)
    return p.parse_args()


def run_logged(cmd, log, timeout):
    with open(log, "ab") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False).returncode


def build():
    """Configure (once) and build the benchmark binary; returns its path.
    The binary itself refuses to report timings from a build without
    optimization or with sanitizers."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no source tree to build (CMakeLists.txt, src/)")
    if shutil.which("cmake") is None:
        fail("cmake is not on PATH")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if run_logged(configure, log, BUILD_TIMEOUT_S) != 0:
            shutil.rmtree(BUILD_DIR / "CMakeFiles", ignore_errors=True)
            (BUILD_DIR / "CMakeCache.txt").unlink(missing_ok=True)
            fail(f"configure failed; see {log}")
    jobs = str(min(4, os.cpu_count() or 1))
    remaining = max(1.0, deadline - time.monotonic())
    if run_logged(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                   "-j", jobs], log, remaining) != 0:
        fail(f"build failed; see {log}")
    return BUILD_DIR / "perfbench"


def source_digest():
    """sha256 over the program's sources: identifies the code in a checkout
    that is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True, check=False)
    return r.stdout.strip() or None


def check_metrics(metrics, traced):
    """Every metric BENCHMARK.json declares for this mode, with its unit,
    and nothing else."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if traced else "end_to_end"]}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        wrong = sorted(n for n in set(got) & set(declared)
                       if got[n] != declared[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}, wrong unit {wrong}")


def main():
    args = parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    binary = build()
    traced = args.trace == "1"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.reference_seed is not None:
        cmd += ["--reference-seed", str(args.reference_seed)]
    if traced:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(TRACE_DIR / f"{args.workload}-seed{args.seed}.json")]

    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"perfbench exited with code {proc.returncode}", 3)
    result = json.loads(lines[-1])
    check_metrics(result["metrics"], traced)

    stamp = dict(result["stamp"])
    stamp.update(commit=git_commit(), source_sha256=source_digest())
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    for line in lines[:-1]:
        print(line)
    for name, m in sorted(result["metrics"].items()):
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
