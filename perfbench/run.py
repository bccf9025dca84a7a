#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck

Run from the repository root. The driver binary is built from ../src and
this directory with CMake into $CARGO_TARGET_DIR (default .bench_build),
which also holds scratch files and the Chrome trace-event files of traced
runs. The last line of standard output is the result JSON object.

--selfcheck runs every workload twice untraced and twice traced at a tiny
size with one seed and checks that the result checksums and the exact
counts repeat, and that every traced replay reproduced its query.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("spill_stream_join", "indexed_refine", "service_windows")
RUN_TIMEOUT_S = 170

# Counts that must repeat exactly between two runs with one seed.
EXACT_UNTRACED = {"spill_stream_join": ["modeled_io_s_per_query"],
                  "indexed_refine": ["modeled_io_s_per_query"],
                  "service_windows": []}
EXACT_TRACED_ALL = ["sort.runs", "sort.merge_passes",
                    "join.candidates_per_query"]
EXACT_TRACED_SINGLE_CLIENT = ["io.pages_read_per_query",
                              "io.pages_written_per_query"]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_base():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base if base.is_absolute() else ROOT / base


def build(base):
    """Configures and builds the driver; returns its path or None."""
    build_dir = base / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(base / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "-j", "4",
                      "--target", "perfbench_driver"])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT, text=True)
            except OSError as e:
                log(f"cannot run {cmd[0]}: {e}")
                return None
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                log("build failed")
                return None
    binary = build_dir / "perfbench_driver"
    return binary if binary.exists() else None


def run_driver(binary, base, args, extra=()):
    """Runs the driver; returns (exit code, stdout lines)."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", str(base / "tmp"), *extra]
    if str(args.trace) == "1":
        traces = base / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"driver exceeded {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, out.splitlines()


def parse(lines):
    detail = {}
    for line in lines:
        if line.startswith('{"detail"'):
            detail = json.loads(line)["detail"]
    return detail, json.loads(lines[-1])


def selfcheck(binary, base):
    ok = True
    for workload in WORKLOADS:
        runs = {}
        for trace in ("0", "1"):
            for attempt in (0, 1):
                args = argparse.Namespace(workload=workload, seed=7,
                                          seconds=1, trace=trace)
                code, lines = run_driver(binary, base, args,
                                         ["--scale", "0.05", "--setups", "1"])
                if code != 0 or not lines:
                    log(f"{workload} trace={trace}: driver exited {code}")
                    return False
                runs[(trace, attempt)] = parse(lines)
        problems = []
        checksums = {d.get("result_checksum") for d, _ in runs.values()}
        if len(checksums) != 1:
            problems.append(f"result checksums differ: {sorted(checksums)}")
        for key, (detail, result) in runs.items():
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"trace={key[0]} run {key[1]}: "
                                f"correct={result['correct']} "
                                f"failed={result['failed']}")
            if detail.get("modeled_io_unstable_queries", "0") != "0":
                problems.append("a query's modeled I/O changed between passes")
        exact = {"0": EXACT_UNTRACED[workload],
                 "1": EXACT_TRACED_ALL + (
                     EXACT_TRACED_SINGLE_CLIENT
                     if workload != "service_windows" else [])}
        for trace, names in exact.items():
            a = runs[(trace, 0)][1]["metrics"]
            b = runs[(trace, 1)][1]["metrics"]
            for name in names:
                if a[name]["value"] != b[name]["value"]:
                    problems.append(f"{name}: {a[name]['value']} != "
                                    f"{b[name]['value']}")
        for p in problems:
            log(f"{workload}: {p}")
        print(f"{workload}: {'ok' if not problems else 'FAILED'} "
              f"(checksum {checksums.pop() if len(checksums) == 1 else '?'})")
        ok = ok and not problems
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=106)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")

    base = build_base()
    binary = build(base)
    if binary is None:
        return 1
    if args.selfcheck:
        return 0 if selfcheck(binary, base) else 1
    code, lines = run_driver(binary, base, args)
    for line in lines:
        print(line)
    if code == 0 and not lines:
        log("driver printed no result")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
