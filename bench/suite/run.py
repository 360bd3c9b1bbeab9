#!/usr/bin/env python3
"""rr-bench runner: builds the benchmark from source and runs workloads.

    python3 bench/suite/run.py --workload http_small --seed 1 --seconds 20 --trace 0
    python3 bench/suite/run.py --workload all --seed 1 --runs 5 --out DIR

Each run is a fresh process of build-rel/bench/rr_bench (RelWithDebInfo,
configured from bench/suite/CMakeLists.txt on first use). The last stdout
line is the run's JSON result; build output and the human-readable summary
go to stderr. With --workload all, every workload runs for every seed and
the last line aggregates them (metrics keyed "<workload>/<metric>").
--out DIR also writes each result to DIR/<workload>.seed<N>.trace<T>.json,
the layout compare.py reads. Unknown arguments (--smoke, --corrupt) pass
through to the binary. The exit code is non-zero when the build fails, a
run fails, or any output is wrong.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
BUILD = ROOT / "build-rel" / "bench"
BINARY = BUILD / "rr_bench"
OUT = BUILD / "out"


def log(message):
    print(message, file=sys.stderr, flush=True)


def call(command, env, stdout, timeout=None):
    """Runs `command` in its own process group; returns (exit code, stdout).

    On a timeout or any exception (SIGTERM included) the whole group is
    killed and reaped, so no compiler or benchmark process outlives us.
    """
    with subprocess.Popen(command, stdout=stdout, text=True, env=env,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    return proc.returncode, out


def build(env):
    """Configures (once) and builds rr_bench; False when either fails."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"rr-bench: no Roadrunner sources under {ROOT}; nothing to build")
        return False
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    OUT.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT / "bench" / "suite"), "-B",
                     str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if call(configure, env, sys.stderr)[0] != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", str(BUILD), "--target", "rr_bench", "-j",
               jobs]
    return call(command, env, sys.stderr)[0] == 0


def run_one(workload, seed, seconds, trace, extra, env):
    """Runs one workload in a fresh process; returns (exit code, result)."""
    command = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
               f"--seconds={seconds}", f"--trace={trace}"] + extra
    if trace:
        command.append(f"--trace-out={OUT / (workload + '.trace.json')}")
    try:
        code, out = call(command, env, subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"rr-bench: {workload} seed {seed} exceeded {RUN_TIMEOUT_S}s")
        return 1, None
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        log(f"rr-bench: {workload} seed {seed} printed no result (exit {code})")
        return code or 1, None
    return code, result


def main():
    # SIGTERM becomes SystemExit, which call() turns into killing its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="seeds seed..seed+runs-1, one process each")
    parser.add_argument("--out", type=Path,
                        help="directory for per-run result files")
    args, extra = parser.parse_known_args()

    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    if not build(env):
        log("rr-bench: build failed")
        return 2

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    exit_code = 0
    for seed in range(args.seed, args.seed + args.runs):
        for workload in workloads:
            code, result = run_one(workload, seed, args.seconds, args.trace,
                                   extra, env)
            if code != 0 or result is None:
                exit_code = code or 1
            if result is None:
                continue
            results.append((workload, seed, result))
            if args.out:
                args.out.mkdir(parents=True, exist_ok=True)
                name = f"{workload}.seed{seed}.trace{args.trace}.json"
                (args.out / name).write_text(json.dumps(result) + "\n")

    if len(results) == 1 and args.runs == 1:
        print(json.dumps(results[0][2]))
    elif results:
        merged = {"correct": all(r["correct"] for _, _, r in results),
                  "attempted": sum(r["attempted"] for _, _, r in results),
                  "failed": sum(r["failed"] for _, _, r in results),
                  "metrics": {}}
        for workload, seed, result in results:
            for name, metric in result["metrics"].items():
                key = f"{workload}/{name}"
                if args.runs > 1:
                    key += f"/seed{seed}"
                merged["metrics"][key] = metric
        print(json.dumps(merged))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
