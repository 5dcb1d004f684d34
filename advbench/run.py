#!/usr/bin/env python3
"""Builds and runs the advisor benchmark (see advbench/NOTES.md).

One workload, as BENCHMARK.json's command runs it (from the repo root):

    python3 advbench/run.py --workload apb800-m32 --seed 1 --seconds 10 --trace 0

prints the run's metrics and, as the last line, one JSON object with the
keys correct, attempted, failed and metrics.

Every workload, untraced and traced, with a summary table and the results
in dblayout_report's {"bench", "records": [{"case", ...}]} shape:

    python3 advbench/run.py --all --seed 1 --seconds 10 [--records FILE]

The binary is built from the repository's sources into
$CARGO_TARGET_DIR/advbench (default .bench_build/advbench).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["apb800-m32", "sales45-m32", "serve-tpch-m8"]
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "advbench")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("advbench: no src/CMakeLists.txt next to advbench/; "
                 "run from a full checkout of the repository")
    out = build_dir()
    log = sys.stderr
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=log, stderr=log, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "advbench", "-j", jobs],
                   stdout=log, stderr=log, check=True)
    return os.path.join(out, "advbench")


def run_binary(binary, args):
    """Runs the binary; returns (stdout text, parsed result of its last line)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.exit(f"advbench: binary exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return proc.stdout, json.loads(lines[-1])


def binary_args(workload, args, trace):
    """Arguments of one binary run; traced runs write their spans under
    the build directory."""
    argv = ["--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.gen_seed is not None:
        argv += ["--gen-seed", str(args.gen_seed)]
    if trace == 1:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        argv += ["--trace-out",
                 os.path.join(traces, f"{workload}-seed{args.seed}.json")]
    return argv


def run_all(args, binary):
    records = []
    rows = []
    for workload in WORKLOADS:
        record = {"case": workload}
        higher = {}
        for trace in (0, 1):
            text, result = run_binary(binary, binary_args(workload, args, trace))
            sys.stderr.write(text)
            threads = int(text.split("threads=", 1)[1].split()[0])
            key = "ops" if trace == 0 else "trace_ops"
            record[key] = result["attempted"]
            record[key + "_failed"] = result["failed"]
            record["threads"] = threads
            for name, m in result["metrics"].items():
                rows.append((workload, name, m["value"], m["unit"]))
                # dblayout_report --compare gates top-level numbers whose key
                # ends in _ms/_s or contains "cost" as lower-is-better; keep
                # higher-is-better metrics out of its reach (the benchmark's
                # own bounds gate them).
                if name == "stmts_per_s":
                    higher[name] = m["value"]
                else:
                    record[name] = m["value"]
            label = "ops attempted/failed" + (" (traced)" if trace else "")
            rows.append((workload, label,
                         f'{result["attempted"]}/{result["failed"]}', ""))
        rows.append((workload, "threads", threads, ""))
        record["higher_is_better"] = higher
        records.append(record)
    width = max(len(r[1]) for r in rows)
    for workload, name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{workload:14} {name:{width}} {shown:>14} {unit}")
    path = args.records or os.path.join(build_dir(), "BENCH_advbench.json")
    with open(path, "w") as f:
        json.dump({"bench": "advbench", "records": records}, f, indent=1)
    print(f"records written to {path}")
    failed = sum(r.get("ops_failed", 0) + r.get("trace_ops_failed", 0)
                 for r in records)
    return 1 if failed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--gen-seed", type=int,
                   help="override the APB-800/SALES-45 generator seed")
    p.add_argument("--records", help="--all: where to write the records JSON")
    args = p.parse_args()
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    binary = build()
    if args.all:
        return run_all(args, binary)
    text, _ = run_binary(binary, binary_args(args.workload, args, args.trace))
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
