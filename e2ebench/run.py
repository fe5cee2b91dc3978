#!/usr/bin/env python3
"""Builds and runs the Bistro end-to-end benchmark for one workload.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload smallfile_fanout --seed 1 \
        --seconds 10 --trace 0 [--out results/a]

The bistro_e2e binary is built from source (CMake, Release) under the build
directory ($CARGO_TARGET_DIR, default .bench_build). The run's files live
in a work directory under the build directory; afterwards their bytes are
freed and the empty files stay (see README.md).

Output: the binary's report, one `meta {...}` line (seed, input digest,
commit, build type, nproc, kernel), and as the last line one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list. Exit code 0 only when the exactly-once audit passed.
--out DIR also writes the whole record to DIR for compare.py.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_root):
    """Configures (once) and builds bistro_e2e; returns its path."""
    build_dir = os.path.join(build_root, "e2ebench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "bistro_e2e")


def scrub(work):
    """Truncates every file under `work` but keeps the files: mass unlinks
    slow file creation in the runs that follow (see README.md)."""
    for dirpath, _, filenames in os.walk(work):
        for name in filenames:
            try:
                os.truncate(os.path.join(dirpath, name), 0)
            except OSError:
                pass


def source_digest():
    """sha256 over the program and benchmark sources (the checkout may not
    be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="directory to write the result record to")
    p.add_argument("--inject", choices=("drop", "corrupt"),
                   help="audit self-test: lose or corrupt one delivery")
    args = p.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    work = os.path.join(build_root, "work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        scrub(work)
        return 1
    if proc.returncode != 0:
        scrub(work)  # bistro_e2e frees the bytes itself when it succeeds
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    result = None
    for line in lines:
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        log(f"no result (exit code {proc.returncode})")
        return 1

    table = result["layers"] if args.trace else result["e2e"]
    metrics = {}
    for m in wanted:
        if m["name"] not in table:
            log(f"metric {m['name']} missing from the run's output")
            return 1
        metrics[m["name"]] = {"value": table[m["name"]]["value"],
                              "unit": m["unit"]}
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "input_digest": result["digest"], "commit": git_commit(),
        "source_digest": source_digest(), "build_type": "Release",
        "nproc": os.cpu_count(), "kernel": platform.release(),
    }
    final = {"correct": result["correct"], "attempted": result["attempted"],
             "failed": result["failed"], "metrics": metrics}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
        with open(os.path.join(args.out, name), "w") as f:
            json.dump({"meta": meta, "result": final,
                       "all": {"e2e": result["e2e"],
                               "layers": result["layers"]}}, f, indent=1)
    print("meta " + json.dumps(meta))
    print(json.dumps(final), flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
