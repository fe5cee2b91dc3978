#!/usr/bin/env python3
"""Self-test of the benchmark's exactly-once audit and input determinism.

Run from the root of a checkout:

    python3 e2ebench/selftest.py

It makes short runs through run.py and checks that
  1. a clean run passes the audit (exit 0, failed == 0);
  2. a dropped delivery (--inject drop) is caught: exit 1, failed > 0;
  3. a corrupted delivery (--inject corrupt) is caught the same way;
  4. the same seed gives the same input digest, another seed another.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run(seed, *extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "smallfile_fanout", "--seed",
         str(seed), "--seconds", "1", "--trace", "0", *extra],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    meta = next((json.loads(l[5:]) for l in lines if l.startswith("meta ")),
                None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, meta, result


def main():
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    code, meta, result = run(7)
    check(code == 0 and result is not None and result["failed"] == 0
          and result["correct"], "clean run passes the audit")
    for fault in ("drop", "corrupt"):
        code, _, bad = run(7, "--inject", fault)
        check(code != 0 and bad is not None and bad["failed"] > 0
              and not bad["correct"], f"injected {fault} is caught")
    _, meta2, _ = run(7)
    _, meta3, _ = run(8)
    check(meta is not None and meta2 is not None
          and meta["input_digest"] == meta2["input_digest"],
          "same seed, same input digest")
    check(meta is not None and meta3 is not None
          and meta["input_digest"] != meta3["input_digest"],
          "another seed, another input digest")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
