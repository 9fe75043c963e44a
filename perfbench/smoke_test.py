#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Run from the repository root. Runs every workload of BENCHMARK.json at smoke
size (--smoke 1), end to end and traced, and checks the printed result: the
gates pass, every metric of the matching BENCHMARK.json table is present with
its unit, and end-to-end values are finite and non-zero. Exits non-zero on
the first failure.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d" % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, table in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = "%s --trace %d" % (workload, trace)
            try:
                result = run(workload, trace)
                assert result["correct"] and result["failed"] == 0, result
                assert result["attempted"] >= 1, result
                metrics = result["metrics"]
                assert set(metrics) == {m["name"] for m in table}, sorted(metrics)
                for m in table:
                    got = metrics[m["name"]]
                    assert got["unit"] == m["unit"], (m["name"], got)
                    assert math.isfinite(got["value"]), (m["name"], got)
                    if trace == 0:
                        assert got["value"] != 0, (m["name"], got)
                print("ok   " + label)
            except (AssertionError, ValueError, KeyError,
                    subprocess.TimeoutExpired) as err:
                failures += 1
                print("FAIL %s: %s" % (label, err))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
