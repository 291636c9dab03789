#!/usr/bin/env python3
"""Smoke test of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/smoke_test.py

Builds the benchmark, runs every workload once at tiny scale with tracing
off and on, and asserts that every metric BENCHMARK.json names is printed
with its unit and that the run's checks pass. Then runs each workload
against a deliberately wrong reference digest and asserts the run fails,
so the correctness checks cannot pass vacuously.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["campaign_paper", "campaign_small", "evolve_sharded", "serve_jobs"]
TINY = ("--tiny",)


def main():
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    binary, ompfuzz = run.build()
    failures = []

    def fail(msg):
        print(f"FAIL: {msg}")
        failures.append(msg)

    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run.run_once(binary, ompfuzz, workload, 1, 1, trace, TINY)
            label = f"{workload} --trace {trace}"
            if code != 0 or not lines:
                fail(f"{label}: exit {code}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{label}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0:
                fail(f"{label}: correct={result['correct']} failed={result['failed']}")
            if result["attempted"] < 1:
                fail(f"{label}: attempted {result['attempted']}")
            got = result["metrics"]
            for name, unit in want[trace].items():
                if name not in got:
                    fail(f"{label}: metric {name} missing")
                elif got[name]["unit"] != unit:
                    fail(f"{label}: {name} unit {got[name]['unit']!r}, expected {unit!r}")
                elif not isinstance(got[name]["value"], (int, float)):
                    fail(f"{label}: {name} value {got[name]['value']!r}")
            extra = set(got) - set(want[trace])
            if extra:
                fail(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
            if trace == 0:
                # A one-second tiny run may find no outlier at all; every
                # other end-to-end metric measures work that always happens.
                zero = [n for n, m in got.items()
                        if m["value"] <= 0 and n != "outliers_per_s"]
                if zero:
                    fail(f"{label}: end-to-end metrics not positive: {zero}")
            print(f"ok   {label}: {len(got)} metrics")

        code, lines = run.run_once(binary, ompfuzz, workload, 1, 1, 0,
                                   TINY + ("--corrupt-reference",))
        result = json.loads(lines[-1]) if lines else {}
        if code == 0 or result.get("correct") is not False or result.get("failed", 0) < 1:
            fail(f"{workload}: a wrong reference digest did not fail the run (exit {code})")
        else:
            print(f"ok   {workload}: wrong reference digest fails the run (exit {code})")

    if failures:
        print(f"{len(failures)} failure(s)")
        sys.exit(1)
    print("smoke test passed")


if __name__ == "__main__":
    main()
