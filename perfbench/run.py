#!/usr/bin/env python3
"""Build and run the ompfuzz benchmark from the root of a checkout.

One run (the last stdout line is the JSON result; exit code 0 only when
every correctness check passed):

    python3 perfbench/run.py --workload campaign_small --seed 1 --seconds 15 --trace 0

Repeat mode: run one workload on consecutive seeds, print each metric's
median and quartiles, and flag every end-to-end metric whose spread
(interquartile range over median) exceeds its bound in BENCHMARK.json:

    python3 perfbench/run.py --repeat 10 --workload serve_jobs --seed 1 --out a.json

Compare two repeat-mode result files: flag every end-to-end metric whose
median in the second file is worse than in the first by more than its
bound:

    python3 perfbench/run.py --compare a.json b.json

The benchmark builds itself (`cargo build --release --offline`) into
`$CARGO_TARGET_DIR`, or `.bench_build` when that is unset.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Build the `perfbench` binary and the `ompfuzz` worker binary."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST,
           "-p", "ompfuzz-perfbench", "-p", "ompfuzz-report", "--bins"]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(3)
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "ompfuzz")


def run_once(binary, ompfuzz, workload, seed, seconds, trace, extra=()):
    """Run the `perfbench` binary once. Returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--ompfuzz", ompfuzz, *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"perfbench: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s")
        return 124, []
    return proc.returncode, out.splitlines()


def load_bounds():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def repeat(args):
    binary, ompfuzz = build()
    bounds = load_bounds()
    runs = []
    for i in range(args.repeat):
        seed = args.seed + i
        code, lines = run_once(binary, ompfuzz, args.workload, seed,
                               args.seconds, args.trace)
        if code != 0 or not lines:
            log(f"perfbench: {args.workload} seed {seed} failed (exit {code})")
            sys.exit(1)
        result = json.loads(lines[-1])
        runs.append({"seed": seed, **result})
        log(f"  seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            if args.trace or k in bounds))
    flagged = []
    print(f"{args.workload}: {len(runs)} runs, seeds {args.seed}..{args.seed + len(runs) - 1}")
    print(f"  {'metric':<30} {'unit':<7} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, s = spread(values)
        bound = bounds.get(name, {}).get("bound") if not args.trace else None
        flag = ""
        if bound is not None and name != "setup_s" and s > bound:
            flag = "  FLAG: spread exceeds bound"
            flagged.append(name)
        elif bound is not None and s > bound / 3:
            flag = "  (above a third of the bound)"
        shown = f"{bound:>6}" if bound is not None else f"{'-':>6}"
        print(f"  {name:<30} {first['unit']:<7} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {s:>8.4f} {shown}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace, "runs": runs}, f, indent=1)
    sys.exit(1 if flagged else 0)


def compare(paths):
    bounds = load_bounds()
    sets = []
    for p in paths:
        with open(p) as f:
            sets.append(json.load(f))
    a, b = sets
    flagged = []
    print(f"{a['workload']}: {paths[0]} vs {paths[1]}")
    for name, spec in bounds.items():
        ma = statistics.median(r["metrics"][name]["value"] for r in a["runs"])
        mb = statistics.median(r["metrics"][name]["value"] for r in b["runs"])
        change = (mb - ma) / ma if ma else 0.0
        worse = -change if spec["better"] == "higher" else change
        flag = "  FLAG: worse by more than the bound" if worse > spec["bound"] else ""
        if flag:
            flagged.append(name)
        print(f"  {name:<24} {ma:>14.6g} {mb:>14.6g} {change:>+8.4f} bound {spec['bound']}{flag}")
    sys.exit(1 if flagged else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, help="run on this many consecutive seeds")
    p.add_argument("--out", help="repeat mode: save every run's result here")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = p.parse_args()
    if args.compare:
        return compare(args.compare)
    if not args.workload:
        p.error("--workload is required")
    if args.repeat:
        return repeat(args)
    binary, ompfuzz = build()
    code, lines = run_once(binary, ompfuzz, args.workload, args.seed,
                           args.seconds, args.trace)
    for line in lines:
        print(line)
    sys.exit(code)


if __name__ == "__main__":
    main()
