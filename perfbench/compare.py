#!/usr/bin/env python3
"""Compare two benchmark result sets, or run an interleaved A/B pair.

Compare mode (result sets are JSON-lines files written by
`perfbench/run.py --out`):

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

For each workload and end-to-end metric it prints each side's median
and quartiles, the bound and a verdict:

    better      every NEW run beats every BASE run, or (A/B mode only)
                NEW wins at least nine tenths of the seed pairs and its
                median is better by more than BASE's own quartile spread;
    worse       NEW's median is worse than BASE's by more than the bound;
    unchanged   neither, and both spreads are within the bound;
    unresolved  a side's spread is wider than the bound;
    no bound    the metric has no bound (see below).

The bounds of the gated metrics come from BENCHMARK.json. A metric it
does not list gets, per workload, three times its quartile spread in
the committed baseline (results/BENCH_11.jsonl, or --baseline), the
same rule that makes a gated metric steady; "*" marks such a bound.
When that exceeds 0.25, the largest bound BENCHMARK.json may give, the
metric has no bound and gets no verdict.

Two result sets given as files are unpaired: runs of one seed in each
were not taken side by side, and the host drifts between sets. Only
A/B mode pairs runs. It runs `perfbench/run.py` from two checkouts in
pairs, one seed per pair, alternating which side runs first, writes
both sides afresh into DIR/base.jsonl and DIR/new.jsonl, then compares:

    python3 perfbench/compare.py --ab BASE_DIR NEW_DIR --pairs 10 \\
        --seconds 30 [--workloads single_core,fig_sweep] [--out DIR]

Exit status: 1 when any metric is worse, else 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The largest bound BENCHMARK.json may give a metric.
MAX_BOUND = 0.25
# Which way is better for the metrics BENCHMARK.json does not list.
UNGATED_BETTER = {
    "sim_mips_raw": "higher",
    "setup_s_raw": "lower",
    "cold_sweep_s": "lower",
    "ckpt_sweep_s": "lower",
    "warm_sweep_s": "lower",
    "hermes_gain_pct": "higher",
    "failed_frac": "lower",
}


def load_bounds(bench_path):
    """Gated metric -> (better, bound) from BENCHMARK.json."""
    with open(bench_path) as f:
        spec = json.load(f)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def derived_bound(values):
    """Three times the quartile spread of @p values; None when too wide."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q1 == q3 == 0 else None
    bound = 3 * (q3 - q1) / abs(med)
    return bound if bound <= MAX_BOUND else None


def load_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                rec = json.loads(line)
                if rec.get("trace") == 0 and "metrics" in rec:
                    runs.append(rec)
    return runs


def metric_values(runs, name):
    return [r["metrics"][name]["value"] for r in runs
            if name in r["metrics"]]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, better, bound, pairs):
    """Judge NEW against BASE for one metric (lists of values).

    @p pairs holds (base, new) values of one seed each, run side by
    side; it is empty for unpaired sets. @p bound None means no bound.
    """
    sign = 1 if better == "higher" else -1
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    if pairs and all(b == n for b, n in pairs):
        return "unchanged"  # a deterministic value, equal seed for seed
    if bound is None:
        return "no bound"
    if bm == 0:
        return "unchanged" if nm == 0 else ("better" if sign * nm > 0
                                            else "worse")
    if min(sign * v for v in new) > max(sign * v for v in base):
        return "better"
    spread = max((b3 - b1) / abs(bm), (n3 - n1) / abs(nm) if nm else 0)
    gain = sign * (nm - bm) / abs(bm)
    if spread > bound and bound > 0:
        return "unresolved"
    # Unpaired sets claim a gain only through the every-run test above.
    # Ties count for neither side but stay in the number of pairs run.
    if pairs and gain > 0 and gain * abs(bm) > (b3 - b1):
        wins = sum(sign * (n - b) > 0 for b, n in pairs) / len(pairs)
        if wins >= 0.9:
            return "better"
    if -gain > bound:
        return "worse"
    return "unchanged"


def compare(base_runs, new_runs, bounds, baseline_runs, paired):
    """Prints the comparison; returns the number of worse verdicts.

    @p paired is true only for the two sets one A/B invocation wrote.
    """
    worse = 0
    workloads = sorted({r["workload"] for r in base_runs}
                       & {r["workload"] for r in new_runs})
    names = list(bounds) + [k for k in UNGATED_BETTER if k not in bounds]
    print("%-12s %-16s %-34s %-34s %8s %7s  %s" % (
        "workload", "metric", "base median [q1, q3] (n)",
        "new median [q1, q3] (n)", "delta", "bound", "verdict"))
    for w in workloads:
        b_runs = [r for r in base_runs if r["workload"] == w]
        n_runs = [r for r in new_runs if r["workload"] == w]
        by_seed_b = {r["provenance"]["seed"]: r for r in b_runs}
        by_seed_n = {r["provenance"]["seed"]: r for r in n_runs}
        seeds = sorted(set(by_seed_b) & set(by_seed_n)) if paired else []
        for name in names:
            b = metric_values(b_runs, name)
            n = metric_values(n_runs, name)
            if not b or not n:
                continue
            if name in bounds:
                better, bound = bounds[name]
                shown = "%.3g" % bound
            else:
                better = UNGATED_BETTER[name]
                ref = metric_values([r for r in baseline_runs
                              if r["workload"] == w], name)
                bound = derived_bound(ref) if ref else None
                shown = "-" if bound is None else "%.3g*" % bound
            pairs = [(by_seed_b[s]["metrics"][name]["value"],
                      by_seed_n[s]["metrics"][name]["value"])
                     for s in seeds if name in by_seed_b[s]["metrics"]
                     and name in by_seed_n[s]["metrics"]]
            v = verdict(b, n, better, bound, pairs)
            worse += v == "worse"
            bq, nq = quartiles(b), quartiles(n)
            delta = (nq[1] - bq[1]) / abs(bq[1]) * 100 if bq[1] else 0.0
            print("%-12s %-16s %-34s %-34s %+7.2f%% %7s  %s" % (
                w, name,
                "%.5g [%.5g, %.5g] (%d)" % (bq[1], bq[0], bq[2], len(b)),
                "%.5g [%.5g, %.5g] (%d)" % (nq[1], nq[0], nq[2], len(n)),
                delta, shown, v))
    return worse


def run_side(checkout, workload, seed, seconds, out):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--out", out]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=900)
    if proc.returncode != 0:
        print("warning: %s %s seed %d exited %d" % (
            checkout, workload, seed, proc.returncode), file=sys.stderr)


def ab(args):
    os.makedirs(args.out, exist_ok=True)
    out_a = os.path.abspath(os.path.join(args.out, "base.jsonl"))
    out_b = os.path.abspath(os.path.join(args.out, "new.jsonl"))
    for path in (out_a, out_b):
        open(path, "w").close()  # pair only this invocation's runs
    sides = [(os.path.abspath(args.ab[0]), out_a),
             (os.path.abspath(args.ab[1]), out_b)]
    for i in range(args.pairs):
        seed = args.seed + i
        order = sides if i % 2 == 0 else sides[::-1]
        for w in args.workloads.split(","):
            for checkout, out in order:
                run_side(checkout, w, seed, args.seconds, out)
        print("pair %d/%d done (seed %d, %s first)" % (
            i + 1, args.pairs, seed, "base" if i % 2 == 0 else "new"),
            file=sys.stderr)
    return out_a, out_b


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("sets", nargs="*", help="BASE.jsonl NEW.jsonl")
    ap.add_argument("--ab", nargs=2, metavar=("BASE_DIR", "NEW_DIR"))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default="single_core,eight_core,fig_sweep")
    ap.add_argument("--out", default=".bench_out/ab")
    ap.add_argument("--bench", default=os.path.join(HERE, "..",
                                                    "BENCHMARK.json"))
    ap.add_argument("--baseline", default=os.path.join(HERE, "results",
                                                       "BENCH_11.jsonl"),
                    help="result set the ungated metrics' bounds come from")
    args = ap.parse_args()
    if args.ab:
        base, new = ab(args)
    elif len(args.sets) == 2:
        base, new = args.sets
    else:
        ap.error("give two result sets, or --ab BASE_DIR NEW_DIR")
    worse = compare(load_runs(base), load_runs(new), load_bounds(args.bench),
                    load_runs(args.baseline), paired=bool(args.ab))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
