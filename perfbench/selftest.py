#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale. Run from the repository root:

    python3 perfbench/selftest.py

It checks that
  - every workload prints every end-to-end metric BENCHMARK.json lists,
    each with its unit, and records all the metrics that apply to it
    with unit and sample count;
  - the traced run prints every per-layer metric BENCHMARK.json lists
    and reports each other per-layer metric or why it is absent;
  - a corrupted result-store entry trips the correctness check;
  - a golden fingerprint mismatch trips the correctness check;
  - a result records (as source_key) the tree its binary was built
    from, and setup_s
    is a median over several processes;
  - compare.py claims a gain from seed pairs only when the runs were
    paired, and not from two unpaired sets that overlap.
Each failing case is named; the exit status is 1 if any failed.
"""

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402
import run  # noqa: E402  (metric tables shared with the runner)

SCRATCH = os.path.join(".bench_work", "selftest")
TINY = ["--seconds", "0", "--scale", "0.05", "--seed", "7"]


def bench(workload, *extra):
    out = os.path.join(SCRATCH, "results.jsonl")
    if os.path.exists(out):
        os.remove(out)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--out", out] + TINY + list(extra),
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines else None
    record = None
    if os.path.exists(out):
        with open(out) as f:
            record = json.loads(f.readline())
    return proc.returncode, last, record, proc.stdout


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    os.makedirs(SCRATCH, exist_ok=True)
    failures = []

    def expect(cond, what):
        print("%s  %s" % ("ok    " if cond else "FAILED", what))
        if not cond:
            failures.append(what)

    for w in run.WORKLOADS:
        code, last, rec, _ = bench(w, "--trace", "0")
        expect(code == 0 and last and last["correct"], "%s runs clean" % w)
        expect(rec and rec["provenance"]["source_key"] ==
               run.source_key(run.ROOT),
               "%s records the tree its binary was built from" % w)
        expect(rec and rec["metrics"]["setup_s"]["n"] >= run.SETUP_MIN,
               "%s takes setup_s over at least %d processes"
               % (w, run.SETUP_MIN))
        if not last or not rec:
            continue
        for m in spec["end_to_end"]:
            got = last["metrics"].get(m["name"])
            expect(got is not None and got["unit"] == m["unit"]
                   and isinstance(got["value"], (int, float)),
                   "%s prints %s [%s]" % (w, m["name"], m["unit"]))
        for name, (unit, where, _) in run.END_TO_END.items():
            if w in where:
                got = rec["metrics"].get(name)
                expect(got is not None and got["unit"] == unit
                       and got["n"] >= 1,
                       "%s records %s [%s] with n" % (w, name, unit))

        code, last, rec, _ = bench(w, "--trace", "1")
        expect(code == 0 and last and last["correct"],
               "%s traced run clean" % w)
        if not last or not rec:
            continue
        for m in spec["per_layer"]:
            got = last["metrics"].get(m["name"])
            expect(got is not None and got["unit"] == m["unit"],
                   "%s traced prints %s [%s]" % (w, m["name"], m["unit"]))
        for name in run.LAYER_UNITS:
            expect(name in rec["layers"] or name in rec["absent"],
                   "%s traced reports %s or why it is absent" % (w, name))
        expect(rec["self_s"].get("session.measure", 0) > 0,
               "%s traced reports self time" % w)

    code, last, rec, _ = bench("fig_sweep", "--inject",
                               "corrupt_result_entry")
    expect(code != 0 and last and not last["correct"] and last["failed"] > 0,
           "a corrupted result-store entry fails the run")
    expect(rec is not None and any(
        c["name"] == "warm_serves_every_point_from_store" and not c["ok"]
        for c in rec["checks"]), "... through the warm-pass store check")

    golden = os.path.join(SCRATCH, "fingerprints.txt")
    with open("tests/golden/fingerprints.txt") as src, \
            open(golden, "w") as dst:
        for line in src:
            if line.strip() and not line.startswith("#"):
                key, hexfp = line.split()
                line = "%s %016x\n" % (key, int(hexfp, 16) ^ 1)
            dst.write(line)
    code, last, rec, _ = bench("single_core", "--golden", golden)
    expect(code != 0 and last and not last["correct"],
           "a golden fingerprint mismatch fails the run")

    # Every NEW run is 8 higher than the BASE run of its seed, but the
    # two sets overlap: only pairs run side by side may show the gain.
    base = [100.0 + i for i in range(10)]
    new = [v + 8 for v in base]
    expect(compare.verdict(base, new, "higher", 0.15, []) == "unchanged",
           "compare.py claims no gain from overlapping unpaired sets")
    expect(compare.verdict(base, new, "higher", 0.15,
                           list(zip(base, new))) == "better",
           "compare.py claims the gain from pairs that all win")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
