#!/usr/bin/env python3
"""Run one workload of the simulator benchmark and print its metrics.

    python3 perfbench/run.py --workload single_core|eight_core|fig_sweep \\
        --seed N --seconds S --trace 0|1 [--out results.jsonl]

Run from the repository root. The first run builds perfbench/ (the
simulator sources plus the benchmark program) with CMake into
$CARGO_TARGET_DIR/perfbench-<hash of the checkout's path>, or the same
under .bench_build when that is unset, so each checkout gets its own
binary. The benchmark program makes every input from the seed, repeats the
workload for the given seconds and checks its outputs; this script
turns what it measured into metrics, prints a report and, as the last
line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics BENCHMARK.json
lists, with --trace 1 its per-layer metrics. --out appends the whole
result (every metric, raw samples, checks and provenance) to a JSON
lines file that perfbench/compare.py reads.

Exit status: 0 when every correctness check passed, 1 when one failed
or the build or run broke, 2 on a usage error or when the simulator
sources are missing.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("single_core", "eight_core", "fig_sweep")
# A run must end within 180 s; leave room for the report.
RUN_TIMEOUT_S = 170
# setup_s is the median over separate processes, each timed from its
# spawn to its first simulation: at least SETUP_MIN of them, and more
# while less than SETUP_MIN_S has gone into them, up to SETUP_MAX.
SETUP_MIN = 5
SETUP_MIN_S = 1.0
SETUP_MAX = 25

# Every end-to-end metric: unit, workloads it applies to, meaning.
# BENCHMARK.json lists the ones measured on every workload and steady
# across seeds; the rest are printed and compared but not gated.
END_TO_END = {
    "setup_s": ("s", WORKLOADS,
                "median over processes of process start to first "
                "simulation: registry init, trace resolution, "
                "trace-file capture, store dirs; at the nominal host "
                "speed"),
    "setup_s_raw": ("s", WORKLOADS, "setup_s as measured, not scaled"),
    "sim_mips": ("Minstr/s", WORKLOADS,
                 "median over repetitions of simulated instructions "
                 "per host second at the nominal host speed "
                 "(fig_sweep: cold pass)"),
    "sim_mips_raw": ("Minstr/s", WORKLOADS,
                     "sim_mips as measured, not scaled by host_speed"),
    "host_speed": ("ratio", WORKLOADS,
                   "median host speed against the nominal one, from "
                   "the calibration kernel around each timed section"),
    "cold_sweep_s": ("s", ("fig_sweep",), "median host wall of the cold pass"),
    "ckpt_sweep_s": ("s", ("fig_sweep",), "median host wall of the ckpt pass"),
    "warm_sweep_s": ("s", ("fig_sweep",), "median host wall of the warm pass"),
    "point_s_p50": ("s", WORKLOADS, "median over repetitions of the "
                    "median per-point host seconds at the nominal host "
                    "speed"),
    "point_s_p90": ("s", WORKLOADS, "median over repetitions of the "
                    "p90 per-point host seconds at the nominal host "
                    "speed"),
    "peak_rss_mb": ("MB", WORKLOADS, "peak resident memory of the process"),
    "failed_frac": ("ratio", WORKLOADS,
                    "(failed points + failed checks) / attempted"),
    "ipc": ("instr/cycle", WORKLOADS,
            "simulated geomean per-core IPC, Hermes config"),
    "hermes_gain_pct": ("%", WORKLOADS,
                        "simulated geomean per-core IPC gain of "
                        "Pythia+Hermes over Pythia"),
    "pred_accuracy": ("ratio", WORKLOADS, "simulated POPET accuracy"),
    "pred_coverage": ("ratio", WORKLOADS, "simulated POPET coverage"),
}

# The paper's figure beside each simulated metric. The traces are
# synthetic stand-ins for the paper's, so no error figure is given.
PAPER = {
    "hermes_gain_pct": "paper: +5.4 single-core, +4.5 eight-core",
    "pred_accuracy": "paper: 0.771",
    "pred_coverage": "paper: 0.743",
    "ipc": "paper: none",
}

LAYER_UNITS = {
    "trace.gen_ns_per_instr": "ns", "trace.decode_ns_per_instr": "ns",
    "trace.write_s": "s", "session.build_s": "s", "session.warmup_s": "s",
    "session.measure_s": "s", "session.collect_s": "s",
    "session.snapshot_s": "s", "session.restore_s": "s",
    "session.ckpt_bytes": "bytes", "horizon.ticked_cycles": "count",
    "horizon.skipped_frac": "ratio", "system.ns_per_ticked_cycle": "ns",
    "core.host_s": "s", "l1.host_s": "s", "l2.host_s": "s",
    "llc.host_s": "s", "dram.host_s": "s", "horizon.host_s": "s",
    "profile.overhead_pct": "%", "tracing.overhead_pct": "%",
    "popet.ns_per_load": "ns", "l1.ns_per_access": "ns",
    "dram.ns_per_read": "ns", "l1.load_lookups": "count",
    "llc.load_lookups": "count", "llc.mpki": "miss/kinstr",
    "dram.reads": "count", "dram.bw_util": "ratio",
    "hermes.issued": "count", "hermes.served_rate": "ratio",
    "llc.pf_issued": "count", "llc.pf_useful": "count",
    "sweep.parallel_eff": "ratio", "result_cache.load_ms": "ms",
    "result_cache.store_ms": "ms", "result_cache.hit_frac": "ratio",
    "warmup_cache.load_ms": "ms", "warmup_cache.store_ms": "ms",
    "warmup_cache.restored_frac": "ratio", "journal.append_ms": "ms",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_key(root):
    """Short hash of a source tree's path; names its build directory."""
    return hashlib.sha1(os.path.realpath(root).encode()).hexdigest()[:12]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(base, "perfbench-" + source_key(ROOT))


def build(deadline):
    """Configure once, then build incrementally. Returns the binary."""
    bdir = build_dir()
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.abspath(os.path.join(bdir, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, env=env,
                       timeout=max(1, deadline - time.time()))
    subprocess.run(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True, env=env,
                   timeout=max(1, deadline - time.time()))
    return os.path.join(bdir, "hermes_perfbench")


def cmake_cache(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_rev():
    """HEAD of the checkout's own .git, read directly ("unknown" if none)."""
    try:
        with open(".git/HEAD") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as f:
                return f.read().strip()
        with open(".git/packed-refs") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = "unknown"
    if compiler != "unknown":
        try:
            version = subprocess.run(
                [compiler, "-dumpfullversion"], capture_output=True,
                text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "machine": platform.machine(),
        "compiler": "%s %s" % (os.path.basename(compiler), version),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"), "git_rev": git_rev(),
        "seed": args.seed, "scale": args.scale, "seconds": args.seconds,
        "trace": args.trace, "time": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                   time.gmtime()),
    }


def p90(values):
    """90th percentile, interpolated between the sorted values."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(raw):
    """Every applicable end-to-end metric as (value, sample count)."""
    # Each repetition's median and p90 point, then the median over
    # repetitions. Pooled, eight_core's two clusters of points (the
    # Pythia and the Hermes mix) put the median in the gap between
    # them, and its p90 rests on its two or three slowest points.
    per = len(raw["point_s"]) // len(raw["mips"])
    reps = [raw["point_s"][i:i + per]
            for i in range(0, len(raw["point_s"]), per)]
    rep_p50 = [statistics.median(r) for r in reps]
    rep_p90 = [p90(r) for r in reps]
    m = {
        "setup_s": (statistics.median(raw["setup_s"]), len(raw["setup_s"])),
        "setup_s_raw": (statistics.median(raw["setup_s_raw"]),
                        len(raw["setup_s_raw"])),
        "sim_mips": (statistics.median(raw["mips"]), len(raw["mips"])),
        "sim_mips_raw": (statistics.median(raw["mips_raw"]),
                         len(raw["mips_raw"])),
        "host_speed": (statistics.median(raw["host_speed"]),
                       len(raw["host_speed"])),
        "point_s_p50": (statistics.median(rep_p50), len(rep_p50)),
        "point_s_p90": (statistics.median(rep_p90), len(rep_p90)),
        "peak_rss_mb": (raw["peak_rss_mb"], 1),
    }
    for name, samples in raw["pass_s"].items():
        m[name + "_sweep_s"] = (statistics.median(samples), len(samples))
    for name in ("ipc", "hermes_gain_pct", "pred_accuracy", "pred_coverage"):
        m[name] = (raw["sim"][name], 1)
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full result to this JSONL file")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply every instruction budget (self-test)")
    ap.add_argument("--golden", default="tests/golden/fingerprints.txt")
    ap.add_argument("--inject", default="", help=argparse.SUPPRESS)
    args = ap.parse_args()

    start = time.time()
    deadline = start + RUN_TIMEOUT_S
    for needed in ("src/sim/simulator.hh", "BENCHMARK.json"):
        if not os.path.isfile(needed):
            log("error: %s not found; run from the repository root" % needed)
            return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    try:
        binary = build(start + 900)
    except (OSError, subprocess.SubprocessError) as e:
        log("error: building the benchmark failed: %s" % e)
        return 1
    deadline = max(deadline, time.time() + args.seconds + 60)

    def run_program(setup_only):
        """Runs the benchmark program once; returns (exit code, document)."""
        tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
        work = os.path.join(".bench_work", tag)
        raw_path = work + ".json"
        os.makedirs(".bench_work", exist_ok=True)
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", str(args.scale), "--work", work, "--out", raw_path,
               "--golden", args.golden, "--setup-only", str(int(setup_only))]
        if args.inject:
            cmd += ["--inject", args.inject]
        cmd += ["--start-ns", str(time.monotonic_ns())]
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr,
                                  timeout=max(1, deadline - time.time()))
        except subprocess.TimeoutExpired:
            log("error: %s did not finish in time" % args.workload)
            shutil.rmtree(work, ignore_errors=True)
            return 1, None
        try:
            with open(raw_path) as f:
                return proc.returncode, json.load(f)
        except (OSError, ValueError) as e:
            log("error: no result from the benchmark program (exit %d): %s"
                % (proc.returncode, e))
            return proc.returncode, None
        finally:
            if os.path.exists(raw_path):
                os.remove(raw_path)

    setup_s, setup_s_raw = [], []
    while not args.trace and len(setup_s) < SETUP_MAX - 1 and (
            len(setup_s) < SETUP_MIN - 1 or sum(setup_s_raw) < SETUP_MIN_S):
        code, raw = run_program(True)
        if raw is None or code != 0:
            return 1
        setup_s += raw["setup_s"]
        setup_s_raw += raw["setup_s_raw"]
    code, raw = run_program(False)
    if raw is None:
        return 1
    raw["setup_s"] = setup_s + raw["setup_s"]
    raw["setup_s_raw"] = setup_s_raw + raw["setup_s_raw"]
    root = os.path.realpath(raw["source_root"])
    if root != os.path.realpath(ROOT):
        log("error: the benchmark program was built from %s, not from %s"
            % (root, os.path.realpath(ROOT)))
        return 1

    checks = raw["checks"]
    failed = raw["points_failed"] + sum(not c["ok"] for c in checks)
    attempted = raw["points_attempted"] + len(checks)
    correct = failed == 0 and code == 0
    prov = provenance(args)
    prov["source_key"] = source_key(root)

    print("== perfbench %s  seed %d  %gs  trace %d  (%s, %s, nproc %s) =="
          % (args.workload, args.seed, args.seconds, args.trace, prov["cpu"],
             prov["compiler"], prov["nproc"]))
    for c in checks:
        print("check %-36s %s  %s" % (c["name"], "ok" if c["ok"] else "FAILED",
                                      c["detail"]))
    if raw["journals_identical"] is not None:
        print("note  cold and warm journals byte-identical: %s (not gated; "
              "ROADMAP item 1)" % ("yes" if raw["journals_identical"] else "no"))

    metrics = {}
    if args.trace:
        layers = raw["layers"]
        print("-- per-layer metrics (traced run) --")
        for name in sorted(layers):
            print("  %-28s %14.6g %s" % (name, layers[name],
                                         LAYER_UNITS.get(name, "")))
        for name, why in sorted(raw["absent"].items()):
            print("  %-28s %14s (%s)" % (name, "absent", why))
        print("-- self time per span (s) --")
        for name, s in sorted(raw["self_s"].items(), key=lambda kv: -kv[1]):
            print("  %-28s %14.6f" % (name, s))
        if raw["spans"] and os.path.exists(raw["spans"]):
            os.makedirs(".bench_out", exist_ok=True)
            dest = os.path.join(".bench_out", "spans-%s-%d.jsonl"
                                % (args.workload, args.seed))
            shutil.move(raw["spans"], dest)
            print("spans written to %s" % dest)
        for m in spec["per_layer"]:
            value = layers.get(m["name"])
            if value is None:
                correct = False
                failed += 1
                log("error: per-layer metric %s not measured" % m["name"])
                continue
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        full = {"layers": layers, "absent": raw["absent"],
                "self_s": raw["self_s"]}
    else:
        values = end_to_end(raw)
        values["failed_frac"] = (failed / attempted, attempted)
        print("-- end-to-end metrics --")
        for name, (unit, where, meaning) in END_TO_END.items():
            if name not in values:
                continue
            v, n = values[name]
            note = PAPER.get(name, "")
            print("  %-16s %14.6g %-12s n=%-5d %s%s" % (
                name, v, unit, n, meaning, "  [simulated; %s]" % note
                if note else ""))
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]][0],
                                  "unit": m["unit"]}
        full = {"metrics": {k: {"value": v, "n": n,
                                "unit": END_TO_END[k][0]}
                            for k, (v, n) in values.items()},
                "samples": {"mips": raw["mips"], "mips_raw": raw["mips_raw"],
                            "host_speed": raw["host_speed"],
                            "point_s": raw["point_s"],
                            "pass_s": raw["pass_s"],
                            "setup_s": raw["setup_s"],
                            "setup_s_raw": raw["setup_s_raw"]}}

    if args.out:
        record = {"workload": args.workload, "trace": args.trace,
                  "correct": correct, "attempted": attempted,
                  "failed": failed, "checks": checks,
                  "journals_identical": raw["journals_identical"],
                  "sim": raw["sim"], "provenance": prov}
        record.update(full)
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
