#pragma once

/**
 * @file
 * Shared types of the benchmark program: run options, the raw result a
 * run reports (samples, simulated metrics, per-layer numbers and
 * correctness checks) and the workload entry points.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "sweep/sweep.hh"
#include "trace/suite.hh"

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Multiplies every instruction budget (self-test uses tiny ones). */
    double scale = 1.0;
    /** Scratch directory for trace files, stores and journals. */
    std::string workDir;
    /** Golden fingerprint file checked on every run. */
    std::string goldenPath = "tests/golden/fingerprints.txt";
    /** Fault injection for the self-test ("" = none). */
    std::string inject;
    /** CLOCK_MONOTONIC ns at which the process was spawned (-1 = unknown). */
    std::int64_t startNs = -1;
    /** Stop after the set-up: only setup_s is measured. */
    bool setupOnly = false;
};

struct Check
{
    std::string name;
    bool ok = true;
    std::string detail;
};

/** Everything a run measured; run.py turns it into metrics. */
struct Result
{
    /**
     * Host seconds from process start to the first simulation, at the
     * nominal host speed.
     */
    std::vector<double> setupS;
    /** The same as measured. */
    std::vector<double> setupRawS;
    /**
     * Simulated MIPS of each timed repetition at the nominal host
     * speed: the measured MIPS divided by hostSpeed.
     */
    std::vector<double> mips;
    /** The same as measured. */
    std::vector<double> mipsRaw;
    /** Host speed over each timed repetition (calibrate.cc). */
    std::vector<double> hostSpeed;
    /**
     * Host seconds of every timed point (fig_sweep: cold pass) at the
     * nominal host speed.
     */
    std::vector<double> pointS;
    /** Pass walls per timed repetition ("cold", "ckpt", "warm"). */
    std::map<std::string, std::vector<double>> passS;
    /** Simulated metrics; identical in every run of one seed. */
    std::map<std::string, double> sim;
    /** Per-layer metrics (traced run only). */
    std::map<std::string, double> layers;
    /** Per-layer metrics not measured on this workload, with why. */
    std::map<std::string, std::string> absent;
    /** Self seconds per span name (traced run only). */
    std::map<std::string, double> selfS;
    std::string spansPath;
    std::vector<Check> checks;
    std::uint64_t pointsAttempted = 0;
    std::uint64_t pointsFailed = 0;
    /** fig_sweep: cold and warm journals byte-identical (not gated). */
    int journalsIdentical = -1;
    int threads = 1;

    void
    check(const std::string &name, bool ok, const std::string &detail = "")
    {
        checks.push_back({name, ok, detail});
    }
};

/** Quick suite with every generator seed derived from @p seed. */
std::vector<hermes::TraceSpec> seededQuickSuite(std::uint64_t seed);

/** A configuration built from registry keys (sim/param_registry.hh). */
hermes::SystemConfig
configOf(const std::vector<std::pair<std::string, std::string>> &keys);

/** Table-4 Pythia system, and Pythia + Hermes (POPET). */
hermes::SystemConfig pythiaConfig(int cores);
hermes::SystemConfig hermesConfig(int cores, hermes::Cycle issue_latency,
                                  bool warmup_issue);

hermes::SimBudget scaled(hermes::SimBudget b, double scale);

/** Geomean of positive values (0 for an empty list). */
double geomean(const std::vector<double> &v);

/**
 * Simulated end-to-end metrics of paired runs: per-core IPC geomean
 * of the Hermes runs, the geomean per-core IPC gain over Pythia, and
 * POPET accuracy/coverage over the pooled confusion matrix.
 */
void simMetrics(const std::vector<hermes::RunStats> &pythia,
                const std::vector<hermes::RunStats> &hermes_runs,
                Result &out);

/** Registry-key work counters summed (or averaged) over @p runs. */
void workCounters(const std::vector<hermes::RunStats> &runs, Result &out);

/** Event-horizon and HERMES_PROFILE counters summed over @p runs. */
void profileCounters(const std::vector<hermes::RunStats> &runs,
                     double session_run_s, Result &out);

/** Host kernels fed with a workload's own load stream. */
void runKernels(const std::vector<hermes::TraceSpec> &traces, int cores,
                Result &out);

/** Host ns per Workload::next() over @p traces (generator or file). */
double streamNsPerInstr(const std::vector<hermes::TraceSpec> &traces);

/**
 * CPU seconds of the fixed calibration kernel, run on @p threads
 * threads at once; the mean over the threads.
 */
double calibrate(int threads);

/** calibrate()'s time at the nominal host speed. */
constexpr double kNominalCalS = 0.060;

/** Reproduce the golden fingerprints named in @p path. */
void goldenCheck(const std::string &path, Result &out);

void runSingleCore(const Options &opt, Result &out);
void runEightCore(const Options &opt, Result &out);
void runFigSweep(const Options &opt, Result &out);

} // namespace perfbench
