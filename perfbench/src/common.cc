#include <cmath>
#include <fstream>
#include <sstream>

#include "bench.hh"
#include "common/config.hh"
#include "sim/report.hh"
#include "sim/stat_registry.hh"

using namespace hermes;

namespace perfbench
{

std::vector<TraceSpec>
seededQuickSuite(std::uint64_t seed)
{
    std::vector<TraceSpec> traces = quickSuite();
    for (TraceSpec &t : traces)
        t.params.seed = sweep::SweepEngine::pointSeed(seed, t.params.seed);
    return traces;
}

SystemConfig
configOf(const std::vector<std::pair<std::string, std::string>> &keys)
{
    Config c;
    for (const auto &[k, v] : keys)
        c.set(k, v);
    return SystemConfig::fromConfig(c);
}

SystemConfig
pythiaConfig(int cores)
{
    return configOf(
        {{"system.cores", std::to_string(cores)}, {"prefetcher", "pythia"}});
}

SystemConfig
hermesConfig(int cores, Cycle issue_latency, bool warmup_issue)
{
    return configOf({{"system.cores", std::to_string(cores)},
                     {"prefetcher", "pythia"},
                     {"predictor", "popet"},
                     {"hermes.enabled", "true"},
                     {"hermes.issue_latency", std::to_string(issue_latency)},
                     {"hermes.warmup_issue", warmup_issue ? "true" : "false"}});
}

SimBudget
scaled(SimBudget b, double scale)
{
    b.warmupInstrs = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(b.warmupInstrs) * scale));
    b.simInstrs = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(b.simInstrs) * scale));
    return b;
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double log_sum = 0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

void
simMetrics(const std::vector<RunStats> &pythia,
           const std::vector<RunStats> &hermes_runs, Result &out)
{
    // Per-core IPC over the whole window, core.N.instrs / core.N.cycles
    // (RunStats::ipc divides by a core's finish cycle, which counts
    // the instructions an early finisher keeps retiring afterwards).
    const StatRegistry &reg = StatRegistry::instance();
    const StatDef &instrs = reg.findOrThrow("core.instrs");
    const StatDef &cycles = reg.findOrThrow("core.cycles");
    auto core_ipc = [&](const RunStats &r, std::size_t c) {
        return static_cast<double>(instrs.getAtU64(r, c)) /
               static_cast<double>(cycles.getAtU64(r, c));
    };
    std::vector<double> ipc, gain;
    PredictorStats pred;
    for (std::size_t i = 0; i < hermes_runs.size(); ++i) {
        const RunStats &h = hermes_runs[i];
        for (std::size_t c = 0; c < h.core.size(); ++c) {
            ipc.push_back(core_ipc(h, c));
            gain.push_back(core_ipc(h, c) / core_ipc(pythia[i], c));
        }
        const PredictorStats p = h.predTotal();
        pred.truePositives += p.truePositives;
        pred.falsePositives += p.falsePositives;
        pred.falseNegatives += p.falseNegatives;
        pred.trueNegatives += p.trueNegatives;
    }
    out.sim["ipc"] = geomean(ipc);
    out.sim["hermes_gain_pct"] = (geomean(gain) - 1.0) * 100.0;
    out.sim["pred_accuracy"] = pred.accuracy();
    out.sim["pred_coverage"] = pred.coverage();
}

void
workCounters(const std::vector<RunStats> &runs, Result &out)
{
    static const char *const kSummed[] = {
        "l1.load_lookups", "llc.load_lookups", "dram.reads",
        "hermes.issued",   "llc.pf_issued",    "llc.pf_useful",
    };
    static const char *const kAveraged[] = {
        "llc.mpki",
        "dram.bw_util",
        "hermes.served_rate",
    };
    for (const char *key : kSummed) {
        double sum = 0;
        for (const RunStats &r : runs)
            sum += static_cast<double>(statU64(r, key));
        out.layers[key] = sum;
    }
    for (const char *key : kAveraged) {
        double sum = 0;
        for (const RunStats &r : runs)
            sum += statF64(r, key);
        out.layers[key] = runs.empty() ? 0 : sum / runs.size();
    }
}

void
profileCounters(const std::vector<RunStats> &runs, double session_run_s,
                Result &out)
{
    HostProfile p;
    for (const RunStats &r : runs) {
        p.enabled = p.enabled || r.profile.enabled;
        p.tickedCycles += r.profile.tickedCycles;
        p.skippedCycles += r.profile.skippedCycles;
        p.coreSeconds += r.profile.coreSeconds;
        p.l1Seconds += r.profile.l1Seconds;
        p.l2Seconds += r.profile.l2Seconds;
        p.llcSeconds += r.profile.llcSeconds;
        p.dramSeconds += r.profile.dramSeconds;
        p.horizonSeconds += r.profile.horizonSeconds;
    }
    const double ticked = static_cast<double>(p.tickedCycles);
    out.layers["horizon.ticked_cycles"] = ticked;
    out.layers["horizon.skipped_frac"] =
        static_cast<double>(p.skippedCycles) /
        static_cast<double>(p.tickedCycles + p.skippedCycles);
    out.layers["system.ns_per_ticked_cycle"] = session_run_s * 1e9 / ticked;
    if (p.enabled) {
        out.layers["core.host_s"] = p.coreSeconds;
        out.layers["l1.host_s"] = p.l1Seconds;
        out.layers["l2.host_s"] = p.l2Seconds;
        out.layers["llc.host_s"] = p.llcSeconds;
        out.layers["dram.host_s"] = p.dramSeconds;
        out.layers["horizon.host_s"] = p.horizonSeconds;
    }
}

void
goldenCheck(const std::string &path, Result &out)
{
    // The scenarios behind tests/golden/fingerprints.txt; the expected
    // values come from the file alone.
    const SimBudget b{5'000, 20'000};
    const TraceSpec mcf = findTrace("spec06.mcf_like.0");
    const TraceSpec stream = findTrace("parsec.streamcluster_like.0");
    const SystemConfig hermes1 = hermesConfig(1, 6, true);
    const SystemConfig hermes2 = hermesConfig(2, 6, true);
    const std::map<std::string, std::pair<SystemConfig,
                                          std::vector<TraceSpec>>>
        scenarios = {
            {"one.base.mcf", {configOf({{"system.cores", "1"}}), {mcf}}},
            {"one.pythia.stream", {pythiaConfig(1), {stream}}},
            {"one.hermes.mcf", {hermes1, {mcf}}},
            {"mix2.hermes", {hermes2, {mcf, stream}}},
        };

    std::ifstream in(path);
    if (!in) {
        out.check("golden_fingerprints", false, "cannot read " + path);
        return;
    }
    int matched = 0;
    std::string mismatched;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key, hex;
        if (!(ls >> key >> hex) || scenarios.count(key) == 0)
            continue;
        const auto &[cfg, traces] = scenarios.at(key);
        const std::uint64_t want = std::stoull(hex, nullptr, 16);
        const std::uint64_t got =
            statsFingerprint(simulate(cfg, traces, b));
        if (got == want)
            ++matched;
        else
            mismatched += " " + key;
    }
    out.check("golden_fingerprints", matched > 0 && mismatched.empty(),
              std::to_string(matched) + " reproduced" +
                  (mismatched.empty() ? "" : "; mismatched:" + mismatched));
}

} // namespace perfbench
