/**
 * @file
 * Fig. 16: eight-core speedups of Pythia + Hermes-{HMP, TTP, POPET}
 * over the no-prefetching eight-core system, on homogeneous and
 * heterogeneous workload mixes.
 *
 * Paper shape: Pythia 1.123, +HMP 1.129, +TTP 1.102 (TTP *hurts* in
 * the bandwidth-constrained system), +POPET 1.174.
 */
// figmap: Fig. 16 | 8-core mixes with Hermes-HMP/TTP/POPET

#include <cstdio>

#include "common/stats.hh"
#include "harness/harness.hh"

using namespace hermes;
using namespace hermes::bench;

namespace
{

/** Homogeneous mixes from a subset of the suite + one random mix. */
std::vector<std::vector<TraceSpec>>
mixes()
{
    const auto traces = suite();
    std::vector<std::vector<TraceSpec>> out;
    // Homogeneous mixes: 8 copies of each of 4 representative traces.
    for (std::size_t i = 0; i < traces.size() && out.size() < 4; i += 3)
        out.push_back(std::vector<TraceSpec>(8, traces[i]));
    // One heterogeneous mix cycling through the suite.
    std::vector<TraceSpec> hetero;
    for (int c = 0; c < 8; ++c)
        hetero.push_back(traces[c % traces.size()]);
    out.push_back(hetero);
    return out;
}

double
mixIpcSum(const RunStats &r)
{
    double s = 0;
    for (int c = 0; c < static_cast<int>(r.core.size()); ++c)
        s += r.ipc(c);
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    initCli(argc, argv);
    SimBudget b = budget(40'000, 100'000);

    struct Named
    {
        const char *name;
        SystemConfig cfg;
    };
    SystemConfig base8 = SystemConfig::baseline(8);
    SystemConfig pyth8 = base8;
    pyth8.prefetcher = "pythia";
    std::vector<Named> cfgs = {
        {"Pythia (baseline)", pyth8},
        {"Pythia+Hermes-HMP",
         withHermes(pyth8, "hmp", 6)},
        {"Pythia+Hermes-TTP",
         withHermes(pyth8, "ttp", 6)},
        {"Pythia+Hermes-POPET",
         withHermes(pyth8, "popet", 6)},
    };

    const auto mix_list = mixes();
    std::vector<double> base_ipc;
    for (const RunStats &r : runMixes(base8, mix_list, b, "nopf8"))
        base_ipc.push_back(mixIpcSum(r));

    Table t({"config", "geomean speedup vs 8-core no-pf"});
    for (const auto &c : cfgs) {
        const auto runs = runMixes(c.cfg, mix_list, b, c.name);
        std::vector<double> speedups;
        for (std::size_t i = 0; i < runs.size(); ++i)
            speedups.push_back(mixIpcSum(runs[i]) / base_ipc[i]);
        t.addRow({c.name, Table::fmt(geomean(speedups))});
    }
    t.print("Fig. 16: eight-core speedup (4 homogeneous + 1 hetero mix)");
    std::printf("\npaper: Pythia 1.123, +HMP 1.129, +TTP 1.102, "
                "+POPET 1.174\n");
    return 0;
}
