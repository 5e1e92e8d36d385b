/**
 * @file
 * Fig. 17a: sensitivity to main-memory bandwidth (200 to 12800 MTPS).
 *
 * Paper shape: Hermes+Pythia beats Pythia at every bandwidth point;
 * Hermes *alone* beats Pythia in the bandwidth-starved configurations
 * because its accurate requests waste far less bandwidth than
 * speculative prefetching.
 */
// figmap: Fig. 17a | dram.mtps 200-12800

#include <cstdio>

#include "common/stats.hh"
#include "harness/harness.hh"
#include "sim/stat_registry.hh"

using namespace hermes;
using namespace hermes::bench;

namespace
{

/** Suite-mean of the registry's DRAM bus-utilization metric. */
double
meanBwUtil(const std::vector<TraceResult> &rs)
{
    std::vector<double> xs;
    xs.reserve(rs.size());
    for (const auto &r : rs)
        xs.push_back(statF64(r.stats, "dram.bw_util"));
    return mean(xs);
}

} // namespace

int
main(int argc, char **argv)
{
    initCli(argc, argv);
    const SimBudget b = budget(80'000, 200'000);

    Table t({"MTPS", "Hermes", "Pythia", "Pythia+Hermes"});
    Table u({"MTPS", "no-pf bw util", "Hermes", "Pythia",
             "Pythia+Hermes"});
    for (unsigned mtps : {200u, 400u, 800u, 1600u, 3200u, 6400u, 12800u}) {
        auto with_bw = [mtps](SystemConfig cfg) {
            cfg.dram.mtps = mtps;
            return cfg;
        };
        const auto nopf = runSuite(with_bw(cfgNoPrefetch()), b);
        const auto herm = runSuite(
            with_bw(withHermes(cfgNoPrefetch(), "popet", 6)), b);
        const auto pyth = runSuite(with_bw(cfgBaseline()), b);
        const auto both = runSuite(
            with_bw(withHermes(cfgBaseline(), "popet", 6)), b);
        t.addRow({std::to_string(mtps),
                  Table::fmt(geomeanSpeedup(herm, nopf)),
                  Table::fmt(geomeanSpeedup(pyth, nopf)),
                  Table::fmt(geomeanSpeedup(both, nopf))});
        u.addRow({std::to_string(mtps), Table::pct(meanBwUtil(nopf)),
                  Table::pct(meanBwUtil(herm)),
                  Table::pct(meanBwUtil(pyth)),
                  Table::pct(meanBwUtil(both))});
    }
    t.print("Fig. 17a: speedup vs no-pf across main-memory bandwidth");
    u.print("Fig. 17a aux: DRAM data-bus utilization (dram.bw_util)");
    std::printf("\npaper: crossover — Hermes alone beats Pythia at "
                "200-400 MTPS (speculative prefetching burns bandwidth "
                "the utilization table makes visible)\n");
    return 0;
}
