/**
 * @file
 * Fig. 15: (a) distribution of the per-trace reduction in off-chip
 * stall cycles from adding Hermes to the Pythia baseline (box plot);
 * (b) increase in main-memory requests over the no-prefetching system
 * for Hermes, Pythia and Pythia+Hermes.
 *
 * Paper shape: ~16% average stall-cycle reduction (up to ~52%); Hermes
 * adds ~5.5% memory requests vs Pythia's ~38.5% — about 0.5% extra
 * requests per 1% speedup for Hermes vs ~2% for Pythia.
 */
// figmap: Fig. 15 | stall-cycle reduction and extra main-memory requests

#include <cstdio>

#include "common/stats.hh"
#include "harness/harness.hh"

using namespace hermes;
using namespace hermes::bench;

int
main(int argc, char **argv)
{
    initCli(argc, argv);
    const SimBudget b = budget(120'000, 300'000);
    const auto nopf = runSuite(cfgNoPrefetch(), b);
    const auto herm =
        runSuite(withHermes(cfgNoPrefetch(), "popet", 6), b);
    const auto pyth = runSuite(cfgBaseline(), b);
    const auto both =
        runSuite(withHermes(cfgBaseline(), "popet", 6), b);

    // (a) stall-cycle reduction of Pythia+Hermes vs Pythia.
    std::vector<double> reductions;
    for (std::size_t i = 0; i < pyth.size(); ++i) {
        const double s0 = static_cast<double>(
            pyth[i].stats.core[0].stallCyclesOffChip);
        const double s1 = static_cast<double>(
            both[i].stats.core[0].stallCyclesOffChip);
        if (s0 > 0)
            reductions.push_back(1.0 - s1 / s0);
    }
    const BoxStats box = boxStats(reductions);
    Table a({"metric", "value"});
    a.addRow({"min", Table::pct(box.min)});
    a.addRow({"q1", Table::pct(box.q1)});
    a.addRow({"median", Table::pct(box.median)});
    a.addRow({"q3", Table::pct(box.q3)});
    a.addRow({"max", Table::pct(box.max)});
    a.addRow({"mean", Table::pct(box.mean)});
    a.print("Fig. 15a: reduction in off-chip stall cycles (Hermes on "
            "Pythia)");

    // (b) main-memory request overhead vs the no-prefetching system.
    auto reads = [](const std::vector<TraceResult> &rs) {
        double total = 0;
        for (const auto &r : rs)
            total += static_cast<double>(r.stats.dram.totalReads());
        return total;
    };
    const double base_reads = reads(nopf);
    Table t({"config", "memory request increase vs no-pf"});
    t.addRow({"Hermes-O", Table::pct(reads(herm) / base_reads - 1.0)});
    t.addRow({"Pythia", Table::pct(reads(pyth) / base_reads - 1.0)});
    t.addRow({"Pythia+Hermes-O",
              Table::pct(reads(both) / base_reads - 1.0)});
    t.print("Fig. 15b: main-memory request overhead");
    std::printf("\npaper: Hermes +5.5%%, Pythia +38.5%%\n");
    return 0;
}
