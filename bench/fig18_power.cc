/**
 * @file
 * Fig. 18: runtime dynamic power of Hermes, Pythia and Pythia+Hermes
 * normalised to the no-prefetching system, broken down per structure
 * (McPAT substituted by the activity-based model in sim/power.hh).
 *
 * Paper shape: Hermes adds ~3.6% dynamic power vs Pythia's ~8.7%;
 * Hermes on top of Pythia adds only ~1.5% more.
 */
// figmap: Fig. 18 | dynamic power breakdown: Hermes, Pythia, both

#include <cstdio>

#include "harness/harness.hh"

using namespace hermes;
using namespace hermes::bench;

int
main(int argc, char **argv)
{
    initCli(argc, argv);
    const SimBudget b = budget(120'000, 300'000);

    struct Named
    {
        const char *name;
        SystemConfig cfg;
    };
    const Named cfgs[] = {
        {"no-prefetching", cfgNoPrefetch()},
        {"Hermes", withHermes(cfgNoPrefetch(), "popet", 6)},
        {"Pythia", cfgBaseline()},
        {"Pythia+Hermes",
         withHermes(cfgBaseline(), "popet", 6)},
    };

    Table t({"config", "L1", "L2", "LLC", "bus+DRAM", "other", "total",
             "vs no-pf"});
    double base_total = 0;
    for (const auto &c : cfgs) {
        PowerBreakdown sum;
        for (const auto &r : runSuite(c.cfg, b)) {
            const PowerBreakdown p = computePower(r.stats);
            sum.l1 += p.l1;
            sum.l2 += p.l2;
            sum.llc += p.llc;
            sum.bus += p.bus;
            sum.other += p.other;
        }
        if (base_total == 0)
            base_total = sum.total();
        t.addRow({c.name, Table::fmt(sum.l1, 1), Table::fmt(sum.l2, 1),
                  Table::fmt(sum.llc, 1), Table::fmt(sum.bus, 1),
                  Table::fmt(sum.other, 1), Table::fmt(sum.total(), 1),
                  Table::pct(sum.total() / base_total - 1.0)});
    }
    t.print("Fig. 18: runtime dynamic power (mW, summed over suite)");
    std::printf("\npaper: Hermes +3.6%%, Pythia +8.7%%, "
                "Pythia+Hermes +10.2%% over no-pf\n");
    return 0;
}
