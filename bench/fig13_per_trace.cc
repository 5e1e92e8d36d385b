/**
 * @file
 * Fig. 13: per-trace speedup line graph of Hermes-O, Pythia, and
 * Pythia + Hermes-O over the no-prefetching system (sorted by the
 * combined configuration's speedup).
 *
 * Paper shape: Hermes alone improves every trace over no-prefetching;
 * Hermes beats Pythia on irregular traces and loses on prefetch-
 * friendly ones; the combination is the best of both nearly everywhere.
 */
// figmap: Fig. 13 | per-trace speedups: Hermes-O, Pythia, Pythia+Hermes-O

#include <algorithm>
#include <cstdio>

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

    struct Row
    {
        std::string trace;
        double hermes, pythia, combo;
    };
    std::vector<Row> rows;
    unsigned hermes_wins = 0;
    for (std::size_t i = 0; i < nopf.size(); ++i) {
        const double base = nopf[i].stats.ipc(0);
        // IPC 0 means "no data" (e.g. a grid point another shard
        // owns): a ratio against it would print inf/nan rows.
        if (base <= 0 || herm[i].stats.ipc(0) <= 0 ||
            pyth[i].stats.ipc(0) <= 0 || both[i].stats.ipc(0) <= 0)
            continue;
        Row r{nopf[i].trace, herm[i].stats.ipc(0) / base,
              pyth[i].stats.ipc(0) / base, both[i].stats.ipc(0) / base};
        hermes_wins += r.hermes > r.pythia;
        rows.push_back(r);
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) { return a.combo < b.combo; });

    Table t({"trace", "Hermes-O", "Pythia", "Pythia+Hermes-O"});
    for (const auto &r : rows)
        t.addRow({r.trace, Table::fmt(r.hermes), Table::fmt(r.pythia),
                  Table::fmt(r.combo)});
    t.print("Fig. 13: per-trace speedup over the no-prefetching system");
    std::printf("\nHermes alone beats Pythia on %u of %zu traces "
                "(paper: 51 of 110)\n",
                hermes_wins, rows.size());
    return 0;
}
