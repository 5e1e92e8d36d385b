/**
 * @file
 * Design-choice ablations for POPET beyond the paper's figures — the
 * knobs DESIGN.md §4 calls out: page-buffer reach, weight width,
 * training thresholds and the mispredict-training rule. Each sweep
 * reports accuracy/coverage (predictor-only) and Hermes speedup on the
 * Pythia baseline, quantifying how much each design decision buys.
 */
// figmap: DESIGN.md ablations | POPET buffer/weights/thresholds knobs

#include <cstdio>

#include "harness/harness.hh"

using namespace hermes;
using namespace hermes::bench;

namespace
{

struct Outcome
{
    double accuracy;
    double coverage;
    double speedup;
};

Outcome
evaluate(const PopetParams &params, const SimBudget &b,
         const std::vector<TraceResult> &nopf)
{
    SystemConfig cfg = withHermes(cfgBaseline(), "popet", 6);
    cfg.popet = params;
    const auto rs = runSuite(cfg, b);
    PredictorStats all;
    for (const auto &r : rs) {
        const PredictorStats p = r.stats.predTotal();
        all.truePositives += p.truePositives;
        all.falsePositives += p.falsePositives;
        all.falseNegatives += p.falseNegatives;
        all.trueNegatives += p.trueNegatives;
    }
    return {all.accuracy(), all.coverage(), geomeanSpeedup(rs, nopf)};
}

} // namespace

int
main(int argc, char **argv)
{
    initCli(argc, argv);
    const SimBudget b = budget(80'000, 200'000);
    const auto nopf = runSuite(cfgNoPrefetch(), b);

    {
        Table t({"page buffer entries", "accuracy", "coverage",
                 "speedup"});
        for (unsigned entries : {16u, 32u, 64u, 128u, 256u}) {
            PopetParams p;
            p.pageBufferEntries = entries;
            const Outcome o = evaluate(p, b, nopf);
            t.addRow({std::to_string(entries), Table::pct(o.accuracy),
                      Table::pct(o.coverage), Table::fmt(o.speedup)});
        }
        t.print("Ablation: page-buffer reach (paper: 64 entries)");
    }

    {
        Table t({"weight bits", "accuracy", "coverage", "speedup"});
        for (unsigned bits : {3u, 4u, 5u, 6u, 8u}) {
            PopetParams p;
            p.weightBits = bits;
            // Keep thresholds proportional to the weight range so the
            // operating point stays comparable.
            const double scale = static_cast<double>((1 << (bits - 1))) /
                                 16.0;
            p.activationThreshold =
                static_cast<int>(-18 * scale);
            p.trainingThresholdNeg = static_cast<int>(-35 * scale);
            p.trainingThresholdPos = static_cast<int>(40 * scale);
            const Outcome o = evaluate(p, b, nopf);
            t.addRow({std::to_string(bits), Table::pct(o.accuracy),
                      Table::pct(o.coverage), Table::fmt(o.speedup)});
        }
        t.print("Ablation: weight width (paper: 5-bit weights)");
    }

    {
        Table t({"T_N/T_P", "accuracy", "coverage", "speedup"});
        const struct
        {
            int tn, tp;
        } pairs[] = {{-80, 75}, {-50, 55}, {-35, 40}, {-20, 25},
                     {-10, 12}};
        for (const auto &pr : pairs) {
            PopetParams p;
            p.trainingThresholdNeg = pr.tn;
            p.trainingThresholdPos = pr.tp;
            const Outcome o = evaluate(p, b, nopf);
            t.addRow({std::to_string(pr.tn) + "/" + std::to_string(pr.tp),
                      Table::pct(o.accuracy), Table::pct(o.coverage),
                      Table::fmt(o.speedup)});
        }
        t.print("Ablation: training thresholds (paper: -35/40)");
    }

    {
        Table t({"train on mispredict", "accuracy", "coverage",
                 "speedup"});
        for (bool train : {false, true}) {
            PopetParams p;
            p.trainOnMispredict = train;
            const Outcome o = evaluate(p, b, nopf);
            t.addRow({train ? "yes" : "no", Table::pct(o.accuracy),
                      Table::pct(o.coverage), Table::fmt(o.speedup)});
        }
        t.print("Ablation: always-train-on-mispredict rule");
    }
    return 0;
}
