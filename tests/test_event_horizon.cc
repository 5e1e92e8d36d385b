// Event-horizon fast-forward determinism (docs/performance.md):
//  1. running with the fast-forward disabled (HERMES_NO_EVENT_SKIP=1,
//     every cycle ticked) produces bit-identical statistics to the
//     skipping loop, across predictors, prefetchers and a multi-core
//     mix — and the single-core Hermes case also matches the pinned
//     golden fingerprint, so neither loop can drift silently;
//  2. every component's nextEventCycle(now) honours the contract's
//     floor — always at least now + 1, monotone in `now` for a fixed
//     state — checked cycle-by-cycle against the live machine, as is
//     the whole-machine horizon System::nextEventHorizon().

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "golden_util.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "trace/suite.hh"

namespace hermes
{
namespace
{

using golden::goldenBudget;
using golden::loadGoldens;

struct HorizonCase
{
    std::string key;
    SystemConfig config;
    std::vector<TraceSpec> traces;
};

/**
 * The same predictor x prefetcher spread the session checkpoint tests
 * use (test_session.cc), on the golden budget so the single-core
 * Hermes case pins against tests/golden/fingerprints.txt.
 */
std::vector<HorizonCase>
horizonCases()
{
    const TraceSpec mcf = findTrace("spec06.mcf_like.0");
    const TraceSpec stream = findTrace("parsec.streamcluster_like.0");

    SystemConfig popet_pythia = SystemConfig::baseline(1);
    popet_pythia.prefetcher = "pythia";
    popet_pythia.predictor = "popet";
    popet_pythia.hermesIssueEnabled = true;

    SystemConfig popet_streamer = popet_pythia;
    popet_streamer.prefetcher = "streamer";

    SystemConfig hmp_spp = SystemConfig::baseline(1);
    hmp_spp.prefetcher = "spp";
    hmp_spp.predictor = "hmp";
    hmp_spp.hermesIssueEnabled = true;

    SystemConfig mix_cfg = SystemConfig::baseline(2);
    mix_cfg.prefetcher = "pythia";
    mix_cfg.predictor = "popet";
    mix_cfg.hermesIssueEnabled = true;

    return {
        {"one.hermes.mcf", popet_pythia, {mcf}},
        {"popet.streamer", popet_streamer, {stream}},
        {"hmp.spp", hmp_spp, {mcf}},
        {"mix2.hermes", mix_cfg, {mcf, stream}},
    };
}

/** Fingerprint of one full run, with the fast-forward on or off.
 * The knob is read at System construction, so it is toggled around
 * build() and restored before returning. */
std::uint64_t
runFingerprint(const HorizonCase &c, bool skip_enabled)
{
    if (skip_enabled)
        unsetenv("HERMES_NO_EVENT_SKIP");
    else
        setenv("HERMES_NO_EVENT_SKIP", "1", 1);
    SimSession s(c.config, c.traces, goldenBudget());
    s.build();
    unsetenv("HERMES_NO_EVENT_SKIP");
    s.warmup();
    s.measure();
    return statsFingerprint(s.collect());
}

TEST(EventHorizon, SkipDisabledMatchesSkipEnabled)
{
    for (const HorizonCase &c : horizonCases()) {
        const std::uint64_t ticked = runFingerprint(c, false);
        const std::uint64_t skipped = runFingerprint(c, true);
        ASSERT_NE(ticked, 0u) << c.key;
        EXPECT_EQ(skipped, ticked)
            << c.key << ": the event-horizon fast-forward changed "
            << "simulated statistics";
    }
}

TEST(EventHorizon, SkipDisabledMatchesGoldenFile)
{
    // Anchor both loops to the pinned golden: if the cycle-by-cycle
    // loop and the skipping loop ever drifted together, the pairwise
    // test above would still pass — the golden file would not.
    const auto golden = loadGoldens();
    ASSERT_FALSE(golden.empty());
    const auto it = golden.find("one.hermes.mcf");
    ASSERT_NE(it, golden.end());

    const HorizonCase c = horizonCases()[0];
    ASSERT_EQ(c.key, "one.hermes.mcf");
    EXPECT_EQ(runFingerprint(c, false), it->second);
}

TEST(EventHorizon, ComponentBoundsHoldCycleByCycle)
{
    // Drive the machine one cycle at a time (no fast-forward) and
    // check the horizon contract against the live state: every
    // component's bound is at least now + 1, monotone in `now` for
    // the state it was computed against, and the whole-machine
    // horizon is their floor.
    const HorizonCase c = horizonCases()[0];
    std::vector<std::unique_ptr<Workload>> w;
    for (const TraceSpec &spec : c.traces)
        w.push_back(spec.make());
    System sys(c.config, std::move(w));
    sys.setEventSkip(false);

    for (int i = 0; i < 20'000; ++i) {
        const Cycle now = sys.now();
        const Cycle core = sys.coreAt(0).nextEventCycle(now);
        const Cycle l1 = sys.l1At(0).nextEventCycle(now);
        const Cycle l2 = sys.l2At(0).nextEventCycle(now);
        const Cycle llc = sys.llc().nextEventCycle(now);
        const Cycle dram = sys.dram().nextEventCycle(now);
        ASSERT_GE(core, now + 1) << "core bound below floor at " << now;
        ASSERT_GE(l1, now + 1) << "L1 bound below floor at " << now;
        ASSERT_GE(l2, now + 1) << "L2 bound below floor at " << now;
        ASSERT_GE(llc, now + 1) << "LLC bound below floor at " << now;
        ASSERT_GE(dram, now + 1) << "DRAM bound below floor at " << now;

        // Monotone in `now` against a fixed state: asking the same
        // component about a later cycle never yields an earlier bound.
        ASSERT_GE(sys.coreAt(0).nextEventCycle(now + 1), core);
        ASSERT_GE(sys.dram().nextEventCycle(now + 1), dram);

        const Cycle horizon = sys.nextEventHorizon();
        ASSERT_GE(horizon, now + 1) << "horizon below floor at " << now;
        ASSERT_LE(horizon, core);
        ASSERT_LE(horizon, l1);
        ASSERT_LE(horizon, l2);
        ASSERT_LE(horizon, llc);
        ASSERT_LE(horizon, dram);

        sys.tick();
        ASSERT_EQ(sys.now(), now + 1);
    }
}

} // namespace
} // namespace hermes
