// Wake-time scheduler determinism (docs/performance.md):
//  1. running with the scheduler's skipping disabled
//     (HERMES_NO_EVENT_SKIP=1, every component ticked every cycle)
//     produces bit-identical statistics to the scheduled loop, across
//     predictors, prefetchers and a multi-core mix — and the
//     single-core Hermes case also matches the pinned golden
//     fingerprint, so neither loop can drift silently;
//  2. a scheduled and a full-tick System stepped in lockstep hold
//     byte-identical checkpoint state along the way, not only at the
//     end, and the profiled loop (HERMES_PROFILE) matches too;
//  3. every component's nextEventCycle(now) honours the contract's
//     floor — always at least now + 1, monotone in `now` for a fixed
//     state — and every wake slot is at most its component's bound,
//     checked cycle-by-cycle against the live machine, as is the
//     whole-machine horizon System::nextEventHorizon().

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "golden_util.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "test_helpers.hh"
#include "trace/resolve.hh"
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

TEST(EventHorizon, ProfiledLoopMatchesUnprofiled)
{
    // HERMES_PROFILE selects the timed instance of the one tick loop:
    // the same statistics, with the stage times filled in.
    const HorizonCase c = horizonCases()[0];
    setenv("HERMES_PROFILE", "1", 1);
    SimSession s(c.config, c.traces, goldenBudget());
    s.build();
    unsetenv("HERMES_PROFILE");
    s.warmup();
    s.measure();
    const RunStats &r = s.collect();
    EXPECT_TRUE(r.profile.enabled);
    EXPECT_GT(r.profile.coreSeconds, 0.0);
    EXPECT_GT(r.profile.skippedCycles, 0u);
    EXPECT_EQ(statsFingerprint(r), runFingerprint(c, true));
}

/** A cold System for @p c, built directly (no warmup). */
std::unique_ptr<System>
buildSystem(const HorizonCase &c, bool skip_enabled)
{
    std::vector<std::unique_ptr<Workload>> w;
    for (const TraceSpec &spec : c.traces)
        w.push_back(spec.make());
    auto sys = std::make_unique<System>(c.config, std::move(w));
    sys->setEventSkip(skip_enabled);
    return sys;
}

std::vector<char>
stateBytes(const System &sys)
{
    test::VectorSink sink;
    StateWriter w(sink);
    sys.saveState(w);
    w.sealChecksum();
    return sink.bytes;
}

/** Step a scheduled and a full-tick System one cycle at a time and
 * compare their checkpoint bytes every 997 cycles; at least
 * @p min_dram_writes writes must reach DRAM on the way. */
void
expectLockstep(const HorizonCase &c, int cycles,
               std::uint64_t min_dram_writes)
{
    const auto scheduled = buildSystem(c, true);
    const auto full = buildSystem(c, false);
    for (int i = 1; i <= cycles; ++i) {
        ASSERT_EQ(scheduled->tick(), full->tick())
            << c.key << ": retirement differs at cycle " << i;
        if (i % 997 == 0) {
            ASSERT_EQ(stateBytes(*scheduled), stateBytes(*full))
                << c.key << ": state differs at cycle " << i;
        }
    }
    EXPECT_GE(full->dram().stats().writes, min_dram_writes) << c.key;
}

TEST(EventHorizon, ScheduledStateMatchesFullTickInLockstep)
{
    expectLockstep(horizonCases()[0], 40'000, 0);

    // A 4-core mix on two DRAM channels, with caches small enough that
    // dirty victims reach DRAM within the window: write drains, and
    // writebacks that re-enter DRAM's tick on a channel it has already
    // passed, are scheduler paths too.
    HorizonCase mix4{"mix4.hermes", SystemConfig::baseline(4), {}};
    mix4.config.l1Sets = 16;
    mix4.config.l2Sets = 16;
    mix4.config.llcBytesPerCore = 64 << 10;
    mix4.config.prefetcher = "pythia";
    mix4.config.predictor = "popet";
    mix4.config.hermesIssueEnabled = true;
    for (const char *spec : {"spec06.lbm_like.0", "spec17.lbm_like.0",
                             "corpus.mix", "spec06.mcf_like.0"})
        mix4.traces.push_back(resolveTrace(spec));
    expectLockstep(mix4, 80'000, 10);
}

void
expectBoundsHold(bool skip_enabled)
{
    // Drive the machine one cycle at a time (no fast-forward) and
    // check the horizon contract against the live state: every
    // component's bound is at least now + 1, monotone in `now` for
    // the state it was computed against, at least its wake slot, and
    // the whole-machine horizon is their floor.
    const auto sys = buildSystem(horizonCases()[0], skip_enabled);
    // Tick order: DRAM, LLC, L2, L1, core (one core here).
    const std::vector<Cycle> &wake = sys->wakeSlots();
    ASSERT_EQ(wake.size(), 5u);

    for (int i = 0; i < 20'000; ++i) {
        const Cycle now = sys->now();
        const Cycle core = sys->coreAt(0).nextEventCycle(now);
        const Cycle hermes = sys->hermesAt(0).nextEventCycle(now);
        const Cycle l1 = sys->l1At(0).nextEventCycle(now);
        const Cycle l2 = sys->l2At(0).nextEventCycle(now);
        const Cycle llc = sys->llc().nextEventCycle(now);
        const Cycle dram = sys->dram().nextEventCycle(now);
        ASSERT_GE(core, now + 1) << "core bound below floor at " << now;
        ASSERT_GE(l1, now + 1) << "L1 bound below floor at " << now;
        ASSERT_GE(l2, now + 1) << "L2 bound below floor at " << now;
        ASSERT_GE(llc, now + 1) << "LLC bound below floor at " << now;
        ASSERT_GE(dram, now + 1) << "DRAM bound below floor at " << now;

        // Monotone in `now` against a fixed state: asking the same
        // component about a later cycle never yields an earlier bound.
        ASSERT_GE(sys->coreAt(0).nextEventCycle(now + 1), core);
        ASSERT_GE(sys->dram().nextEventCycle(now + 1), dram);

        // A slot above its component's bound would sleep through work.
        ASSERT_LE(wake[0], dram) << "DRAM slot late at " << now;
        ASSERT_LE(wake[1], llc) << "LLC slot late at " << now;
        ASSERT_LE(wake[2], l2) << "L2 slot late at " << now;
        ASSERT_LE(wake[3], l1) << "L1 slot late at " << now;
        ASSERT_LE(wake[4], std::min(core, hermes))
            << "core slot late at " << now;

        const Cycle horizon = sys->nextEventHorizon();
        ASSERT_GE(horizon, now + 1) << "horizon below floor at " << now;
        ASSERT_LE(horizon, core);
        ASSERT_LE(horizon, l1);
        ASSERT_LE(horizon, l2);
        ASSERT_LE(horizon, llc);
        ASSERT_LE(horizon, dram);

        sys->tick();
        ASSERT_EQ(sys->now(), now + 1);
    }
}

TEST(EventHorizon, ComponentBoundsHoldCycleByCycle)
{
    expectBoundsHold(true);
    expectBoundsHold(false);
}

} // namespace
} // namespace hermes
