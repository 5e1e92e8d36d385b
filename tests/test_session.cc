// Checkpoint determinism tests for the SimSession snapshot/restore
// seam and the warmup checkpoint store:
//  1. snapshot -> restore -> measure reproduces the straight-run
//     fingerprint exactly, across predictors, prefetchers and a
//     multi-core mix — including against the pinned golden file, so a
//     restore that silently perturbs state fails the same way a
//     hot-path regression would;
//  2. corrupt, truncated, wrong-version, wrong-magic and
//     wrong-identity checkpoints are rejected (restore returns false)
//     and the session re-simulates to the correct result; a seeded
//     mutation pass (truncations at section frames and window edges,
//     byte flips, trailing bytes) holds restore() to the same rule,
//     restore does not depend on how its source chunks reads, and the
//     stream bytes are pinned so the wire format cannot drift;
//  3. warmupFingerprint() keys on warmup-affecting state only:
//     measure-only parameters (hermes.issue_latency, simInstrs) leave
//     it unchanged, warmup-affecting ones (predictor, warmup window)
//     change it;
//  4. the WarmupCache round-trips warmed state through disk, unlinks
//     bad entries and evicts past its budget (its spec grammar is the
//     shared store's, covered by test_content_store).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fnv.hh"
#include "common/rng.hh"
#include "common/state_io.hh"
#include "golden_util.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/warmup_cache.hh"
#include "trace/suite.hh"
#include "trace/trace_io.hh"
#include "test_helpers.hh"

namespace hermes
{
namespace
{

using golden::goldenBudget;
using golden::loadGoldens;
using test::VectorSink;
using test::VectorSource;

struct SessionCase
{
    std::string key;
    SystemConfig config;
    std::vector<TraceSpec> traces;
};

/**
 * >= 2 predictors x >= 2 prefetchers plus a heterogeneous 2-core mix,
 * all on the golden budget so the single-core Hermes case can also be
 * pinned against tests/golden/fingerprints.txt.
 */
std::vector<SessionCase>
sessionCases()
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

std::uint64_t
straightRunFingerprint(const SessionCase &c)
{
    SimSession s(c.config, c.traces, goldenBudget());
    s.build();
    s.warmup();
    s.measure();
    return statsFingerprint(s.collect());
}

/** Snapshot a freshly warmed session of @p c into a byte vector. */
std::vector<char>
snapshotBytes(const SessionCase &c)
{
    SimSession s(c.config, c.traces, goldenBudget());
    s.build();
    s.warmup();
    VectorSink sink;
    s.snapshot(sink);
    return sink.bytes;
}

TEST(Session, SnapshotRestoreMeasureMatchesStraightRun)
{
    for (const SessionCase &c : sessionCases()) {
        const std::uint64_t straight = straightRunFingerprint(c);
        ASSERT_NE(straight, 0u) << c.key;

        const std::vector<char> bytes = snapshotBytes(c);
        ASSERT_GT(bytes.size(), 20u) << c.key;

        SimSession restored(c.config, c.traces, goldenBudget());
        restored.build();
        ASSERT_TRUE(restored.checkpointable()) << c.key;
        VectorSource src(bytes);
        ASSERT_TRUE(restored.restore(src)) << c.key;
        restored.measure();
        EXPECT_EQ(statsFingerprint(restored.collect()), straight)
            << c.key << ": restore-from-checkpoint diverged from a "
            << "straight run";
    }
}

TEST(Session, RestoreIgnoresHowTheSourceChunksItsReads)
{
    // The reader must not care whether its source trickles 3 bytes per
    // read() or answers every request in full.
    for (const SessionCase &c : sessionCases()) {
        const std::uint64_t straight = straightRunFingerprint(c);
        const std::vector<char> bytes = snapshotBytes(c);
        for (const std::size_t max_read : {std::size_t{3}, SIZE_MAX}) {
            SimSession restored(c.config, c.traces, goldenBudget());
            restored.build();
            VectorSource src(bytes, max_read);
            ASSERT_TRUE(restored.restore(src))
                << c.key << " max_read=" << max_read;
            restored.measure();
            EXPECT_EQ(statsFingerprint(restored.collect()), straight)
                << c.key << " max_read=" << max_read;
        }
    }
}

TEST(Session, CheckpointBytesArePinned)
{
    // FNV-64 of each case's checkpoint stream. A change here means the
    // wire format moved: bump kCheckpointVersion and re-pin, never
    // re-pin alone.
    const std::map<std::string, std::uint64_t> pinned = {
        {"one.hermes.mcf", 0xff01b766191e5b98ull},
        {"popet.streamer", 0x2757e4cadc7f8989ull},
        {"hmp.spp", 0x7d57b85d220c6da0ull},
        {"mix2.hermes", 0xa8e99e42003a6cf4ull},
    };
    for (const SessionCase &c : sessionCases()) {
        const std::vector<char> bytes = snapshotBytes(c);
        Fnv64 h;
        h.addBytes(bytes.data(), bytes.size());
        ASSERT_EQ(pinned.count(c.key), 1u) << c.key;
        EXPECT_EQ(h.value(), pinned.at(c.key))
            << c.key << ": checkpoint of " << bytes.size()
            << " bytes hashes to 0x" << std::hex << h.value();
    }
}

TEST(Session, SimulateAndSessionAgreeWithGoldenFile)
{
    // simulate(), a hand-driven SimSession and a restored session must
    // all reproduce the pinned golden fingerprint for the case
    // test_determinism.cc also runs.
    const auto golden = loadGoldens();
    ASSERT_FALSE(golden.empty());
    const auto it = golden.find("one.hermes.mcf");
    ASSERT_NE(it, golden.end());

    const SessionCase c = sessionCases()[0];
    ASSERT_EQ(c.key, "one.hermes.mcf");

    EXPECT_EQ(straightRunFingerprint(c), it->second);
    EXPECT_EQ(statsFingerprint(
                  simulate(c.config, c.traces, goldenBudget())),
              it->second);

    SimSession restored(c.config, c.traces, goldenBudget());
    restored.build();
    VectorSource src(snapshotBytes(c));
    ASSERT_TRUE(restored.restore(src));
    restored.measure();
    EXPECT_EQ(statsFingerprint(restored.collect()), it->second);
}

TEST(Session, PhaseOrderEnforced)
{
    const SessionCase c = sessionCases()[0];
    SimSession s(c.config, c.traces, goldenBudget());
    EXPECT_THROW(s.warmup(), std::logic_error);
    EXPECT_THROW(s.measure(), std::logic_error);
    s.build();
    EXPECT_THROW(s.build(), std::logic_error);
    EXPECT_THROW(s.measure(), std::logic_error);
    VectorSink sink;
    EXPECT_THROW(s.snapshot(sink), std::logic_error);
    s.warmup();
    EXPECT_THROW(s.warmup(), std::logic_error);
    s.measure();
    EXPECT_THROW(s.measure(), std::logic_error);

    EXPECT_THROW(SimSession(c.config, {}, goldenBudget()),
                 std::invalid_argument);
}

/** Restore must fail cleanly and the fallback warmup must be exact. */
void
expectRejectedThenResimulates(const SessionCase &c,
                              std::vector<char> bytes,
                              const char *what)
{
    const std::uint64_t straight = straightRunFingerprint(c);
    SimSession s(c.config, c.traces, goldenBudget());
    s.build();
    VectorSource src(std::move(bytes));
    EXPECT_FALSE(s.restore(src)) << what << " accepted";
    // The failed restore left the session built; the normal path must
    // still produce the exact straight-run result.
    s.warmup();
    s.measure();
    EXPECT_EQ(statsFingerprint(s.collect()), straight)
        << what << ": re-simulation after rejected restore diverged";
}

TEST(Session, BadCheckpointsRejectedAndResimulated)
{
    const SessionCase c = sessionCases()[0];
    const std::vector<char> good = snapshotBytes(c);
    ASSERT_GT(good.size(), 32u);

    {
        // Flipping a byte in the component payload trips the checksum.
        std::vector<char> corrupt = good;
        corrupt[good.size() / 2] ^= 0x5a;
        expectRejectedThenResimulates(c, corrupt, "corrupt payload");
    }
    {
        std::vector<char> truncated(good.begin(),
                                    good.begin() + good.size() / 2);
        expectRejectedThenResimulates(c, truncated, "truncated stream");
    }
    {
        std::vector<char> trailing = good;
        trailing.push_back('x');
        expectRejectedThenResimulates(c, trailing, "trailing garbage");
    }
    {
        // Byte 0 of the magic ("HRMCKPT1" leads every stream).
        std::vector<char> magic = good;
        magic[0] ^= 0x01;
        expectRejectedThenResimulates(c, magic, "bad magic");
    }
    {
        // The u32 format version immediately follows the 8-byte magic.
        std::vector<char> version = good;
        version[8] ^= 0x01;
        expectRejectedThenResimulates(c, version, "version mismatch");
    }
    {
        EXPECT_TRUE(std::string(SimSession::kCheckpointMagic) ==
                    std::string(good.data(), 8));
    }
}

TEST(Session, WrongIdentityCheckpointRejected)
{
    // A checkpoint from a different warmup identity (hmp+spp) must not
    // restore into a popet+pythia session.
    const auto cases = sessionCases();
    const SessionCase &target = cases[0];
    const SessionCase &other = cases[2];

    SimSession s(target.config, target.traces, goldenBudget());
    s.build();
    VectorSource src(snapshotBytes(other));
    EXPECT_FALSE(s.restore(src));
    s.warmup();
    s.measure();
    EXPECT_EQ(statsFingerprint(s.collect()),
              straightRunFingerprint(target));
}

/** A mutated checkpoint, and where its source must end a read(). */
struct Mutant
{
    std::string what;
    std::vector<char> bytes;
    std::size_t cut = SIZE_MAX;
};

/** Offsets of the section frames: a u64 length of 4, then the tag. */
std::vector<std::size_t>
sectionOffsets(const std::vector<char> &bytes)
{
    static const char kLen4[8] = {4, 0, 0, 0, 0, 0, 0, 0};
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i + 12 <= bytes.size(); ++i) {
        if (std::memcmp(&bytes[i], kLen4, 8) != 0)
            continue;
        const bool tag = std::all_of(
            bytes.begin() + i + 8, bytes.begin() + i + 12, [](char ch) {
                return (ch >= 'A' && ch <= 'Z') || (ch >= '0' && ch <= '9');
            });
        if (tag)
            out.push_back(i);
    }
    return out;
}

/**
 * The seeded mutants of the checkpoint @p good, whose restore read()s
 * stopped at @p read_ends (the reader's window edges): truncations at
 * every section boundary and at each window edge +-1, byte flips, and
 * trailing bytes after an end that is also a window edge.
 */
std::vector<Mutant>
checkpointMutants(const std::vector<char> &good,
                  const std::vector<std::size_t> &read_ends,
                  std::uint64_t seed)
{
    std::vector<Mutant> out;
    auto truncate = [&](std::size_t at, const std::string &why) {
        if (at < good.size())
            out.push_back({why + " @" + std::to_string(at),
                           std::vector<char>(good.begin(),
                                             good.begin() + at)});
    };
    for (const std::size_t at : sectionOffsets(good)) {
        truncate(at, "truncated at section frame");
        truncate(at + 12, "truncated after section tag");
    }
    for (const std::size_t edge : read_ends)
        for (const std::size_t at : {edge - 1, edge, edge + 1})
            truncate(at, "truncated at window edge");
    for (const std::size_t at : {std::size_t{0}, std::size_t{8},
                                 good.size() - 8, good.size() - 1})
        truncate(at, "truncated");

    Rng rng(seed);
    for (int i = 0; i < 32; ++i) {
        Mutant m{"", good};
        const std::size_t at = rng.below(good.size());
        m.bytes[at] ^= static_cast<char>(1 + rng.below(255));
        m.what = "byte flip @" + std::to_string(at);
        out.push_back(std::move(m));
    }

    for (const std::size_t extra : {std::size_t{1}, std::size_t{8},
                                    kStateWindow}) {
        Mutant m{"trailing " + std::to_string(extra) + " bytes", good};
        m.bytes.resize(good.size() + extra, 'x');
        out.push_back(m);
        m.what += " after a window-aligned end";
        m.cut = good.size();
        out.push_back(std::move(m));
    }
    return out;
}

TEST(CheckpointMutation, SeededMutantsRejectedAndSampleResimulates)
{
    // Every mutant must be rejected by restore() without a crash (this
    // test also runs under ASan/UBSan); every kSampleEvery-th rejected
    // session then warms up and must match the straight run.
    constexpr std::size_t kSampleEvery = 24;
    const auto cases = sessionCases();
    for (const SessionCase *c : {&cases[0], &cases[2]}) {
        const std::uint64_t straight = straightRunFingerprint(*c);
        const std::vector<char> good = snapshotBytes(*c);

        std::unique_ptr<SimSession> s;
        auto fresh = [&] {
            s = std::make_unique<SimSession>(c->config, c->traces,
                                             goldenBudget());
            s->build();
        };
        fresh();
        VectorSource probe(good);
        ASSERT_TRUE(s->restore(probe)) << c->key;
        ASSERT_GE(probe.readEnds.size(), 2u) << c->key;
        fresh();

        const std::vector<Mutant> mutants =
            checkpointMutants(good, probe.readEnds, 0x5eed);
        std::size_t sampled = 0;
        for (std::size_t i = 0; i < mutants.size(); ++i) {
            const Mutant &m = mutants[i];
            VectorSource src(m.bytes, SIZE_MAX, m.cut);
            if (s->restore(src)) {
                ADD_FAILURE() << c->key << ": " << m.what << " accepted";
                fresh();
                continue;
            }
            if (i % kSampleEvery != 0)
                continue;
            s->warmup();
            s->measure();
            EXPECT_EQ(statsFingerprint(s->collect()), straight)
                << c->key << ": re-warm after " << m.what << " diverged";
            ++sampled;
            fresh();
        }
        EXPECT_GE(sampled, 3u) << c->key;
    }
}

TEST(Session, WarmupFingerprintTracksWarmupAffectingStateOnly)
{
    const SessionCase base = sessionCases()[0];
    auto fp = [&base](SystemConfig cfg, SimBudget b) {
        SimSession s(std::move(cfg), base.traces, b);
        return s.warmupFingerprint();
    };
    const std::uint64_t ref = fp(base.config, goldenBudget());

    // Measure-only knobs: same identity, so checkpoints are shared
    // across these sweep points.
    SimBudget longer_measure = goldenBudget();
    longer_measure.simInstrs *= 2;
    EXPECT_EQ(fp(base.config, longer_measure), ref);

    // Warmup-affecting knobs: distinct identities.
    SystemConfig other_pred = base.config;
    other_pred.predictor = "hmp";
    EXPECT_NE(fp(other_pred, goldenBudget()), ref);

    SystemConfig other_pf = base.config;
    other_pf.prefetcher = "streamer";
    EXPECT_NE(fp(other_pf, goldenBudget()), ref);

    SimBudget longer_warmup = goldenBudget();
    longer_warmup.warmupInstrs *= 2;
    EXPECT_NE(fp(base.config, longer_warmup), ref);

    // hermes.issue_latency *does* matter when requests issue during
    // warmup (the default): the warmed state depends on it...
    SystemConfig warm_issue_lat = base.config;
    warm_issue_lat.hermesIssueLatency = 18;
    ASSERT_TRUE(base.config.hermesWarmupIssue);
    EXPECT_NE(fp(warm_issue_lat, goldenBudget()), ref);

    // ...but gating warmup issue makes it measure-only: this is the
    // identity-sharing a post-warmup latency sweep relies on.
    SystemConfig gated = base.config;
    gated.hermesWarmupIssue = false;
    SystemConfig gated_lat = gated;
    gated_lat.hermesIssueLatency = 18;
    EXPECT_EQ(fp(gated_lat, goldenBudget()), fp(gated, goldenBudget()));

    // A different trace is a different warmed machine.
    SimSession other_trace(
        base.config, {findTrace("parsec.streamcluster_like.0")},
        goldenBudget());
    EXPECT_NE(other_trace.warmupFingerprint(), ref);
}

std::string
tempDir(const std::string &name)
{
    const std::string dir =
        ::testing::TempDir() + "hermes_warmup_" + name;
    std::string cmd = "rm -rf '" + dir + "'";
    if (std::system(cmd.c_str()) != 0)
        ADD_FAILURE() << "cannot clear " << dir;
    return dir;
}

TEST(WarmupCacheTest, RoundTripSharesOneWarmup)
{
    SessionCase c = sessionCases()[0];
    // Gate Hermes issue out of warmup so hermes.issue_latency becomes
    // measure-only and the latency sweep below shares one checkpoint.
    c.config.hermesWarmupIssue = false;
    WarmupCache cache({tempDir("roundtrip")});

    SimSession cold(c.config, c.traces, goldenBudget());
    const RunStats first = runSession(cold, &cache);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().stores, 1u);
    EXPECT_EQ(cache.entryCount(), 1u);

    SimSession warm(c.config, c.traces, goldenBudget());
    const RunStats second = runSession(warm, &cache);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().stores, 1u);
    EXPECT_EQ(statsFingerprint(second), statsFingerprint(first));

    // A measure-only variation shares the same checkpoint...
    SessionCase latency = c;
    latency.config.hermesIssueLatency = 18;
    SimSession shared(latency.config, latency.traces, goldenBudget());
    runSession(shared, &cache);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.entryCount(), 1u);

    // ...and its stats equal an uncached run of the same point.
    SimSession uncached(latency.config, latency.traces, goldenBudget());
    EXPECT_EQ(statsFingerprint(shared.collect()),
              statsFingerprint(runSession(uncached, nullptr)));
}

TEST(WarmupCacheTest, CorruptEntryUnlinkedAndRewarmed)
{
    const SessionCase c = sessionCases()[0];
    const std::string dir = tempDir("corrupt");
    WarmupCache cache({dir});

    SimSession cold(c.config, c.traces, goldenBudget());
    const std::uint64_t straight =
        statsFingerprint(runSession(cold, &cache));
    const std::string entry =
        dir + "/" + WarmupCache::entryName(cold.warmupFingerprint());
    {
        std::ofstream out(entry, std::ios::binary | std::ios::trunc);
        out << "not a checkpoint";
    }

    SimSession again(c.config, c.traces, goldenBudget());
    EXPECT_EQ(statsFingerprint(runSession(again, &cache)), straight);
    EXPECT_EQ(cache.stats().rejected, 1u);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().stores, 2u); // rewritten cleanly
    EXPECT_EQ(cache.entryCount(), 1u);
}

TEST(WarmupCacheTest, EvictsPastEntryBudget)
{
    const auto cases = sessionCases();
    WarmupCacheConfig cfg{tempDir("evict")};
    cfg.maxEntries = 1;
    WarmupCache cache(std::move(cfg));

    SimSession a(cases[0].config, cases[0].traces, goldenBudget());
    runSession(a, &cache);
    SimSession b(cases[2].config, cases[2].traces, goldenBudget());
    runSession(b, &cache);
    EXPECT_EQ(cache.stats().stores, 2u);
    EXPECT_EQ(cache.stats().evicted, 1u);
    EXPECT_EQ(cache.entryCount(), 1u);
}

} // namespace
} // namespace hermes
