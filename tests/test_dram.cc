// Tests for the DDR4 memory controller: timing classes, bus
// serialisation, merging, write handling and the Hermes datapath
// (merge / drop semantics, §6.2).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/state_io.hh"
#include "dram/dram.hh"
#include "test_helpers.hh"

namespace hermes
{
namespace
{

using test::loadReq;
using test::RecordingClient;
using test::VectorSink;
using test::VectorSource;

struct DramHarness
{
    explicit DramHarness(DramParams p = DramParams{}) : dram(p)
    {
        dram.setClient(0, &client);
    }

    void
    run(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i)
            dram.tick(++now);
    }

    /** Cycles until the next response arrives (asserts it does). */
    Cycle
    latencyOfNextResponse(Cycle limit = 2000)
    {
        const std::size_t before = client.responses.size();
        const Cycle start = now;
        while (client.responses.size() == before && now < start + limit)
            run(1);
        EXPECT_GT(client.responses.size(), before);
        return now - start;
    }

    DramController dram;
    RecordingClient client;
    Cycle now = 0;
};

TEST(Dram, ClosedRowLatency)
{
    DramHarness h;
    h.dram.addRead(loadReq(0x10000));
    // tRCD + tCAS + burst = 50 + 50 + 10 = 110.
    const Cycle lat = h.latencyOfNextResponse();
    EXPECT_GE(lat, 110u);
    EXPECT_LE(lat, 115u);
    EXPECT_EQ(h.dram.stats().rowMisses, 1u);
}

TEST(Dram, RowHitFasterThanConflict)
{
    DramHarness h;
    h.dram.addRead(loadReq(0x10000));
    h.latencyOfNextResponse();

    // Same row: row hit (tCAS + burst = 60).
    h.dram.addRead(loadReq(0x10040, 0x400000, 0, 2));
    const Cycle hit_lat = h.latencyOfNextResponse();
    EXPECT_GE(hit_lat, 60u);
    EXPECT_LE(hit_lat, 65u);
    EXPECT_EQ(h.dram.stats().rowHits, 1u);

    // Different row, same bank: conflict (tRP + tRCD + tCAS + burst).
    const DramParams &p = h.dram.params();
    const unsigned banks = p.ranksPerChannel * p.banksPerRank;
    const Addr conflict =
        0x10000 + static_cast<Addr>(p.rowBufferBytes) * banks;
    h.dram.addRead(loadReq(conflict, 0x400000, 0, 3));
    const Cycle conf_lat = h.latencyOfNextResponse();
    EXPECT_GE(conf_lat, 160u);
    EXPECT_EQ(h.dram.stats().rowConflicts, 1u);
}

TEST(Dram, RowHitsPipelineAtBusRate)
{
    DramHarness h;
    // 8 sequential lines in the same row: after the activation, each
    // additional line should cost ~the bus burst (10 cycles), not tCAS.
    for (int i = 0; i < 8; ++i)
        h.dram.addRead(loadReq(0x20000 + i * 64, 0x400000, 0, i + 1));
    const Cycle start = h.now;
    while (h.client.responses.size() < 8 && h.now < start + 2000)
        h.run(1);
    ASSERT_EQ(h.client.responses.size(), 8u);
    const Cycle total = h.now - start;
    // 110 for the first + ~7*10 for the rest, plus scheduling slack.
    EXPECT_LE(total, 110 + 7 * 10 + 30);
}

TEST(Dram, BankParallelismOverlapsActivations)
{
    DramHarness h;
    const DramParams &p = h.dram.params();
    // Two reads to different banks: total time well under 2x serial.
    h.dram.addRead(loadReq(0x10000, 0x400000, 0, 1));
    h.dram.addRead(loadReq(0x10000 + p.rowBufferBytes, 0x400000, 0, 2));
    const Cycle start = h.now;
    while (h.client.responses.size() < 2 && h.now < start + 2000)
        h.run(1);
    EXPECT_LT(h.now - start, 180u); // serial would be ~220
}

TEST(Dram, ReadsMergeOnSameLine)
{
    DramHarness h;
    h.dram.addRead(loadReq(0x30000, 0x400000, 0, 1));
    h.dram.addRead(loadReq(0x30000, 0x400004, 0, 2));
    h.run(300);
    EXPECT_EQ(h.client.responses.size(), 2u);
    EXPECT_EQ(h.dram.stats().demandReads, 1u);
    EXPECT_EQ(h.dram.stats().readMerges, 1u);
}

TEST(Dram, WriteQueueForwardsToReads)
{
    DramHarness h;
    MemRequest wb = loadReq(0x40000);
    wb.type = AccessType::Writeback;
    h.dram.addWrite(wb);
    h.run(1);
    h.dram.addRead(loadReq(0x40000, 0x400000, 0, 7));
    h.run(5);
    ASSERT_EQ(h.client.responses.size(), 1u); // forwarded immediately
    EXPECT_EQ(h.dram.stats().wqForwards, 1u);
}

TEST(Dram, WritesEventuallyDrain)
{
    DramHarness h;
    for (int i = 0; i < 10; ++i) {
        MemRequest wb = loadReq(0x50000 + i * 64);
        wb.type = AccessType::Writeback;
        h.dram.addWrite(wb);
    }
    h.run(3000);
    EXPECT_EQ(h.dram.stats().writes, 10u);
}

TEST(Dram, ReadQueueFullRejects)
{
    DramParams p;
    p.rqSize = 4;
    DramHarness h(p);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(h.dram.addRead(
            loadReq(0x100000 + i * 0x10000, 0x400000, 0, i + 1)));
    EXPECT_FALSE(h.dram.addRead(loadReq(0x900000, 0x400000, 0, 9)));
}

TEST(Dram, BandwidthScalesWithMtps)
{
    DramParams slow;
    slow.mtps = 200;
    DramParams fast;
    fast.mtps = 12800;
    EXPECT_GT(slow.busCyclesPerLine(), fast.busCyclesPerLine());
    EXPECT_EQ(DramParams{}.busCyclesPerLine(), 10u); // DDR4-3200 @ 4GHz
}

TEST(Dram, ChannelInterleavingByLine)
{
    DramParams p;
    p.channels = 4;
    DramHarness h(p);
    // 4 consecutive lines land in 4 different channels: all four can
    // be in flight with full parallelism.
    for (int i = 0; i < 4; ++i)
        h.dram.addRead(loadReq(i * 64, 0x400000, 0, i + 1));
    const Cycle start = h.now;
    while (h.client.responses.size() < 4 && h.now < start + 1000)
        h.run(1);
    EXPECT_LE(h.now - start, 130u); // ~one access, fully overlapped
}

// ---- Wake slot (common/wake.hh) ----------------------------------------

/** A controller seated in a one-component wake-time schedule. */
struct ScheduledDram
{
    explicit ScheduledDram(DramParams p = DramParams{}) : dram(p)
    {
        dram.attach(&clock, kStageDram, &slot);
    }

    /** One cycle: tick only when the slot is due, as System does. */
    void
    step()
    {
        clock.now += 1;
        clock.stage = kStageDram;
        if (slot <= clock.now)
            dram.tick(clock.now);
        clock.stage = kStageDone;
    }

    SimClock clock;
    Cycle slot = 0;
    DramController dram;
};

TEST(DramWake, EnqueuesLowerTheSlotToTheNextCycle)
{
    ScheduledDram s;
    s.clock.now = 100;
    s.slot = kNoEventCycle;
    MemRequest wr = loadReq(0x4000);
    wr.type = AccessType::Writeback;
    s.dram.addWrite(wr);
    EXPECT_EQ(s.slot, 101u);

    s.slot = kNoEventCycle;
    s.dram.addRead(loadReq(0x8000));
    EXPECT_EQ(s.slot, 101u);
    EXPECT_EQ(s.dram.nextEventCycle(100), 101u);

    // A merge into the queued read adds no work.
    s.slot = kNoEventCycle;
    s.dram.addRead(loadReq(0x8000));
    EXPECT_EQ(s.slot, kNoEventCycle);

    s.slot = kNoEventCycle;
    MemRequest h = loadReq(0xC000);
    h.type = AccessType::Hermes;
    s.dram.addHermes(h);
    EXPECT_EQ(s.slot, 101u);
}

TEST(DramWake, TickRewritesTheSlotWithoutSleepingThroughWork)
{
    // After every tick the slot is a lower bound on the controller's
    // own bound, and an idle controller sleeps.
    ScheduledDram s;
    RecordingClient client;
    s.dram.setClient(0, &client);
    s.dram.addRead(loadReq(0x10000));
    s.dram.addRead(loadReq(0x20040));
    while (client.responses.size() < 2 && s.clock.now < 2000) {
        s.step();
        ASSERT_LE(s.slot, s.dram.nextEventCycle(s.clock.now));
        ASSERT_GT(s.slot, s.clock.now);
    }
    EXPECT_EQ(client.responses.size(), 2u);
    s.step();
    EXPECT_EQ(s.slot, kNoEventCycle);
}

/** Answers each read by writing back a line on channel 0. */
class WritebackClient : public MemClient
{
  public:
    explicit WritebackClient(DramController &dram) : dram_(dram) {}

    void
    returnData(const MemRequest &req) override
    {
        responses.push_back(req);
        MemRequest wb = loadReq(0x40 * 8); // line 8: channel 0
        wb.type = AccessType::Writeback;
        dram_.addWrite(wb);
    }

    std::vector<MemRequest> responses;

  private:
    DramController &dram_;
};

TEST(DramWake, WriteReenteringTheTickOnAPassedChannelKeepsItsWake)
{
    // A read on channel 1 completes; its response writes back a line
    // on channel 0, which this tick has already passed. The write must
    // still be scheduled next cycle, as a full-tick loop would.
    DramParams p;
    p.channels = 2;
    ScheduledDram s(p);
    WritebackClient client(s.dram);
    s.dram.setClient(0, &client);
    s.dram.addRead(loadReq(0x40 * 9)); // line 9: channel 1
    while (client.responses.empty() && s.clock.now < 2000)
        s.step();
    ASSERT_EQ(client.responses.size(), 1u);
    EXPECT_EQ(s.slot, s.clock.now + 1);
    while (s.dram.stats().writes == 0 && s.clock.now < 4000)
        s.step();

    // The same traffic ticked every cycle finishes the write together.
    DramController full(p);
    WritebackClient full_client(full);
    full.setClient(0, &full_client);
    full.addRead(loadReq(0x40 * 9));
    Cycle now = 0;
    while (full.stats().writes == 0 && now < 4000)
        full.tick(++now);
    EXPECT_EQ(s.clock.now, now);
}

// ---- Hermes datapath at the MC (paper §6.2) --------------------------

TEST(DramHermes, DroppedWhenNoRegularArrives)
{
    DramHarness h;
    MemRequest hq = loadReq(0x60000);
    hq.type = AccessType::Hermes;
    EXPECT_TRUE(h.dram.addHermes(hq));
    h.run(500);
    EXPECT_EQ(h.dram.stats().hermesIssued, 1u);
    EXPECT_EQ(h.dram.stats().hermesDropped, 1u);
    EXPECT_EQ(h.dram.stats().hermesUseful, 0u);
    // Crucially: no data was returned to any cache (no fill).
    EXPECT_TRUE(h.client.responses.empty());
}

TEST(DramHermes, RegularMergesIntoHermesAndCompletesEarlier)
{
    DramHarness h;
    MemRequest hq = loadReq(0x70000);
    hq.type = AccessType::Hermes;
    h.dram.addHermes(hq);
    h.run(49); // Hermes request under way (issue latency elapsed)

    h.dram.addRead(loadReq(0x70000, 0x400000, 0, 5));
    const Cycle lat = h.latencyOfNextResponse();
    ASSERT_EQ(h.client.responses.size(), 1u);
    EXPECT_TRUE(h.client.responses[0].servedByHermes);
    EXPECT_EQ(h.dram.stats().hermesUseful, 1u);
    EXPECT_EQ(h.dram.stats().hermesDropped, 0u);
    // The regular read waited only the residual latency (~110-49).
    EXPECT_LT(lat, 75u);
}

TEST(DramHermes, HermesMergesIntoExistingRead)
{
    DramHarness h;
    h.dram.addRead(loadReq(0x80000));
    MemRequest hq = loadReq(0x80000);
    hq.type = AccessType::Hermes;
    EXPECT_TRUE(h.dram.addHermes(hq));
    EXPECT_EQ(h.dram.stats().hermesMergedIntoExisting, 1u);
    EXPECT_EQ(h.dram.stats().hermesIssued, 0u);
    h.run(300);
    EXPECT_EQ(h.client.responses.size(), 1u);
    // The pre-existing demand read is not marked Hermes-served.
    EXPECT_FALSE(h.client.responses[0].servedByHermes);
}

TEST(DramHermes, RejectedWhenQueueFull)
{
    DramParams p;
    p.rqSize = 1;
    DramHarness h(p);
    h.dram.addRead(loadReq(0x10000));
    MemRequest hq = loadReq(0x90000);
    hq.type = AccessType::Hermes;
    EXPECT_FALSE(h.dram.addHermes(hq));
    EXPECT_EQ(h.dram.stats().hermesRejected, 1u);
}

TEST(DramHermes, CountsAsMainMemoryRequest)
{
    DramHarness h;
    MemRequest hq = loadReq(0xA0000);
    hq.type = AccessType::Hermes;
    h.dram.addHermes(hq);
    h.run(500);
    EXPECT_EQ(h.dram.stats().totalReads(), 1u);
    EXPECT_EQ(h.dram.stats().hermesReads, 1u);
}

/** Property: under random traffic every accepted read gets exactly one
 * response per waiter, and row stats partition all accesses. */
class DramRandomTraffic : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DramRandomTraffic, ConservesRequests)
{
    DramParams p;
    p.channels = GetParam();
    DramHarness h(p);
    Rng rng(99);
    unsigned accepted = 0;
    for (int i = 0; i < 400; ++i) {
        const Addr addr = (rng.below(1 << 16)) << 6;
        if (rng.chance(0.2)) {
            MemRequest wb = loadReq(addr);
            wb.type = AccessType::Writeback;
            h.dram.addWrite(wb);
        } else if (h.dram.addRead(loadReq(addr, 0x400000, 0, i))) {
            ++accepted;
        }
        h.run(3);
    }
    h.run(30000);
    EXPECT_EQ(h.client.responses.size(), accepted);
    const auto &s = h.dram.stats();
    EXPECT_EQ(s.rowHits + s.rowMisses + s.rowConflicts,
              s.totalReads() + s.writes);
}

INSTANTIATE_TEST_SUITE_P(Channels, DramRandomTraffic,
                         ::testing::Values(1u, 2u, 4u));

// ---- Checkpoint hardening -------------------------------------------
//
// loadState() checks every index and count it reads before using it.
// Each test hand-writes a one-channel DRAM section with StateWriter,
// breaking exactly one rule, and requires a StateError (never a crash:
// these run under ASan/UBSan in CI).

/** Contents of a hand-written read-queue entry. */
struct CkptRead
{
    Addr line = 0;
    std::uint32_t bank = 0;
    std::uint8_t state = 0; ///< 0 Queued, 1 Issued
    bool hermesInitiated = false;
    unsigned waiters = 1;
};

/** A one-channel DRAM section; counters default to a recount. */
struct CkptSection
{
    std::vector<CkptRead> reads;
    std::vector<std::uint32_t> writeBanks; ///< one Queued write each
    std::uint8_t writeState = 0;
    std::uint64_t banks = 16;
    int queuedReadsSkew = 0;
    int issuedWritesSkew = 0;
};

std::vector<char>
writeSection(const CkptSection &c)
{
    VectorSink sink;
    StateWriter w(sink);
    w.section("DRAM");
    w.u64(1); // channels
    unsigned queued = 0;
    unsigned issued = 0;
    w.u64(c.reads.size());
    for (const CkptRead &rd : c.reads) {
        w.u64(rd.line);
        w.u32(rd.bank);
        w.u64(0);     // row
        w.u64(0);     // arrived
        w.u8(rd.state);
        w.u64(rd.state == 1 ? 500 : 0); // finishAt
        w.b(rd.hermesInitiated && rd.waiters == 0); // hermesOnly
        w.b(rd.hermesInitiated);
        w.u64(rd.waiters);
        for (unsigned k = 0; k < rd.waiters; ++k)
            saveMemRequest(w, loadReq(rd.line << kLogBlockSize));
        ++(rd.state == 0 ? queued : issued);
    }
    w.u64(c.writeBanks.size());
    for (std::uint32_t bank : c.writeBanks) {
        w.u64(0x7000);
        w.u32(bank);
        w.u64(0);
        w.u64(0);
        w.u8(c.writeState);
        w.u64(0);
    }
    w.u64(c.banks);
    for (std::uint64_t b = 0; b < c.banks; ++b) {
        w.b(false);
        w.u64(0);
        w.u64(0);
    }
    w.u64(0);     // busFreeAt
    w.b(false);   // drainingWrites
    w.u32(static_cast<std::uint32_t>(queued + c.queuedReadsSkew));
    w.u32(issued);
    w.u32(static_cast<std::uint32_t>(c.writeState == 0
                                         ? c.writeBanks.size()
                                         : 0));
    w.u32(static_cast<std::uint32_t>(
        (c.writeState == 1 ? c.writeBanks.size() : 0) +
        c.issuedWritesSkew));
    w.u64(issued != 0 ? 500 : 0); // nextReadFinish
    w.u64(0);                     // nextWriteFinish
    w.u64(42);                    // now
    w.sealChecksum();
    return sink.bytes;
}

/** Geometry of the hand-written sections: 2 ranks x 8 banks. */
DramParams
ckptParams()
{
    DramParams p;
    p.ranksPerChannel = 2;
    p.rqSize = 4;
    return p;
}

void
loadSection(DramController &dram, const std::vector<char> &bytes)
{
    VectorSource source(bytes);
    StateReader r(source);
    dram.loadState(r);
    r.verifyChecksum();
}

CkptSection
validSection()
{
    CkptSection c;
    c.reads = {{0x10, 0, 0, false, 1},
               {0x11, 15, 1, false, 2},
               {0x12, 3, 0, true, 0}};
    c.writeBanks = {0, 15};
    return c;
}

TEST(DramCheckpoint, HandWrittenSectionRoundTrips)
{
    const std::vector<char> bytes = writeSection(validSection());
    DramController dram(ckptParams());
    loadSection(dram, bytes);
    EXPECT_TRUE(dram.probeRead(0x10));
    EXPECT_TRUE(dram.probeRead(0x12));
    VectorSink again;
    StateWriter w(again);
    dram.saveState(w);
    w.sealChecksum();
    EXPECT_EQ(again.bytes, bytes);
}

/** Loading @p c must throw a StateError whose message names @p why. */
void
expectRejected(const CkptSection &c, const std::string &why)
{
    DramController dram(ckptParams());
    try {
        loadSection(dram, writeSection(c));
        ADD_FAILURE() << "accepted; expected rejection for: " << why;
    } catch (const StateError &e) {
        EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
            << e.what();
    }
}

TEST(DramCheckpoint, RejectsReadQueueLongerThanRqSize)
{
    CkptSection c = validSection();
    c.reads.push_back({0x20, 1, 0, false, 1});
    c.reads.push_back({0x21, 2, 0, false, 1});
    expectRejected(c, "longer than rqSize");
}

TEST(DramCheckpoint, RejectsReadBankOutOfRange)
{
    CkptSection c = validSection();
    c.reads[1].bank = 16; // ranks x banks = 16
    expectRejected(c, "read bank out of range");
    c.reads[1].bank = 0xFFFFFFFFu;
    expectRejected(c, "read bank out of range");
}

TEST(DramCheckpoint, RejectsWriteBankOutOfRange)
{
    CkptSection c = validSection();
    c.writeBanks[1] = 16;
    expectRejected(c, "write bank out of range");
}

TEST(DramCheckpoint, RejectsUnknownStateByte)
{
    CkptSection c = validSection();
    c.reads[0].state = 2;
    expectRejected(c, "state out of range");
    c = validSection();
    c.writeState = 7;
    expectRejected(c, "state out of range");
}

TEST(DramCheckpoint, RejectsDuplicateReadLine)
{
    CkptSection c = validSection();
    c.reads[2].line = c.reads[0].line;
    expectRejected(c, "holds a line twice");
}

TEST(DramCheckpoint, RejectsRegularReadWithoutWaiter)
{
    CkptSection c = validSection();
    c.reads[0].waiters = 0;
    expectRejected(c, "without a waiter");
}

TEST(DramCheckpoint, RejectsCountersThatDisagreeWithEntries)
{
    CkptSection c = validSection();
    c.queuedReadsSkew = 1;
    expectRejected(c, "counters disagree");
    c = validSection();
    c.issuedWritesSkew = 1;
    expectRejected(c, "counters disagree");
}

TEST(DramCheckpoint, RejectsBankCountMismatch)
{
    CkptSection c = validSection();
    c.banks = 8;
    expectRejected(c, "bank count mismatch");
}

} // namespace
} // namespace hermes
