// Tests for the out-of-order core model: retirement, load blocking,
// dependences, branch misprediction penalties, queue limits and stall
// attribution.

#include <gtest/gtest.h>

#include "core/ooo_core.hh"
#include "test_helpers.hh"

namespace hermes
{
namespace
{

using test::FakeMemory;

/** Finite script followed by an infinite ALU filler. */
class ScriptedWorkload : public Workload
{
  public:
    explicit ScriptedWorkload(std::vector<TraceInstr> script)
        : script_(std::move(script))
    {
    }

    const std::string &name() const override { return name_; }
    const std::string &category() const override { return name_; }

    TraceInstr
    next() override
    {
        if (pos_ < script_.size())
            return script_[pos_++];
        TraceInstr t;
        t.pc = 0x400800;
        t.kind = InstrKind::Alu;
        return t;
    }

    std::unique_ptr<Workload>
    clone(std::uint64_t) const override
    {
        return std::make_unique<ScriptedWorkload>(script_);
    }

  private:
    std::vector<TraceInstr> script_;
    std::size_t pos_ = 0;
    std::string name_ = "scripted";
};

TraceInstr
alu()
{
    TraceInstr t;
    t.pc = 0x400000;
    t.kind = InstrKind::Alu;
    return t;
}

TraceInstr
load(Addr addr, std::uint32_t dep = 0)
{
    TraceInstr t;
    t.pc = 0x400010;
    t.kind = InstrKind::Load;
    t.vaddr = addr;
    t.depDistance = dep;
    return t;
}

TraceInstr
store(Addr addr)
{
    TraceInstr t;
    t.pc = 0x400020;
    t.kind = InstrKind::Store;
    t.vaddr = addr;
    return t;
}

TraceInstr
branch(bool taken, Addr pc = 0x400030)
{
    TraceInstr t;
    t.pc = pc;
    t.kind = InstrKind::Branch;
    t.branchTaken = taken;
    return t;
}

struct CoreHarness
{
    explicit CoreHarness(std::vector<TraceInstr> script,
                         CoreParams params = CoreParams{},
                         Cycle mem_latency = 40)
        : memory(mem_latency), workload(std::move(script)),
          core(0, params, &workload, &memory, nullptr)
    {
        memory.setClient(&core);
    }

    void
    run(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i) {
            ++now;
            memory.tick(now);
            core.tick(now);
        }
    }

    FakeMemory memory;
    ScriptedWorkload workload;
    OooCore core;
    Cycle now = 0;
};

TEST(Core, AluIpcApproachesWidth)
{
    CoreHarness h({});
    h.run(2000);
    // 6-wide fetch/retire of pure ALU should sustain IPC near 6.
    EXPECT_GT(h.core.stats().ipc(), 4.5);
}

TEST(Core, LoadBlocksRetirementUntilDataReturns)
{
    std::vector<TraceInstr> script = {load(0x1000)};
    for (int i = 0; i < 100; ++i)
        script.push_back(alu());
    CoreHarness h(script, CoreParams{}, 100);
    h.run(400);
    const auto &s = h.core.stats();
    EXPECT_EQ(s.loadsRetired, 1u);
    EXPECT_EQ(s.loadsOffChip, 1u); // FakeMemory serves from "DRAM"
    EXPECT_EQ(s.offChipBlocking, 1u);
    EXPECT_GT(s.stallCyclesOffChip, 50u);
}

TEST(Core, IndependentLoadsOverlap)
{
    std::vector<TraceInstr> script;
    for (int i = 0; i < 16; ++i)
        script.push_back(load(0x1000 + i * 0x100));
    CoreHarness h(script, CoreParams{}, 100);
    h.run(100 + 150);
    // All 16 loads retire in roughly one memory latency, not 16.
    EXPECT_EQ(h.core.stats().loadsRetired, 16u);
}

TEST(Core, DependentLoadsSerialise)
{
    // Chain of 4 loads, each depending on the previous one.
    std::vector<TraceInstr> script;
    script.push_back(load(0x1000));
    for (int i = 1; i < 4; ++i)
        script.push_back(load(0x1000 + i * 0x100, 1));
    CoreHarness h(script, CoreParams{}, 100);
    h.run(250);
    EXPECT_LT(h.core.stats().loadsRetired, 4u); // not done yet
    h.run(250);
    EXPECT_EQ(h.core.stats().loadsRetired, 4u); // ~4 x latency total
}

TEST(Core, BranchMispredictStallsFetch)
{
    // Pseudo-random branch outcomes are inherently unpredictable;
    // throughput must fall well below the all-ALU rate.
    std::vector<TraceInstr> script;
    std::uint64_t lfsr = 0xACE1u;
    for (int i = 0; i < 600; ++i) {
        lfsr = (lfsr >> 1) ^ (-(lfsr & 1u) & 0xB400u);
        script.push_back(branch((lfsr & 4) != 0));
        script.push_back(alu());
    }
    CoreHarness h(script);
    h.run(800);
    EXPECT_GT(h.core.stats().branchMispredicts, 20u);
    EXPECT_LT(h.core.stats().ipc(), 3.0);
}

TEST(Core, PredictableBranchesLearnt)
{
    std::vector<TraceInstr> script;
    for (int i = 0; i < 2000; ++i) {
        script.push_back(branch(true));
        script.push_back(alu());
    }
    CoreHarness h(script);
    h.run(1500);
    const auto &b = h.core.branchStats();
    ASSERT_GT(b.lookups, 500u);
    EXPECT_LT(static_cast<double>(b.mispredicts) /
                  static_cast<double>(b.lookups),
              0.05);
}

TEST(Core, StoresCommitToWriteQueue)
{
    std::vector<TraceInstr> script = {store(0x2000), alu(), alu()};
    CoreHarness h(script);
    h.run(50);
    EXPECT_EQ(h.core.stats().storesRetired, 1u);
    ASSERT_EQ(h.memory.writes.size(), 1u);
    EXPECT_EQ(h.memory.writes[0].line(), lineAddr(0x2000));
    EXPECT_EQ(static_cast<int>(h.memory.writes[0].type),
              static_cast<int>(AccessType::Rfo));
}

TEST(Core, LqLimitThrottlesDispatch)
{
    CoreParams p;
    p.lqSize = 2;
    std::vector<TraceInstr> script;
    for (int i = 0; i < 8; ++i)
        script.push_back(load(0x1000 + i * 0x100));
    CoreHarness h(script, p, 200);
    h.run(150);
    // Only 2 loads can be in flight; none retired yet and memory has
    // seen at most 2 reads.
    EXPECT_LE(h.memory.reads.size(), 2u);
    h.run(2000);
    EXPECT_EQ(h.core.stats().loadsRetired, 8u);
}

TEST(Core, RobWrapsCorrectly)
{
    CoreParams p;
    p.robSize = 32;
    std::vector<TraceInstr> script;
    for (int i = 0; i < 300; ++i)
        script.push_back(i % 7 == 0 ? load(0x1000 + i * 64) : alu());
    CoreHarness h(script, p, 20);
    h.run(3000);
    EXPECT_GE(h.core.stats().instrsRetired, 300u);
}

TEST(Core, StallAttributionSeparatesOffChip)
{
    // One load (off-chip via FakeMemory) followed by ALUs: all the
    // retirement stall must be attributed to the off-chip bucket.
    std::vector<TraceInstr> script = {load(0x3000)};
    for (int i = 0; i < 50; ++i)
        script.push_back(alu());
    CoreHarness h(script, CoreParams{}, 80);
    h.run(300);
    const auto &s = h.core.stats();
    EXPECT_GT(s.stallCyclesOffChip, 0u);
    EXPECT_EQ(s.stallCyclesOtherLoad, 0u);
}

TEST(Core, ClearStatsPreservesProgress)
{
    CoreHarness h({});
    h.run(200);
    const auto before = h.core.stats().instrsRetired;
    EXPECT_GT(before, 0u);
    h.core.clearStats();
    EXPECT_EQ(h.core.stats().instrsRetired, 0u);
    h.run(200);
    EXPECT_GT(h.core.stats().instrsRetired, 0u);
}

/** Parameterized: IPC scales sensibly with fetch width. */
class CoreWidthTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CoreWidthTest, AluIpcTracksWidth)
{
    CoreParams p;
    p.fetchWidth = GetParam();
    p.retireWidth = GetParam();
    CoreHarness h({}, p);
    h.run(2000);
    EXPECT_GT(h.core.stats().ipc(), 0.75 * GetParam());
    EXPECT_LE(h.core.stats().ipc(), GetParam() + 0.01);
}

INSTANTIATE_TEST_SUITE_P(Widths, CoreWidthTest,
                         ::testing::Values(1u, 2u, 4u, 6u, 8u));

TEST(CoreWake, ReturnDataWakesAndSyncCountsIdleCycles)
{
    // A core seated in a schedule: a load's data wakes it (lowering its
    // slot to the next cycle) and the untouched cycles before it are
    // charged to the blocked ROB head by sync().
    std::vector<TraceInstr> script = {load(0x1000)};
    for (int i = 0; i < 10; ++i)
        script.push_back(alu());
    CoreParams p;
    p.robSize = 8; // fills fast, then waits on the load
    CoreHarness scheduled(script, p, 100);
    CoreHarness full(script, p, 100);
    SimClock clock;
    Cycle slot = 0;
    scheduled.core.attach(&clock, kStageCore, &slot);
    Cycle ticks = 0;
    for (Cycle now = 1; now <= 150; ++now) {
        clock.now = now;
        clock.stage = kStageDram;
        scheduled.memory.tick(now);
        clock.stage = kStageCore;
        if (slot <= now) {
            scheduled.core.tick(now);
            ++ticks;
        }
        clock.stage = kStageDone;
        full.run(1);
    }
    scheduled.core.sync(clock.now);
    EXPECT_LT(ticks, 100u); // asleep while the load is in flight
    EXPECT_EQ(scheduled.core.stats().cycles, full.core.stats().cycles);
    EXPECT_EQ(scheduled.core.stats().instrsRetired,
              full.core.stats().instrsRetired);
    EXPECT_EQ(scheduled.core.stats().stallCyclesOtherLoad +
                  scheduled.core.stats().stallCyclesOffChip,
              full.core.stats().stallCyclesOtherLoad +
                  full.core.stats().stallCyclesOffChip);
    EXPECT_GT(full.core.stats().stallCyclesOffChip, 0u);
}

// ---- Checkpoint restore: hand-written CORE sections ----
//
// A 4-entry ROB holding seqs 1..3 (slot = seq & 3, slot 0 empty):
//   seq 1  load  IssuedToMem  waiters: 3
//   seq 2  load  Ready        (in the ready-load queue)
//   seq 3  alu   WaitingDep   (waits on seq 1)
// Each rejection test breaks exactly one rule.

struct CkptEntry
{
    InstrId seq = 0;
    std::uint8_t kind = 0;  ///< InstrKind byte
    std::uint8_t state = 0; ///< OooCore::State byte (0 Empty .. 4 Done)
    InstrId firstWaiter = 0;
    InstrId lastWaiter = 0;
    InstrId nextWaiter = 0;
};

struct CkptCore
{
    std::vector<CkptEntry> slots; ///< All 4 ROB slots, in slot order
    InstrId headSeq = 1;
    InstrId nextSeq = 4;
    std::uint32_t lqUsed = 2;
    std::uint32_t sqUsed = 0;
    std::vector<InstrId> readyLoads{2};
};

CkptCore
validCore()
{
    CkptCore c;
    c.slots = {
        {},                 // slot 0: never used
        {1, 1, 3, 3, 3, 0}, // load, IssuedToMem
        {2, 1, 2, 0, 0, 0}, // load, Ready
        {3, 0, 1, 0, 0, 0}, // alu, WaitingDep
    };
    return c;
}

CoreParams
ckptCoreParams()
{
    CoreParams p;
    p.robSize = 4;
    return p;
}

std::vector<char>
writeCore(const CkptCore &c)
{
    auto instr = [](StateWriter &w, std::uint8_t kind) {
        w.u64(0x400000); // pc
        w.u8(kind);
        w.u64(0x1000); // vaddr
        w.b(false);    // branchTaken
        w.u32(0);      // depDistance
    };
    test::VectorSink sink;
    StateWriter w(sink);
    w.section("CORE");
    BranchPredictor().saveState(w);
    w.u64(c.slots.size());
    for (const CkptEntry &e : c.slots) {
        instr(w, e.kind);
        w.u64(e.seq);
        w.u8(e.state);
        w.u64(0); // readyAt
        w.u64(0); // issueAt
        w.u64(0); // blockedCycles
        const PredMeta m;
        for (std::uint32_t idx : m.index)
            w.u32(idx);
        w.u8(m.indexCount);
        w.i16(m.sum);
        w.b(m.predictedOffChip);
        w.b(m.valid);
        w.b(false); // wentOffChip
        w.b(false); // servedByHermes
        w.u64(0);   // l1Issue
        w.u64(0);   // mcArrive
        w.u64(e.firstWaiter);
        w.u64(e.lastWaiter);
        w.u64(e.nextWaiter);
    }
    w.u64(c.headSeq);
    w.u64(c.nextSeq);
    w.u32(c.lqUsed);
    w.u32(c.sqUsed);
    w.u64(c.readyLoads.size());
    for (InstrId seq : c.readyLoads)
        w.u64(seq);
    instr(w, 0); // pendingFetch
    w.b(false);  // hasPendingFetch
    w.u64(0);    // fetchResumeAt
    w.u64(42);   // now
    w.sealChecksum();
    return sink.bytes;
}

void
loadCore(OooCore &core, const std::vector<char> &bytes)
{
    test::VectorSource source(bytes);
    StateReader r(source);
    core.loadState(r);
    r.verifyChecksum();
}

TEST(CoreCheckpoint, HandWrittenSectionRoundTrips)
{
    const std::vector<char> bytes = writeCore(validCore());
    ScriptedWorkload workload({});
    FakeMemory memory(40);
    OooCore core(0, ckptCoreParams(), &workload, &memory, nullptr);
    loadCore(core, bytes);
    test::VectorSink again;
    StateWriter w(again);
    core.saveState(w);
    w.sealChecksum();
    EXPECT_EQ(again.bytes, bytes);
}

/** Loading @p c must throw a StateError whose message names @p why. */
void
expectCoreRejected(const CkptCore &c, const std::string &why)
{
    ScriptedWorkload workload({});
    FakeMemory memory(40);
    OooCore core(0, ckptCoreParams(), &workload, &memory, nullptr);
    try {
        loadCore(core, writeCore(c));
        ADD_FAILURE() << "accepted; expected rejection for: " << why;
    } catch (const StateError &e) {
        EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
            << e.what();
    }
}

TEST(CoreCheckpoint, RejectsStateByteAboveDone)
{
    CkptCore c = validCore();
    c.slots[3].state = 5;
    expectCoreRejected(c, "state out of range");
}

TEST(CoreCheckpoint, RejectsInstructionKindOutOfRange)
{
    CkptCore c = validCore();
    c.slots[0].kind = 4;
    expectCoreRejected(c, "kind out of range");
}

TEST(CoreCheckpoint, RejectsHeadAfterTail)
{
    CkptCore c = validCore();
    c.headSeq = 5;
    expectCoreRejected(c, "head after its tail");
}

TEST(CoreCheckpoint, RejectsWindowLargerThanRobSize)
{
    CkptCore c = validCore();
    c.nextSeq = 6;
    expectCoreRejected(c, "window larger than robSize");
}

TEST(CoreCheckpoint, RejectsLoadQueueCountThatDisagreesWithRob)
{
    CkptCore c = validCore();
    c.lqUsed = 1;
    expectCoreRejected(c, "lq/sq counters disagree");
}

TEST(CoreCheckpoint, RejectsStoreQueueCountThatDisagreesWithRob)
{
    CkptCore c = validCore();
    c.sqUsed = 1;
    expectCoreRejected(c, "lq/sq counters disagree");
}

TEST(CoreCheckpoint, RejectsReadyLoadOutsideWindow)
{
    CkptCore c = validCore();
    c.readyLoads = {7};
    expectCoreRejected(c, "ready load outside the rob window");
}

TEST(CoreCheckpoint, RejectsWaiterLinkLeavingWindow)
{
    CkptCore c = validCore();
    c.slots[1].firstWaiter = 9;
    c.slots[1].lastWaiter = 9;
    expectCoreRejected(c, "waiter link leaves the window");
}

TEST(CoreCheckpoint, RejectsCyclicWaiterChain)
{
    // 3 -> 3: wake() would loop forever on this chain.
    CkptCore c = validCore();
    c.slots[3].nextWaiter = 3;
    expectCoreRejected(c, "revisits an entry");
}

} // namespace
} // namespace hermes
