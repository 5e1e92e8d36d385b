// Differential property test for the flat DRAM controller.
//
// Drives the real DramController (contiguous per-channel queues,
// open-addressed line indexes, pooled waiter FIFOs) and a plain
// reference model of the same FR-FCFS controller (std::list queues, a
// std::vector of waiters per read, a linear scan for every lookup) with
// the same seeded traffic: demand, RFO and prefetch reads from four
// cores, Hermes reads, writebacks and write bursts past wqSize. The
// ordered response stream, the DramStats and the nextEventCycle() value
// of every cycle must agree exactly.
//
// The reference shares only DramParams with the production controller.
// It keeps the behaviour the controller documents: FR-FCFS pick order
// (oldest row hit among ready banks, else oldest ready request),
// completion in read-queue then write-queue arrival order, merge before
// the full check, the first waiter's type classifying the read, the
// write-drain hysteresis, and the blocked-scheduler bound that
// nextEventCycle() reports.
//
// The binary also replaces the global operator new to count heap
// allocations: after warm-up, serving reads allocates nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <list>
#include <memory>
#include <new>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "common/state_io.hh"
#include "dram/dram.hh"
#include "test_helpers.hh"

namespace
{
std::uint64_t g_allocations = 0;
} // namespace

// The replacements pair malloc with free; GCC cannot see that pairing
// through inlined library code and would flag every delete.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t size)
{
    ++g_allocations;
    if (void *p = std::malloc(size != 0 ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

namespace hermes
{
namespace
{

using test::VectorSink;
using test::VectorSource;

/** Obviously-correct FR-FCFS controller on std::list queues. */
class ReferenceDram
{
  public:
    explicit ReferenceDram(const DramParams &p)
        : p_(p), channels_(p.channels)
    {
        for (Channel &ch : channels_)
            ch.banks.resize(p.ranksPerChannel * p.banksPerRank);
    }

    void
    setClient(int core, MemClient *client)
    {
        if (clients_.size() <= static_cast<std::size_t>(core))
            clients_.resize(core + 1, nullptr);
        clients_[core] = client;
    }

    bool
    addRead(const MemRequest &req)
    {
        Channel &ch = channelOf(req.line());
        for (const Write &w : ch.wq) {
            if (w.line != req.line())
                continue;
            ++stats_.wqForwards;
            MemRequest resp = req;
            resp.servedFrom = MemLevel::Dram;
            resp.cycleMcArrive = now_;
            respond(resp);
            return true;
        }
        MemRequest w = req;
        w.cycleMcArrive = now_;
        for (Read &e : ch.rq) {
            if (e.line != req.line())
                continue;
            if (e.hermesInitiated && e.hermesOnly)
                w.servedByHermes = true;
            e.waiters.push_back(w);
            e.hermesOnly = false;
            ++stats_.readMerges;
            return true;
        }
        if (ch.rq.size() >= p_.rqSize)
            return false;
        Read e = newRead(req.line());
        e.hermesOnly = false;
        e.waiters.push_back(w);
        ch.rq.push_back(e);
        ch.blockedUntil = 0;
        return true;
    }

    bool
    addHermes(const MemRequest &req)
    {
        Channel &ch = channelOf(req.line());
        for (const Read &e : ch.rq) {
            if (e.line == req.line()) {
                ++stats_.hermesMergedIntoExisting;
                return true;
            }
        }
        if (ch.rq.size() >= p_.rqSize) {
            ++stats_.hermesRejected;
            return false;
        }
        Read e = newRead(req.line());
        e.hermesOnly = true;
        e.hermesInitiated = true;
        ch.rq.push_back(e);
        ch.blockedUntil = 0;
        ++stats_.hermesIssued;
        return true;
    }

    bool
    addWrite(const MemRequest &req)
    {
        Write w;
        w.line = req.line();
        w.bank = bankOf(w.line);
        w.row = rowOf(w.line);
        channelOf(w.line).wq.push_back(w);
        return true;
    }

    void
    tick(Cycle now)
    {
        now_ = now;
        for (Channel &ch : channels_) {
            if (ch.rq.empty() && ch.wq.empty())
                continue;
            complete(ch, now);
            ch.draining = drainAfter(ch, ch.draining);
            if (ch.draining)
                scheduleWrite(ch, now);
            else if (anyQueued(ch.rq) && now >= ch.blockedUntil)
                scheduleRead(ch, now);
        }
    }

    Cycle
    nextEventCycle(Cycle now) const
    {
        const Cycle next = now + 1;
        Cycle horizon = kNoEventCycle;
        for (const Channel &ch : channels_) {
            if (ch.rq.empty() && ch.wq.empty())
                continue;
            for (const Read &e : ch.rq) {
                if (!e.issued)
                    continue;
                if (e.finishAt <= now)
                    return next;
                horizon = std::min(horizon, e.finishAt);
            }
            for (const Write &e : ch.wq) {
                if (!e.issued)
                    continue;
                if (e.finishAt <= now)
                    return next;
                horizon = std::min(horizon, e.finishAt);
            }
            if (drainAfter(ch, ch.draining)) {
                for (const Write &e : ch.wq) {
                    if (e.issued)
                        continue;
                    const Cycle at = ch.banks[e.bank].readyAt;
                    if (at <= now)
                        return next;
                    horizon = std::min(horizon, at);
                }
            } else if (anyQueued(ch.rq)) {
                if (ch.blockedUntil > now) {
                    horizon = std::min(horizon, ch.blockedUntil);
                    continue;
                }
                for (const Read &e : ch.rq) {
                    if (e.issued)
                        continue;
                    const Cycle at = ch.banks[e.bank].readyAt;
                    if (at <= now)
                        return next;
                    horizon = std::min(horizon, at);
                }
            }
        }
        return horizon;
    }

    const DramStats &stats() const { return stats_; }

  private:
    struct Read
    {
        Addr line = 0;
        std::uint32_t bank = 0;
        std::uint64_t row = 0;
        bool issued = false;
        Cycle finishAt = 0;
        bool hermesOnly = true;
        bool hermesInitiated = false;
        std::vector<MemRequest> waiters;
    };

    struct Write
    {
        Addr line = 0;
        std::uint32_t bank = 0;
        std::uint64_t row = 0;
        bool issued = false;
        Cycle finishAt = 0;
    };

    struct Bank
    {
        bool open = false;
        std::uint64_t row = 0;
        Cycle readyAt = 0;
    };

    struct Channel
    {
        std::list<Read> rq;
        std::list<Write> wq;
        std::vector<Bank> banks;
        Cycle busFreeAt = 0;
        bool draining = false;
        /** Earliest busy bank the last fruitless read scan saw. */
        Cycle blockedUntil = 0;
    };

    static bool
    anyQueued(const std::list<Read> &rq)
    {
        for (const Read &e : rq)
            if (!e.issued)
                return true;
        return false;
    }

    /** The drain flag the hysteresis leaves after one application. */
    bool
    drainAfter(const Channel &ch, bool draining) const
    {
        if (ch.wq.size() >= p_.wqSize * 7 / 8 ||
            (ch.rq.empty() && !ch.wq.empty()))
            draining = true;
        if (ch.wq.empty() ||
            (ch.wq.size() <= p_.wqSize / 2 && !ch.rq.empty()))
            draining = false;
        return draining;
    }

    Channel &
    channelOf(Addr line)
    {
        return channels_[line % p_.channels];
    }

    unsigned banks() const { return p_.ranksPerChannel * p_.banksPerRank; }
    Addr
    rowGroup(Addr line) const
    {
        return line / p_.channels / (p_.rowBufferBytes / kBlockSize);
    }
    std::uint32_t
    bankOf(Addr line) const
    {
        return static_cast<std::uint32_t>(rowGroup(line) % banks());
    }
    std::uint64_t rowOf(Addr line) const { return rowGroup(line) / banks(); }

    Read
    newRead(Addr line) const
    {
        Read e;
        e.line = line;
        e.bank = bankOf(line);
        e.row = rowOf(line);
        return e;
    }

    void
    respond(const MemRequest &resp)
    {
        const auto idx = static_cast<std::size_t>(resp.coreId);
        if (idx < clients_.size() && clients_[idx] != nullptr)
            clients_[idx]->returnData(resp);
    }

    Cycle
    access(Channel &ch, std::uint32_t bank, std::uint64_t row, Cycle now)
    {
        Bank &b = ch.banks[bank];
        const Cycle burst = p_.busCyclesPerLine();
        const Cycle start = std::max(now, b.readyAt);
        Cycle latency = 0;
        Cycle bank_busy = 0;
        if (b.open && b.row == row) {
            latency = p_.tCas;
            bank_busy = burst;
            ++stats_.rowHits;
        } else if (!b.open) {
            latency = p_.tRcd + p_.tCas;
            bank_busy = p_.tRcd + burst;
            ++stats_.rowMisses;
        } else {
            latency = p_.tRp + p_.tRcd + p_.tCas;
            bank_busy = p_.tRp + p_.tRcd + burst;
            ++stats_.rowConflicts;
        }
        b.open = true;
        b.row = row;
        const Cycle data_start = std::max(start + latency, ch.busFreeAt);
        ch.busFreeAt = data_start + burst;
        b.readyAt = start + bank_busy + (data_start - (start + latency));
        return ch.busFreeAt;
    }

    void
    scheduleRead(Channel &ch, Cycle now)
    {
        Read *pick = nullptr;
        Cycle earliest = kNoEventCycle;
        for (Read &e : ch.rq) {
            if (e.issued)
                continue;
            const Bank &b = ch.banks[e.bank];
            if (b.readyAt > now) {
                earliest = std::min(earliest, b.readyAt);
                continue;
            }
            if (b.open && b.row == e.row) {
                pick = &e;
                break;
            }
            if (pick == nullptr)
                pick = &e;
        }
        if (pick == nullptr) {
            ch.blockedUntil = earliest;
            return;
        }
        ch.blockedUntil = 0;
        pick->issued = true;
        pick->finishAt = access(ch, pick->bank, pick->row, now);
    }

    void
    scheduleWrite(Channel &ch, Cycle now)
    {
        for (Write &w : ch.wq) {
            if (!w.issued && ch.banks[w.bank].readyAt <= now) {
                w.issued = true;
                w.finishAt = access(ch, w.bank, w.row, now);
                return;
            }
        }
    }

    void
    complete(Channel &ch, Cycle now)
    {
        for (auto it = ch.rq.begin(); it != ch.rq.end();) {
            if (!it->issued || it->finishAt > now) {
                ++it;
                continue;
            }
            if (it->hermesInitiated)
                ++stats_.hermesReads;
            else if (!it->waiters.empty() &&
                     it->waiters.front().type == AccessType::Prefetch)
                ++stats_.prefetchReads;
            else
                ++stats_.demandReads;
            if (it->hermesInitiated) {
                if (it->waiters.empty())
                    ++stats_.hermesDropped;
                else
                    ++stats_.hermesUseful;
            }
            const std::vector<MemRequest> waiters = it->waiters;
            for (MemRequest w : waiters) {
                w.servedFrom = MemLevel::Dram;
                respond(w);
            }
            it = ch.rq.erase(it);
        }
        for (auto it = ch.wq.begin(); it != ch.wq.end();) {
            if (it->issued && it->finishAt <= now) {
                ++stats_.writes;
                it = ch.wq.erase(it);
            } else {
                ++it;
            }
        }
    }

    DramParams p_;
    std::vector<Channel> channels_;
    std::vector<MemClient *> clients_;
    DramStats stats_;
    Cycle now_ = 0;
};

/** One delivered response, as the client saw it. */
struct Response
{
    Addr line = 0;
    int core = 0;
    InstrId instr = 0;
    Cycle at = 0; ///< Harness cycle of delivery
    bool servedByHermes = false;
    Cycle mcArrive = 0;

    bool
    operator==(const Response &o) const
    {
        return line == o.line && core == o.core && instr == o.instr &&
               at == o.at && servedByHermes == o.servedByHermes &&
               mcArrive == o.mcArrive;
    }
};

std::ostream &
operator<<(std::ostream &os, const Response &r)
{
    return os << "{line " << r.line << " core " << r.core << " instr "
              << r.instr << " at " << r.at << " hermes "
              << r.servedByHermes << " mc " << r.mcArrive << "}";
}

/**
 * Records the response stream and, like an LLC whose fill evicts a
 * dirty line, writes back another line of the same channel from inside
 * every fifth response: the re-entrancy the controller must survive.
 */
class StreamClient : public MemClient
{
  public:
    explicit StreamClient(const Cycle &now) : now_(now) {}

    void
    returnData(const MemRequest &req) override
    {
        stream.push_back({req.line(), req.coreId, req.instrId, now_,
                          req.servedByHermes, req.cycleMcArrive});
        if (writeBack && req.instrId % 5 == 0)
            writeBack(req.line());
    }

    std::vector<Response> stream;
    std::function<void(Addr)> writeBack;

  private:
    const Cycle &now_;
};

using StatField = std::uint64_t DramStats::*;
constexpr StatField kStatFields[] = {
    &DramStats::demandReads,   &DramStats::prefetchReads,
    &DramStats::hermesReads,   &DramStats::writes,
    &DramStats::rowHits,       &DramStats::rowMisses,
    &DramStats::rowConflicts,  &DramStats::readMerges,
    &DramStats::wqForwards,    &DramStats::hermesIssued,
    &DramStats::hermesMergedIntoExisting,
    &DramStats::hermesDropped, &DramStats::hermesUseful,
    &DramStats::hermesRejected,
};
static_assert(sizeof(DramStats) ==
                  sizeof(kStatFields) / sizeof(kStatFields[0]) *
                      sizeof(std::uint64_t),
              "a DramStats field is missing from kStatFields");

void
expectSameStats(const DramStats &real, const DramStats &ref)
{
    for (std::size_t i = 0; i < std::size(kStatFields); ++i)
        EXPECT_EQ(real.*kStatFields[i], ref.*kStatFields[i])
            << "DramStats field #" << i;
}

std::vector<char>
snapshot(const DramController &dram)
{
    VectorSink sink;
    StateWriter w(sink);
    dram.saveState(w);
    w.sealChecksum();
    return sink.bytes;
}

/** Identical seeded traffic for every device under test. */
class Traffic
{
  public:
    Traffic(std::uint64_t seed, unsigned channels)
        : rng_(seed), channels_(channels)
    {
    }

    /**
     * Apply this cycle's operations to each of @p devices (the same
     * operation to all, in order) and require equal accept/reject.
     */
    template <typename... Devices>
    void
    step(Cycle now, Devices &...devices)
    {
        if (now % 2000 == 1000) {
            // A writeback burst past wqSize: forces drain mode.
            for (int i = 0; i < 70; ++i)
                applyAll(Op{Kind::Write, pickLine(), 0, 0, now},
                         devices...);
        }
        // Below the channels' service rate, except for a read burst
        // past every channel's rqSize: rejections.
        unsigned ops = rng_.chance(0.07 * channels_) ? 1 : 0;
        if (now % 2000 == 0)
            ops = 60 * channels_;
        for (unsigned i = 0; i < ops; ++i) {
            const double roll = rng_.uniform();
            Op op{Kind::Read, pickLine(),
                  static_cast<int>(rng_.below(4)), ++seq_, now};
            if (roll < 0.2)
                op.kind = Kind::Hermes;
            else if (roll < 0.35)
                op.kind = Kind::Write;
            else if (roll < 0.45)
                op.type = AccessType::Prefetch;
            else if (roll < 0.5)
                op.type = AccessType::Rfo;
            applyAll(op, devices...);
        }
    }

  private:
    enum class Kind
    {
        Read,
        Hermes,
        Write,
    };

    struct Op
    {
        Kind kind;
        Addr line;
        int core;
        InstrId instr;
        Cycle now;
        AccessType type = AccessType::Load;
    };

    /** Lines clustered so merges, forwards and row hits all occur. */
    Addr
    pickLine()
    {
        if (rng_.chance(0.4))
            return last_ = last_ + channels_; // next line, same channel
        if (rng_.chance(0.3))
            return last_; // same line again: merge or forward
        return last_ = rng_.below(1u << 13);
    }

    template <typename Device>
    static bool
    apply(const Op &op, Device &dev)
    {
        MemRequest req = test::loadReq(op.line << kLogBlockSize,
                                       0x400000 + op.line % 7 * 4,
                                       op.core, op.instr);
        req.cycleCreated = op.now;
        switch (op.kind) {
          case Kind::Read:
            req.type = op.type;
            return dev.addRead(req);
          case Kind::Hermes:
            req.type = AccessType::Hermes;
            return dev.addHermes(req);
          case Kind::Write:
            req.type = AccessType::Writeback;
            return dev.addWrite(req);
        }
        return false;
    }

    template <typename First, typename... Rest>
    void
    applyAll(const Op &op, First &first, Rest &...rest)
    {
        const bool accepted = apply(op, first);
        const auto same = [&](bool other) {
            EXPECT_EQ(other, accepted)
                << "accept/reject differs for line " << op.line;
        };
        (same(apply(op, rest)), ...);
    }

    Rng rng_;
    unsigned channels_;
    Addr last_ = 0;
    InstrId seq_ = 0;
};

/** A device under test with its own client and core wiring. */
template <typename Device>
struct Rig
{
    Rig(const DramParams &p, const Cycle &now) : dev(p), client(now)
    {
        for (int c = 0; c < 4; ++c)
            dev.setClient(c, &client);
        const unsigned channels = p.channels;
        client.writeBack = [this, channels, &now](Addr line) {
            MemRequest wb;
            wb.address = (line + 3 * channels) << kLogBlockSize;
            wb.type = AccessType::Writeback;
            wb.cycleCreated = now;
            dev.addWrite(wb);
        };
    }

    Device dev;
    StreamClient client;
};

class DramDiffTest
    : public ::testing::TestWithParam<std::tuple<unsigned, std::uint64_t>>
{
};

TEST_P(DramDiffTest, MatchesReferenceModel)
{
    const auto [channels, seed] = GetParam();
    DramParams p;
    p.channels = channels;
    p.ranksPerChannel = 2;

    Cycle now = 0;
    Rig<DramController> real(p, now);
    Rig<ReferenceDram> ref(p, now);
    // A restored copy of the real controller joins mid-flight and must
    // continue exactly as the original does.
    std::unique_ptr<Rig<DramController>> restored;
    std::size_t restored_from = 0;
    Traffic traffic(seed, channels);

    const Cycle kTraffic = 12000;
    const Cycle kDrain = 4000;
    for (now = 1; now <= kTraffic + kDrain; ++now) {
        real.dev.tick(now);
        ref.dev.tick(now);
        if (restored)
            restored->dev.tick(now);
        if (now <= kTraffic) {
            if (restored)
                traffic.step(now, real.dev, ref.dev, restored->dev);
            else
                traffic.step(now, real.dev, ref.dev);
        }
        const Cycle horizon = real.dev.nextEventCycle(now);
        ASSERT_EQ(horizon, ref.dev.nextEventCycle(now)) << "cycle " << now;
        ASSERT_GT(horizon, now);

        if (now % 3000 == 1500) {
            // Mid-flight save -> load -> save is byte-identical.
            const std::vector<char> bytes = snapshot(real.dev);
            auto copy = std::make_unique<Rig<DramController>>(p, now);
            VectorSource source(bytes);
            StateReader r(source);
            copy->dev.loadState(r);
            r.verifyChecksum();
            ASSERT_EQ(snapshot(copy->dev), bytes) << "cycle " << now;
            if (!restored) {
                restored = std::move(copy);
                restored_from = real.client.stream.size();
            }
        }
    }

    ASSERT_EQ(real.client.stream.size(), ref.client.stream.size());
    for (std::size_t i = 0; i < real.client.stream.size(); ++i)
        ASSERT_EQ(real.client.stream[i], ref.client.stream[i])
            << "response #" << i;
    expectSameStats(real.dev.stats(), ref.dev.stats());

    ASSERT_TRUE(restored);
    const std::vector<Response> tail(
        real.client.stream.begin() +
            static_cast<std::ptrdiff_t>(restored_from),
        real.client.stream.end());
    EXPECT_EQ(restored->client.stream, tail);

    // The traffic reached every mechanism under comparison.
    const DramStats &s = real.dev.stats();
    EXPECT_GT(s.readMerges, 0u);
    EXPECT_GT(s.wqForwards, 0u);
    EXPECT_GT(s.prefetchReads, 0u);
    EXPECT_GT(s.hermesUseful, 0u);
    EXPECT_GT(s.hermesDropped, 0u);
    EXPECT_GT(s.rowHits, 0u);
    EXPECT_GT(s.rowConflicts, 0u);
    EXPECT_GT(s.writes, 0u);
    EXPECT_GT(s.hermesRejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ChannelsAndSeeds, DramDiffTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(1u, 42u, 2024u)));

/** Counts responses without storing them (no allocation). */
class CountingClient : public MemClient
{
  public:
    void returnData(const MemRequest &) override { ++responses; }
    std::uint64_t responses = 0;
};

TEST(DramAllocation, SteadyStateReadsAllocateNothing)
{
    DramParams p;
    p.channels = 2;
    p.ranksPerChannel = 2;
    DramController dram(p);
    CountingClient client;
    for (int c = 0; c < 4; ++c)
        dram.setClient(c, &client);

    Rng rng(7);
    Cycle now = 0;
    // Random reads, retried until accepted (as an LLC retries an
    // unsent MSHR), with merges, Hermes reads and writebacks mixed in.
    auto serve = [&](unsigned reads, unsigned burst) {
        std::uint64_t accepted = 0;
        for (unsigned i = 0; i < reads; ++i) {
            MemRequest req =
                test::loadReq(rng.below(1u << 14) << kLogBlockSize,
                              0x400000, static_cast<int>(i % 4), i);
            if (i % 7 == 0) {
                req.type = AccessType::Hermes;
                dram.addHermes(req);
                req.type = AccessType::Load;
            }
            while (!dram.addRead(req))
                dram.tick(++now);
            dram.addRead(req); // merges: a second waiter on the line
            ++accepted;
            if (i % 5 == 0) {
                MemRequest wb = req;
                wb.type = AccessType::Writeback;
                dram.addWrite(wb);
            }
            if (burst != 0 && i % 1000 == 0) {
                for (unsigned k = 0; k < burst; ++k) {
                    MemRequest wb = req;
                    wb.address = rng.below(1u << 14) << kLogBlockSize;
                    wb.type = AccessType::Writeback;
                    dram.addWrite(wb);
                }
            }
            dram.tick(++now);
        }
        for (int i = 0; i < 5000; ++i)
            dram.tick(++now);
        return accepted;
    };

    // Warm-up reaches the working set: queues full, the waiter pool and
    // the write queue at their high-water marks (bursts past wqSize).
    serve(20000, 300);
    const std::uint64_t responses_before = client.responses;
    const std::uint64_t before = g_allocations;
    const std::uint64_t reads = serve(20000, 0);
    const std::uint64_t allocations = g_allocations - before;

    EXPECT_GT(client.responses, responses_before + reads);
    EXPECT_EQ(allocations, 0u)
        << allocations << " heap allocations over " << reads << " reads";
}

} // namespace
} // namespace hermes
