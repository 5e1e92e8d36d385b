#include "dram/dram.hh"

#include <algorithm>
#include <cassert>

namespace hermes
{

DramController::Channel::Channel(const DramParams &p)
    : banks(p.ranksPerChannel * p.banksPerRank), rqLines(p.rqSize),
      wqLines(p.wqSize)
{
    rq.reserve(p.rqSize);
    wq.reserve(p.wqSize);
}

DramController::DramController(DramParams params) : params_(params)
{
    assert(params_.channels > 0);
    channels_.reserve(params_.channels);
    for (unsigned c = 0; c < params_.channels; ++c)
        channels_.emplace_back(params_);
    // One waiter per queued read is the common case; merges grow the
    // pool past this once, then it recycles.
    waiters_.reserve(static_cast<std::size_t>(params_.channels) *
                     params_.rqSize);
}

void
DramController::setClient(int core_id, MemClient *client)
{
    if (clients_.size() <= static_cast<std::size_t>(core_id))
        clients_.resize(core_id + 1, nullptr);
    clients_[core_id] = client;
}

unsigned
DramController::channelOf(Addr line) const
{
    return static_cast<unsigned>(line % params_.channels);
}

std::uint32_t
DramController::bankOf(Addr line) const
{
    const Addr l = line / params_.channels;
    const unsigned lines_per_row = params_.rowBufferBytes / kBlockSize;
    const unsigned banks = params_.ranksPerChannel * params_.banksPerRank;
    return static_cast<std::uint32_t>((l / lines_per_row) % banks);
}

std::uint64_t
DramController::rowOf(Addr line) const
{
    const Addr l = line / params_.channels;
    const unsigned lines_per_row = params_.rowBufferBytes / kBlockSize;
    const unsigned banks = params_.ranksPerChannel * params_.banksPerRank;
    return (l / lines_per_row) / banks;
}

DramController::ReadEntry &
DramController::enqueueRead(Channel &ch, Addr line)
{
    ReadEntry &e = ch.rq.emplace_back();
    e.line = line;
    e.bank = bankOf(line);
    e.row = rowOf(line);
    e.arrived = slot_.now();
    ch.rqLines.insert(line, 1);
    ++ch.queuedReads;
    ch.readSchedBlockedUntil = 0;
    slot_.due(e.arrived + 1);
    return e;
}

void
DramController::addWaiter(ReadEntry &e, const MemRequest &req)
{
    std::uint32_t n = freeWaiter_;
    if (n != kNoWaiter) {
        freeWaiter_ = waiters_[n].next;
        waiters_[n] = Waiter{req, kNoWaiter};
    } else {
        n = static_cast<std::uint32_t>(waiters_.size());
        waiters_.push_back(Waiter{req, kNoWaiter});
    }
    if (e.lastWaiter == kNoWaiter)
        e.firstWaiter = n;
    else
        waiters_[e.lastWaiter].next = n;
    e.lastWaiter = n;
}

void
DramController::respond(const MemRequest &resp)
{
    const auto idx = static_cast<std::size_t>(resp.coreId);
    if (idx < clients_.size() && clients_[idx] != nullptr)
        clients_[idx]->returnData(resp);
}

bool
DramController::addRead(const MemRequest &req)
{
    const Addr line = req.line();
    Channel &ch = channels_[channelOf(line)];

    // Read-after-write forwarding from the write queue. The response
    // does not depend on which queued write matched, so the line count
    // alone decides.
    if (ch.wqLines.contains(line)) {
        ++stats_.wqForwards;
        MemRequest resp = req;
        resp.servedFrom = MemLevel::Dram;
        resp.cycleMcArrive = slot_.now();
        respond(resp);
        return true;
    }

    MemRequest w = req;
    w.cycleMcArrive = slot_.now();

    // Merge with an in-flight read (regular or Hermes) to the same
    // line; rq holds at most one entry per line, so the line index
    // decides in O(1) whether the locating scan is needed at all.
    if (ch.rqLines.contains(line)) {
        ReadEntry &e = *std::find_if(
            ch.rq.begin(), ch.rq.end(),
            [line](const ReadEntry &r) { return r.line == line; });
        if (e.hermesInitiated && e.hermesOnly)
            w.servedByHermes = true;
        addWaiter(e, w);
        e.hermesOnly = false;
        ++stats_.readMerges;
        return true;
    }

    if (ch.rq.size() >= params_.rqSize)
        return false;
    ReadEntry &e = enqueueRead(ch, line);
    e.hermesOnly = false;
    addWaiter(e, w);
    return true;
}

bool
DramController::addHermes(const MemRequest &req)
{
    const Addr line = req.line();
    Channel &ch = channels_[channelOf(line)];

    // Already in flight (regular or another Hermes request): nothing to
    // do, the data is on its way.
    if (ch.rqLines.contains(line)) {
        ++stats_.hermesMergedIntoExisting;
        return true;
    }
    if (ch.rq.size() >= params_.rqSize) {
        ++stats_.hermesRejected;
        return false;
    }
    ReadEntry &e = enqueueRead(ch, line);
    e.hermesOnly = true;
    e.hermesInitiated = true;
    ++stats_.hermesIssued;
    return true;
}

bool
DramController::addWrite(const MemRequest &req)
{
    const Addr line = req.line();
    Channel &ch = channels_[channelOf(line)];
    // Soft-bounded like the cache write path; pressure shows up through
    // drain mode stealing read bandwidth.
    WriteEntry &w = ch.wq.emplace_back();
    w.line = line;
    w.bank = bankOf(line);
    w.row = rowOf(line);
    w.arrived = req.cycleCreated;
    ch.wqLines.increment(line);
    ++ch.queuedWrites;
    slot_.due(slot_.now() + 1);
    return true;
}

Cycle
DramController::access(Channel &ch, std::uint32_t bank, std::uint64_t row,
                       Cycle now)
{
    Bank &b = ch.banks[bank];
    const Cycle start = std::max(now, b.readyAt);
    // CAS latency is pipelined: consecutive column reads to an open row
    // are spaced by the data burst (tCCD), not by tCAS. Activation and
    // precharge do occupy the bank.
    Cycle latency;      // command-to-data latency
    Cycle bank_busy;    // cycles the bank cannot accept a new command
    if (b.open && b.row == row) {
        latency = params_.tCas;
        bank_busy = params_.busCyclesPerLine();
        ++stats_.rowHits;
    } else if (!b.open) {
        latency = params_.tRcd + params_.tCas;
        bank_busy = params_.tRcd + params_.busCyclesPerLine();
        ++stats_.rowMisses;
    } else {
        latency = params_.tRp + params_.tRcd + params_.tCas;
        bank_busy = params_.tRp + params_.tRcd +
                    params_.busCyclesPerLine();
        ++stats_.rowConflicts;
    }
    b.open = true;
    b.row = row;

    // Data transfer occupies the shared channel bus.
    const Cycle data_start = std::max(start + latency, ch.busFreeAt);
    const Cycle finish = data_start + params_.busCyclesPerLine();
    ch.busFreeAt = finish;
    b.readyAt = start + bank_busy +
                (data_start - (start + latency)); // inherit bus backlog
    return finish;
}

void
DramController::scheduleReads(Channel &ch, Cycle now)
{
    // FR-FCFS: prefer the oldest row-hit among ready banks, else the
    // oldest request whose bank is ready. Stop scanning once every
    // still-Queued entry has been seen (the tail is all in-flight).
    ReadEntry *pick = nullptr;
    Cycle earliest_bank = kNoEventCycle;
    unsigned queued_left = ch.queuedReads;
    for (auto &e : ch.rq) {
        if (queued_left == 0)
            break;
        if (e.state != State::Queued)
            continue;
        --queued_left;
        const Bank &b = ch.banks[e.bank];
        if (b.readyAt > now) {
            earliest_bank = std::min(earliest_bank, b.readyAt);
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
        // Every queued entry's bank is busy; nothing can be picked
        // before the earliest bank frees up, so skip the scan until
        // then (bank readyAt values only ever move later, and a new
        // arrival clears the bound).
        ch.readSchedBlockedUntil = earliest_bank;
        return;
    }
    ch.readSchedBlockedUntil = 0;
    pick->state = State::Issued;
    pick->finishAt = access(ch, pick->bank, pick->row, now);
    --ch.queuedReads;
    ch.nextReadFinish = ch.issuedReads == 0
                            ? pick->finishAt
                            : std::min(ch.nextReadFinish, pick->finishAt);
    ++ch.issuedReads;
}

void
DramController::scheduleWrites(Channel &ch, Cycle now)
{
    auto it = std::find_if(ch.wq.begin(), ch.wq.end(), [&](const auto &w) {
        return w.state == State::Queued && ch.banks[w.bank].readyAt <= now;
    });
    if (it == ch.wq.end())
        return;
    it->state = State::Issued;
    it->finishAt = access(ch, it->bank, it->row, now);
    --ch.queuedWrites;
    ch.nextWriteFinish = ch.issuedWrites == 0
                             ? it->finishAt
                             : std::min(ch.nextWriteFinish, it->finishAt);
    ++ch.issuedWrites;
}

void
DramController::retireRead(Channel &ch, std::size_t i)
{
    const ReadEntry &e = ch.rq[i];
    // Account the serviced read once, by its originating class.
    if (e.hermesInitiated)
        ++stats_.hermesReads;
    else if (e.firstWaiter != kNoWaiter &&
             waiters_[e.firstWaiter].req.type == AccessType::Prefetch)
        ++stats_.prefetchReads;
    else
        ++stats_.demandReads;

    if (e.hermesInitiated) {
        if (e.firstWaiter == kNoWaiter)
            ++stats_.hermesDropped; // §6.2.2: drop, no cache fill.
        else
            ++stats_.hermesUseful;
    }

    // Callbacks may re-enter addWrite (an LLC fill evicting a dirty
    // line). rq never reallocates and waiters are reached by index, so
    // both stay valid across them.
    const std::uint32_t first = e.firstWaiter;
    for (std::uint32_t n = first; n != kNoWaiter; n = waiters_[n].next) {
        MemRequest w = waiters_[n].req;
        w.servedFrom = MemLevel::Dram;
        respond(w);
    }
    if (first != kNoWaiter) {
        waiters_[ch.rq[i].lastWaiter].next = freeWaiter_;
        freeWaiter_ = first;
    }
    ch.rqLines.erase(ch.rq[i].line);
    ch.rq.erase(ch.rq.begin() + static_cast<std::ptrdiff_t>(i));
}

void
DramController::completeReads(Channel &ch, Cycle now)
{
    Cycle next_read = 0;
    bool have_next_read = false;
    unsigned issued_left = ch.issuedReads;
    for (std::size_t i = 0; issued_left != 0 && i < ch.rq.size();) {
        const ReadEntry &e = ch.rq[i];
        if (e.state != State::Issued) {
            ++i;
            continue;
        }
        --issued_left;
        if (e.finishAt > now) {
            if (!have_next_read || e.finishAt < next_read) {
                next_read = e.finishAt;
                have_next_read = true;
            }
            ++i;
            continue;
        }
        --ch.issuedReads;
        retireRead(ch, i); // rq[i] now holds the next entry
    }
    ch.nextReadFinish = next_read;

    // Writes produce no response: compact the survivors down in one
    // pass, keeping arrival order.
    Cycle next_write = 0;
    bool have_next_write = false;
    unsigned w_issued_left = ch.issuedWrites;
    std::size_t kept = 0;
    std::size_t i = 0;
    for (; w_issued_left != 0 && i < ch.wq.size(); ++i) {
        const WriteEntry &e = ch.wq[i];
        if (e.state == State::Issued) {
            --w_issued_left;
            if (e.finishAt <= now) {
                ++stats_.writes;
                --ch.issuedWrites;
                ch.wqLines.decrement(e.line);
                continue;
            }
            if (!have_next_write || e.finishAt < next_write) {
                next_write = e.finishAt;
                have_next_write = true;
            }
        }
        if (kept != i)
            ch.wq[kept] = e;
        ++kept;
    }
    if (kept != i)
        ch.wq.erase(ch.wq.begin() + static_cast<std::ptrdiff_t>(kept),
                    ch.wq.begin() + static_cast<std::ptrdiff_t>(i));
    ch.nextWriteFinish = next_write;
}

void
DramController::tick(Cycle now)
{
    slot_.tickedAt(now);
    // Completions re-enter addWrite (an LLC fill evicting a dirty
    // line), possibly on a channel this loop has already passed, and
    // that lowers the slot: start it from "no work" so those lowers
    // survive the minimum applied at the end.
    slot_.rewrite(kNoEventCycle);
    for (auto &ch : channels_) {
        if (ch.rq.empty() && ch.wq.empty())
            continue;
        const bool reads_done =
            ch.issuedReads != 0 && ch.nextReadFinish <= now;
        const bool writes_done =
            ch.issuedWrites != 0 && ch.nextWriteFinish <= now;
        // Idle fast path: nothing completes this cycle and nothing is
        // waiting for a bank, so neither sweep can make progress — and
        // the drain-mode hysteresis below is a pure function of queue
        // sizes, which cannot have changed since it last ran.
        if (!reads_done && !writes_done && ch.queuedReads == 0 &&
            ch.queuedWrites == 0)
            continue;
        // Sweep completions only when an in-flight access can actually
        // finish this cycle; otherwise the scan finds nothing.
        if (reads_done || writes_done)
            completeReads(ch, now);

        // Write drain hysteresis: start draining when the WQ is deep or
        // reads are absent; stop when it has mostly emptied.
        if (ch.wq.size() >= params_.wqSize * 7 / 8 ||
            (ch.rq.empty() && !ch.wq.empty()))
            ch.drainingWrites = true;
        // Leave drain mode quickly once pressure eases so reads are
        // not starved behind long write bursts.
        if (ch.wq.empty() ||
            (ch.wq.size() <= params_.wqSize / 2 && !ch.rq.empty()))
            ch.drainingWrites = false;

        // The FR-FCFS scan can only pick a Queued entry — and, for
        // reads, only once the earliest busy bank it last saw frees up.
        if (ch.drainingWrites) {
            if (ch.queuedWrites != 0)
                scheduleWrites(ch, now);
        } else if (ch.queuedReads != 0 &&
                   now >= ch.readSchedBlockedUntil) {
            scheduleReads(ch, now);
        }
    }
    if (!slot_.attached())
        return;
    Cycle wake = kNoEventCycle;
    for (const Channel &ch : channels_)
        wake = std::min(wake, wakeAfterTick(ch, now));
    slot_.due(wake);
}

Cycle
DramController::wakeAfterTick(const Channel &ch, Cycle now) const
{
    // Every in-flight finish is in the future here: completeReads just
    // retired the due ones, and a fresh issue finishes after its bank
    // latency. The drain flag is the one this tick computed, and queue
    // sizes only change through completions (covered) or arrivals
    // (which lower the slot themselves, also when they re-enter this
    // tick after the channel's hysteresis ran). An empty channel has
    // no work.
    Cycle wake = kNoEventCycle;
    if (ch.issuedReads != 0)
        wake = ch.nextReadFinish;
    if (ch.issuedWrites != 0)
        wake = std::min(wake, ch.nextWriteFinish);
    if (ch.drainingWrites) {
        if (ch.queuedWrites != 0)
            return now + 1;
    } else if (ch.queuedReads != 0) {
        wake = std::min(wake, std::max(ch.readSchedBlockedUntil, now + 1));
    }
    return wake;
}

Cycle
DramController::nextEventCycle(Cycle now) const
{
    const Cycle next = now + 1;
    Cycle horizon = kNoEventCycle;
    for (const Channel &ch : channels_) {
        if (ch.rq.empty() && ch.wq.empty())
            continue;
        if (ch.issuedReads != 0) {
            if (ch.nextReadFinish <= now)
                return next;
            horizon = std::min(horizon, ch.nextReadFinish);
        }
        if (ch.issuedWrites != 0) {
            if (ch.nextWriteFinish <= now)
                return next;
            horizon = std::min(horizon, ch.nextWriteFinish);
        }
        // Mirror the write-drain hysteresis the next tick will apply.
        // Inside an event-free span the queue sizes cannot change, so
        // the flag tick() recomputes is a pure function of today's
        // sizes; applying the same set-then-clear rules here selects
        // the side the scheduler will actually scan.
        bool draining = ch.drainingWrites;
        if (ch.wq.size() >= params_.wqSize * 7 / 8 ||
            (ch.rq.empty() && !ch.wq.empty()))
            draining = true;
        if (ch.wq.empty() ||
            (ch.wq.size() <= params_.wqSize / 2 && !ch.rq.empty()))
            draining = false;
        if (draining) {
            unsigned left = ch.queuedWrites;
            for (const WriteEntry &e : ch.wq) {
                if (left == 0)
                    break;
                if (e.state != State::Queued)
                    continue;
                --left;
                const Cycle at = ch.banks[e.bank].readyAt;
                if (at <= now)
                    return next;
                horizon = std::min(horizon, at);
            }
        } else if (ch.queuedReads != 0) {
            // The scheduler's cached bound is a valid lower bound on
            // the next read issue (cleared on arrivals, and bank
            // readyAt only moves later); reuse it to skip the walk.
            if (ch.readSchedBlockedUntil > now) {
                horizon = std::min(horizon, ch.readSchedBlockedUntil);
                continue;
            }
            unsigned left = ch.queuedReads;
            for (const ReadEntry &e : ch.rq) {
                if (left == 0)
                    break;
                if (e.state != State::Queued)
                    continue;
                --left;
                const Cycle at = ch.banks[e.bank].readyAt;
                if (at <= now)
                    return next;
                horizon = std::min(horizon, at);
            }
        }
    }
    return horizon;
}

bool
DramController::probeRead(Addr line) const
{
    return channels_[channelOf(line)].rqLines.contains(line);
}

void
DramController::saveState(StateWriter &w) const
{
    w.section("DRAM");
    w.u64(channels_.size());
    for (const Channel &ch : channels_) {
        w.u64(ch.rq.size());
        for (const ReadEntry &e : ch.rq) {
            w.u64(e.line);
            w.u32(e.bank);
            w.u64(e.row);
            w.u64(e.arrived);
            w.u8(static_cast<std::uint8_t>(e.state));
            w.u64(e.finishAt);
            w.b(e.hermesOnly);
            w.b(e.hermesInitiated);
            std::uint64_t n_waiters = 0;
            for (std::uint32_t n = e.firstWaiter; n != kNoWaiter;
                 n = waiters_[n].next)
                ++n_waiters;
            w.u64(n_waiters);
            for (std::uint32_t n = e.firstWaiter; n != kNoWaiter;
                 n = waiters_[n].next)
                saveMemRequest(w, waiters_[n].req);
        }
        w.u64(ch.wq.size());
        for (const WriteEntry &e : ch.wq) {
            w.u64(e.line);
            w.u32(e.bank);
            w.u64(e.row);
            w.u64(e.arrived);
            w.u8(static_cast<std::uint8_t>(e.state));
            w.u64(e.finishAt);
        }
        w.u64(ch.banks.size());
        for (const Bank &b : ch.banks) {
            w.b(b.open);
            w.u64(b.row);
            w.u64(b.readyAt);
        }
        w.u64(ch.busFreeAt);
        w.b(ch.drainingWrites);
        w.u32(ch.queuedReads);
        w.u32(ch.issuedReads);
        w.u32(ch.queuedWrites);
        w.u32(ch.issuedWrites);
        w.u64(ch.nextReadFinish);
        w.u64(ch.nextWriteFinish);
    }
    w.u64(slot_.now());
}

namespace
{

/** Entry state byte, checked: only Queued (0) and Issued (1) exist. */
std::uint8_t
loadStateByte(StateReader &r)
{
    const std::uint8_t s = r.u8();
    if (s > 1)
        throw StateError("dram entry state out of range");
    return s;
}

} // namespace

void
DramController::loadChannel(StateReader &r, Channel &ch)
{
    // Every index and count below comes from the stream: check it
    // before it addresses anything, so a corrupt or crafted checkpoint
    // fails with StateError instead of indexing out of range.
    const std::size_t n_banks = ch.banks.size();
    unsigned queued = 0;
    unsigned issued = 0;

    ch.rq.clear();
    ch.rqLines.clear();
    const std::size_t nr = r.count(1u << 20);
    if (nr > params_.rqSize)
        throw StateError("dram read queue longer than rqSize");
    for (std::size_t i = 0; i < nr; ++i) {
        ReadEntry &e = ch.rq.emplace_back();
        e.line = r.u64();
        e.bank = r.u32();
        if (e.bank >= n_banks)
            throw StateError("dram read bank out of range");
        e.row = r.u64();
        e.arrived = r.u64();
        e.state = static_cast<State>(loadStateByte(r));
        ++(e.state == State::Queued ? queued : issued);
        e.finishAt = r.u64();
        e.hermesOnly = r.b();
        e.hermesInitiated = r.b();
        if (ch.rqLines.contains(e.line))
            throw StateError("dram read queue holds a line twice");
        ch.rqLines.insert(e.line, 1);
        const std::size_t n_waiters = r.count(1u << 16);
        if (n_waiters == 0 && !e.hermesInitiated)
            throw StateError("dram regular read without a waiter");
        for (std::size_t k = 0; k < n_waiters; ++k) {
            MemRequest req;
            loadMemRequest(r, req);
            addWaiter(e, req);
        }
    }

    unsigned queued_w = 0;
    unsigned issued_w = 0;
    ch.wq.clear();
    ch.wqLines.clear();
    const std::size_t nw = r.count(1u << 20);
    for (std::size_t i = 0; i < nw; ++i) {
        WriteEntry &e = ch.wq.emplace_back();
        e.line = r.u64();
        e.bank = r.u32();
        if (e.bank >= n_banks)
            throw StateError("dram write bank out of range");
        e.row = r.u64();
        e.arrived = r.u64();
        e.state = static_cast<State>(loadStateByte(r));
        ++(e.state == State::Queued ? queued_w : issued_w);
        e.finishAt = r.u64();
        ch.wqLines.increment(e.line);
    }

    if (r.u64() != n_banks)
        throw StateError("dram bank count mismatch");
    for (Bank &b : ch.banks) {
        b.open = r.b();
        b.row = r.u64();
        b.readyAt = r.u64();
    }
    ch.busFreeAt = r.u64();
    ch.drainingWrites = r.b();
    ch.queuedReads = r.u32();
    ch.issuedReads = r.u32();
    ch.queuedWrites = r.u32();
    ch.issuedWrites = r.u32();
    if (ch.queuedReads != queued || ch.issuedReads != issued ||
        ch.queuedWrites != queued_w || ch.issuedWrites != issued_w)
        throw StateError("dram queue counters disagree with entries");
    ch.nextReadFinish = r.u64();
    ch.nextWriteFinish = r.u64();
    // The scheduler's cached bound is derived: drop it (it
    // re-establishes on the next scan).
    ch.readSchedBlockedUntil = 0;
}

void
DramController::loadState(StateReader &r)
{
    r.section("DRAM");
    if (r.u64() != channels_.size())
        throw StateError("dram channel count mismatch");
    waiters_.clear();
    freeWaiter_ = kNoWaiter;
    for (Channel &ch : channels_)
        loadChannel(r, ch);
    slot_.restoreClock(r.u64());
}

} // namespace hermes
