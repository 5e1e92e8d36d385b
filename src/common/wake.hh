#pragma once

/**
 * @file
 * The wake-time scheduler's shared clock and each component's seat in
 * it (docs/performance.md, "The wake-time scheduler").
 *
 * System ticks its components in a fixed stage order — DRAM, LLC, the
 * L2s, the L1s, then the cores — but visits a component only when its
 * wake slot (one Cycle in a contiguous array System owns) is due. Two
 * rules keep that byte-identical to ticking everything every cycle:
 *
 *  - **Slots.** After its tick a component rewrites its slot with the
 *    next cycle it has work; every entry point through which another
 *    component adds work lowers the slot to when that work is due.
 *  - **Turns.** Every component reads one shared clock. During cycle t
 *    a component whose stage has not had its turn yet still reads
 *    t - 1, exactly the clock it would hold had it been ticked every
 *    cycle (a fill reaching an L2 before the L2 ticks is stamped with
 *    the L2's previous cycle).
 *
 * A component not attached to a System (unit tests, micro-kernels)
 * keeps its own clock, set by its tick(now), and has no slot.
 */

#include "common/state_io.hh"
#include "common/types.hh"

namespace hermes
{

/** Tick stages, in the order System visits them within a cycle. */
enum TickStage : unsigned
{
    kStageDram,
    kStageLlc,
    kStageL2,
    kStageL1,
    kStageCore,
    /** Between cycles: every stage has had its turn. */
    kStageDone,
};

/** The clock System advances and every attached component reads. */
struct SimClock
{
    Cycle now = 0;
    /** The stage whose turn it is in cycle @c now. */
    unsigned stage = kStageDone;
};

/** A component's view of the shared clock, and its wake slot. */
class WakeSlot
{
  public:
    /** Join System's schedule as stage @p stage, waking via @p slot. */
    void
    attach(const SimClock *clock, TickStage stage, Cycle *slot)
    {
        clock_ = clock;
        stage_ = stage;
        slot_ = slot;
    }

    bool attached() const { return clock_ != nullptr; }

    /** The cycle this component is at (the turn rule above). */
    Cycle
    now() const
    {
        if (clock_ == nullptr)
            return own_;
        return clock_->now - (clock_->stage < stage_ ? 1 : 0);
    }

    /** A detached component's tick(@p now) advances its own clock. */
    void tickedAt(Cycle now) { own_ = now; }

    /** Work becomes due at cycle @p at: lower the slot to it. */
    void
    due(Cycle at)
    {
        if (slot_ != nullptr && at < *slot_)
            *slot_ = at;
    }

    /** After a tick: the component next has work at cycle @p at. */
    void
    rewrite(Cycle at)
    {
        if (slot_ != nullptr)
            *slot_ = at;
    }

    /**
     * Restore the clock a checkpoint section recorded. A detached
     * component adopts it; an attached one must agree with the system
     * clock it was restored with, or the section is corrupt.
     */
    void
    restoreClock(Cycle saved)
    {
        if (clock_ == nullptr)
            own_ = saved;
        else if (saved != now())
            throw StateError("component clock disagrees with the system");
    }

  private:
    const SimClock *clock_ = nullptr;
    Cycle *slot_ = nullptr;
    unsigned stage_ = kStageDone;
    Cycle own_ = 0;
};

} // namespace hermes
