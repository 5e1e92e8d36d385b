#pragma once

/**
 * @file
 * Open-addressed hash index mapping a line address to a 32-bit value.
 * Two uses on the hot path:
 *  - line -> MSHR slot in the caches, replacing the linear MSHR array
 *    scan on every lookup (insert/find/erase, keys unique: the cache
 *    never allocates two MSHRs for the same line);
 *  - line presence in the DRAM controller's read queues (one entry
 *    per line), and line -> occupancy count in its write queues
 *    (increment/decrement/contains; writes to one line coexist).
 *
 * Linear probing with backward-shift deletion. The table starts at 4x
 * the expected occupancy so probe chains stay short, and doubles when
 * it would pass half full, so a soft-bounded user (the DRAM write
 * queue) grows to its working set and then stops allocating.
 */

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace hermes
{

class AddrIndex
{
  public:
    explicit AddrIndex(std::uint32_t expected_entries)
    {
        const std::size_t want =
            static_cast<std::size_t>(expected_entries) * 4;
        reset(static_cast<std::uint32_t>(ceilPow2(want < 8 ? 8 : want)));
    }

    /** Value stored for @p line, or kNotFound if absent. */
    std::uint32_t
    find(Addr line) const
    {
        return slots_[locate(line)];
    }

    bool contains(Addr line) const { return find(line) != kNotFound; }

    /** Map @p line (absent) to @p value. */
    void
    insert(Addr line, std::uint32_t value)
    {
        assert(value != kEmpty && "value collides with the empty mark");
        if ((size_ + 1) * 2 > mask_ + 1)
            grow();
        std::uint32_t h = hash(line);
        while (slots_[h] != kEmpty)
            h = (h + 1) & mask_;
        slots_[h] = value;
        lines_[h] = line;
        ++size_;
    }

    void
    erase(Addr line)
    {
        const std::uint32_t h = locate(line);
        assert(slots_[h] != kEmpty && "erasing a line not present");
        if (slots_[h] != kEmpty)
            eraseAt(h);
    }

    /** Count one more occurrence of @p line (inserting it at 1). */
    void
    increment(Addr line)
    {
        const std::uint32_t h = locate(line);
        if (slots_[h] != kEmpty)
            ++slots_[h];
        else
            insert(line, 1);
    }

    /** Count one fewer occurrence of @p line; erase it at zero. */
    void
    decrement(Addr line)
    {
        const std::uint32_t h = locate(line);
        assert(slots_[h] != kEmpty && "decrementing a line not present");
        if (slots_[h] != kEmpty && --slots_[h] == 0)
            eraseAt(h);
    }

    /** Drop every mapping (checkpoint restore rebuilds from content). */
    void
    clear()
    {
        for (std::uint32_t &s : slots_)
            s = kEmpty;
        size_ = 0;
    }

    static constexpr std::uint32_t kNotFound = 0xFFFFFFFFu;

  private:
    static constexpr std::uint32_t kEmpty = kNotFound;

    std::uint32_t
    hash(Addr line) const
    {
        // splitmix64 finalizer: line addresses are sequential-ish, so
        // mix thoroughly before masking.
        std::uint64_t z = line + 0x9E3779B97F4A7C15ull;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return static_cast<std::uint32_t>((z ^ (z >> 31)) & mask_);
    }

    /** Position holding @p line, or the empty one ending its chain. */
    std::uint32_t
    locate(Addr line) const
    {
        std::uint32_t h = hash(line);
        while (slots_[h] != kEmpty && lines_[h] != line)
            h = (h + 1) & mask_;
        return h;
    }

    void
    eraseAt(std::uint32_t h)
    {
        // Backward-shift deletion keeps probe chains intact without
        // tombstones.
        std::uint32_t hole = h;
        for (std::uint32_t j = (h + 1) & mask_; slots_[j] != kEmpty;
             j = (j + 1) & mask_) {
            const std::uint32_t ideal = hash(lines_[j]);
            // Move j into the hole iff the hole lies within j's probe
            // path (cyclic distance check).
            if (((j - ideal) & mask_) >= ((j - hole) & mask_)) {
                slots_[hole] = slots_[j];
                lines_[hole] = lines_[j];
                hole = j;
            }
        }
        slots_[hole] = kEmpty;
        --size_;
    }

    void
    reset(std::uint32_t capacity)
    {
        mask_ = capacity - 1;
        slots_.assign(capacity, kEmpty);
        lines_.assign(capacity, 0);
        size_ = 0;
    }

    void
    grow()
    {
        const std::vector<std::uint32_t> slots = std::move(slots_);
        const std::vector<Addr> lines = std::move(lines_);
        reset((mask_ + 1) * 2);
        for (std::size_t i = 0; i < slots.size(); ++i)
            if (slots[i] != kEmpty)
                insert(lines[i], slots[i]);
    }

    std::uint32_t mask_ = 0;
    std::uint32_t size_ = 0;           ///< Occupied positions
    std::vector<std::uint32_t> slots_; ///< Value or kEmpty
    std::vector<Addr> lines_;          ///< Key for occupied positions
};

} // namespace hermes
