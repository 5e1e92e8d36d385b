#pragma once

/**
 * @file
 * Pythia: the reinforcement-learning prefetching framework of Bera et
 * al. (MICRO'21), the paper's baseline prefetcher (Table 4). Pythia
 * formulates prefetching as a contextual decision: a *state* is a
 * vector of program features, *actions* are prefetch offsets, and a
 * *reward* scores the usefulness of the prefetch after the fact.
 *
 * This implementation keeps Pythia's architecture — a QVStore holding
 * per-feature Q-value tables (hashed like a perceptron), an evaluation
 * queue (EQ) that defers reward assignment until the outcome is known,
 * epsilon-greedy exploration — with one documented simplification: the
 * temporal-difference bootstrap term uses a one-step lookup with a
 * small discount rather than the full SARSA pipeline.
 *
 * Features (the two-feature configuration the Pythia paper selects):
 *   phi1 = PC (+) last delta, phi2 = sequence of last-4 offsets.
 * Storage budget follows Table 6 (25.5KB).
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/addr_index.hh"
#include "common/rng.hh"
#include "common/state_io.hh"
#include "common/types.hh"
#include "prefetch/prefetcher.hh"

namespace hermes
{

/** Pythia parameters. */
struct PythiaParams
{
    std::uint32_t tableEntries = 1024; ///< Per feature
    double alpha = 0.25;   ///< Learning rate
    double gamma = 0.0;    ///< Discount for the (optional) bootstrap term
    double epsilon = 0.002; ///< Exploration probability
    int rewardAccurate = 20;      ///< Accurate and timely (R_AT)
    int rewardAccurateLate = 12;  ///< Accurate but late (R_AL)
    int rewardInaccurate = -14;
    int rewardNoPrefetch = -2;
    std::uint32_t eqSize = 256;
    std::uint64_t seed = 7;
};

/** RL-based prefetcher. */
class Pythia : public Prefetcher
{
  public:
    explicit Pythia(PythiaParams params = PythiaParams{});

    const char *name() const override { return "pythia"; }
    void onAccess(Addr addr, Addr pc, bool hit,
                  std::vector<Addr> &out_lines) override;
    void onPrefetchUseful(Addr line, Addr pc) override;
    void onPrefetchLate(Addr line, Addr pc) override;
    std::uint64_t storageBits() const override;

    /** The action (offset) set; index 0 is "no prefetch". */
    static const std::array<int, 16> kActions;

    bool checkpointable() const override { return true; }

    void
    saveState(StateWriter &w) const override
    {
        w.section("PYTH");
        const Rng::State rs = rng_.state();
        w.u64(rs.s0);
        w.u64(rs.s1);
        w.u64(table1_.size());
        for (const auto &row : table1_)
            for (float q : row)
                w.f32(q);
        w.u64(table2_.size());
        for (const auto &row : table2_)
            for (float q : row)
                w.f32(q);
        w.u64(eq_.size());
        for (const EqEntry &e : eq_) {
            w.u64(e.line);
            w.u32(e.phi1);
            w.u32(e.phi2);
            w.u32(e.action);
            w.b(e.rewarded);
        }
        for (const PageCtx &p : pages_) {
            w.u64(p.page);
            w.i32(p.lastOffset);
            w.u64(p.lastUse);
        }
        w.u32(pagesInvalidLeft_);
        w.u64(pageClock_);
        w.u64(lastLine_);
        for (std::uint8_t o : lastOffsets_)
            w.u8(o);
        w.u32(lastPhi1_);
        w.u32(lastPhi2_);
        w.b(havePrev_);
    }

    void
    loadState(StateReader &r) override
    {
        r.section("PYTH");
        Rng::State rs;
        rs.s0 = r.u64();
        rs.s1 = r.u64();
        rng_.setState(rs);
        if (r.u64() != table1_.size())
            throw StateError("pythia qvstore table1 size mismatch");
        for (auto &row : table1_)
            for (float &q : row)
                q = r.f32();
        if (r.u64() != table2_.size())
            throw StateError("pythia qvstore table2 size mismatch");
        for (auto &row : table2_)
            for (float &q : row)
                q = r.f32();
        eq_.clear();
        eqByLine_.clear();
        eqBaseSeq_ = 0;
        const std::size_t nEq = r.count(1u << 20);
        for (std::size_t i = 0; i < nEq; ++i) {
            EqEntry e;
            e.line = r.u64();
            e.phi1 = r.u32();
            e.phi2 = r.u32();
            e.action = r.u32();
            e.rewarded = r.b();
            // Rewarding the entry indexes both Q-tables by its features
            // and kActions by its action: check them here, so a corrupt
            // section fails instead of indexing out of range.
            if (e.phi1 >= table1_.size())
                throw StateError("pythia eq phi1 out of range");
            if (e.phi2 >= table2_.size())
                throw StateError("pythia eq phi2 out of range");
            if (e.action >= kActions.size())
                throw StateError("pythia eq action out of range");
            // The per-line chains are derived state (they thread the
            // unrewarded entries only); rebuild them as we go.
            if (!e.rewarded)
                eqChainLink(e, eqBaseSeq_ + eq_.size());
            eq_.push_back(e);
        }
        for (PageCtx &p : pages_) {
            p.page = r.u64();
            p.lastOffset = r.i32();
            p.lastUse = r.u64();
        }
        pagesInvalidLeft_ = r.u32();
        if (pagesInvalidLeft_ > kPageCtxEntries)
            throw StateError("pythia page context fill count out of range");
        // The index and recency list are derived state: rebuild them
        // over the valid slots, which fill from the highest index down
        // (see pagesInvalidLeft_). Appending in ascending lastUse order
        // reproduces the recency list the saved run had.
        pagesIndex_.clear();
        pagesLruHead_ = pagesLruTail_ = kLruNil;
        std::vector<std::uint32_t> byAge;
        for (unsigned i = pagesInvalidLeft_; i < kPageCtxEntries; ++i) {
            pagesIndex_.insert(pages_[i].page, i);
            byAge.push_back(i);
        }
        std::sort(byAge.begin(), byAge.end(),
                  [this](std::uint32_t a, std::uint32_t b) {
                      return pages_[a].lastUse < pages_[b].lastUse;
                  });
        for (std::uint32_t slot : byAge)
            pagesLruAppend(slot);
        pageClock_ = r.u64();
        lastLine_ = r.u64();
        for (std::uint8_t &o : lastOffsets_)
            o = r.u8();
        lastPhi1_ = r.u32();
        lastPhi2_ = r.u32();
        // The reward bootstrap indexes the Q-tables by these too.
        if (lastPhi1_ >= table1_.size() || lastPhi2_ >= table2_.size())
            throw StateError("pythia last feature index out of range");
        havePrev_ = r.b();
    }

  private:
    struct EqEntry
    {
        Addr line = 0;      ///< Prefetched line (0 for no-prefetch)
        std::uint32_t phi1 = 0;
        std::uint32_t phi2 = 0;
        unsigned action = 0;
        bool rewarded = false;
        /** Derived (not checkpointed): seq of the next unrewarded EQ
         * entry with the same line, kNoSeq at the chain tail. */
        std::uint64_t nextSameLine = kNoSeq;
    };

    /** Head/tail seqs of one per-line chain of unrewarded entries. */
    struct EqChain
    {
        std::uint64_t head;
        std::uint64_t tail;
    };

    static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

    double qValue(std::uint32_t phi1, std::uint32_t phi2,
                  unsigned action) const;
    void updateQ(std::uint32_t phi1, std::uint32_t phi2, unsigned action,
                 double target);
    unsigned selectAction(std::uint32_t phi1, std::uint32_t phi2);
    void assignReward(EqEntry &e, int reward);
    void retireEqOverflow();

    /** Append an entry (about to sit at `seq`) to its line's chain. */
    void eqChainLink(EqEntry &e, std::uint64_t seq);
    /** Reward the oldest unrewarded EQ entry for `line`, if any. */
    void rewardLine(Addr line, int reward);

    PythiaParams params_;
    Rng rng_;
    /** QVStore: per-feature tables of Q-values, one row per action. */
    std::vector<std::array<float, 16>> table1_;
    std::vector<std::array<float, 16>> table2_;
    std::deque<EqEntry> eq_;
    /** Seq number of eq_.front(); eq_[i] has seq eqBaseSeq_ + i. */
    std::uint64_t eqBaseSeq_ = 0;
    /**
     * line -> chain of unrewarded EQ entries with that line, oldest
     * first (threaded through EqEntry::nextSameLine). Entries leave a
     * chain only at its head — rewards always hit the oldest match and
     * overflow pops the globally oldest entry — so lookups are O(1)
     * where onPrefetchUseful/Late used to scan the whole EQ.
     */
    std::unordered_map<Addr, EqChain> eqByLine_;

    struct PageCtx
    {
        Addr page = 0;
        int lastOffset = 0;
        std::uint64_t lastUse = 0;
    };

    static constexpr unsigned kPageCtxEntries = 64;

    /** Page-local last offset, so interleaved streams keep clean
     * deltas (Pythia derives its delta feature from page context). */
    int pageLocalDelta(Addr line);

    /** Intrusive recency list over pages_ (head = LRU victim). */
    void pagesLruDetach(std::uint32_t slot);
    void pagesLruAppend(std::uint32_t slot);

    static constexpr std::uint32_t kLruNil = ~std::uint32_t{0};

    std::vector<PageCtx> pages_ = std::vector<PageCtx>(kPageCtxEntries);
    /** page -> pages_ slot; O(1) hit path for the per-access lookup. */
    AddrIndex pagesIndex_{kPageCtxEntries};
    /** Invalid slots left; they fill from the highest index down,
     * matching the scan-based allocation order they replace. */
    std::uint32_t pagesInvalidLeft_ = kPageCtxEntries;
    /**
     * Doubly-linked recency order over the valid pages_ slots. Clock
     * values are unique and increasing, so the list head is exactly
     * the min-lastUse entry the old O(n) victim scan selected; lastUse
     * stays authoritative for the checkpoint format and the list is
     * rebuilt from it on loadState.
     */
    std::array<std::uint32_t, kPageCtxEntries> pagesLruPrev_{};
    std::array<std::uint32_t, kPageCtxEntries> pagesLruNext_{};
    std::uint32_t pagesLruHead_ = kLruNil;
    std::uint32_t pagesLruTail_ = kLruNil;
    std::uint64_t pageClock_ = 0;
    Addr lastLine_ = 0;
    std::array<std::uint8_t, 4> lastOffsets_{};
    std::uint32_t lastPhi1_ = 0;
    std::uint32_t lastPhi2_ = 0;
    bool havePrev_ = false;
};

} // namespace hermes
