// Tests for the replacement policies (LRU, SRRIP, SHiP).

#include <gtest/gtest.h>

#include <optional>

#include "cache/replacement.hh"

namespace hermes
{
namespace
{

TEST(Lru, EvictsLeastRecentlyUsed)
{
    auto lru = makeReplacement(ReplKind::Lru, 1, 4);
    for (std::uint32_t w = 0; w < 4; ++w)
        lru->onInsert(0, w, 0, AccessType::Load);
    // Touch ways 0, 2, 3: way 1 is the LRU.
    lru->onHit(0, 0, 0, AccessType::Load);
    lru->onHit(0, 2, 0, AccessType::Load);
    lru->onHit(0, 3, 0, AccessType::Load);
    EXPECT_EQ(lru->victim(0), 1u);
}

TEST(Lru, InsertCountsAsUse)
{
    auto lru = makeReplacement(ReplKind::Lru, 1, 2);
    lru->onInsert(0, 0, 0, AccessType::Load);
    lru->onInsert(0, 1, 0, AccessType::Load);
    EXPECT_EQ(lru->victim(0), 0u);
}

TEST(Lru, SetsAreIndependent)
{
    auto lru = makeReplacement(ReplKind::Lru, 2, 2);
    lru->onInsert(0, 0, 0, AccessType::Load);
    lru->onInsert(0, 1, 0, AccessType::Load);
    lru->onInsert(1, 1, 0, AccessType::Load);
    lru->onInsert(1, 0, 0, AccessType::Load);
    EXPECT_EQ(lru->victim(0), 0u);
    EXPECT_EQ(lru->victim(1), 1u);
}

TEST(Srrip, HitPromotesToNearImminent)
{
    auto p = makeReplacement(ReplKind::Srrip, 1, 2);
    p->onInsert(0, 0, 0, AccessType::Load);
    p->onInsert(0, 1, 0, AccessType::Load);
    p->onHit(0, 0, 0, AccessType::Load);
    // Way 1 still at insert RRPV, way 0 promoted: victim must be 1.
    EXPECT_EQ(p->victim(0), 1u);
}

TEST(Ship, PrefetchInsertedAtDistantRrpv)
{
    auto p = makeReplacement(ReplKind::Ship, 1, 2);
    p->onInsert(0, 0, 0x400, AccessType::Load);
    p->onInsert(0, 1, 0x404, AccessType::Prefetch);
    // The prefetch-inserted line is the more distant victim.
    EXPECT_EQ(p->victim(0), 1u);
}

TEST(Ship, LearnsNoReuseSignature)
{
    auto p = makeReplacement(ReplKind::Ship, 4, 2);
    const Addr bad_pc = 0x1230;
    // Repeatedly insert and evict the bad PC without reuse; its SHCT
    // counter should fall to zero, demoting later insertions.
    for (int i = 0; i < 8; ++i) {
        p->onInsert(0, 0, bad_pc, AccessType::Load);
        p->onEvict(0, 0);
    }
    p->onInsert(0, 0, bad_pc, AccessType::Load); // distant now
    p->onInsert(0, 1, 0x5678, AccessType::Load); // near
    EXPECT_EQ(p->victim(0), 0u);
}

TEST(Ship, ReuseRestoresSignature)
{
    auto p = makeReplacement(ReplKind::Ship, 4, 2);
    const Addr pc = 0x1230;
    for (int i = 0; i < 4; ++i) {
        p->onInsert(0, 0, pc, AccessType::Load);
        p->onEvict(0, 0);
    }
    // Now show reuse several times: counter climbs back.
    for (int i = 0; i < 6; ++i) {
        p->onInsert(0, 0, pc, AccessType::Load);
        p->onHit(0, 0, pc, AccessType::Load);
        p->onEvict(0, 0);
    }
    p->onInsert(0, 0, pc, AccessType::Load);
    p->onInsert(0, 1, 0x999, AccessType::Prefetch);
    EXPECT_EQ(p->victim(0), 1u);
}

TEST(Replacement, FactoryAndNames)
{
    EXPECT_STREQ(makeReplacement(ReplKind::Lru, 2, 2)->name(), "lru");
    EXPECT_STREQ(makeReplacement(ReplKind::Srrip, 2, 2)->name(), "srrip");
    EXPECT_STREQ(makeReplacement(ReplKind::Ship, 2, 2)->name(), "ship");
    EXPECT_EQ(sealedReplKind("lru"), ReplKind::Lru);
    EXPECT_EQ(sealedReplKind("srrip"), ReplKind::Srrip);
    EXPECT_EQ(sealedReplKind("ship"), ReplKind::Ship);
    EXPECT_EQ(sealedReplKind("plru"), std::nullopt);
}

TEST(Replacement, StorageBitsPositive)
{
    for (auto kind : {ReplKind::Lru, ReplKind::Srrip, ReplKind::Ship})
        EXPECT_GT(makeReplacement(kind, 64, 8)->storageBits(), 0u);
}

/** Property: victim() always returns a valid way for any geometry. */
class ReplacementGeometry
    : public ::testing::TestWithParam<std::tuple<ReplKind, std::uint32_t,
                                                 std::uint32_t>>
{
};

TEST_P(ReplacementGeometry, VictimAlwaysInRange)
{
    const auto [kind, sets, ways] = GetParam();
    auto p = makeReplacement(kind, sets, ways);
    for (std::uint32_t s = 0; s < sets; ++s)
        for (std::uint32_t w = 0; w < ways; ++w)
            p->onInsert(s, w, 0x400000 + w * 4,
                        w % 3 ? AccessType::Load : AccessType::Prefetch);
    for (std::uint32_t s = 0; s < sets; ++s) {
        for (int round = 0; round < 4; ++round) {
            const std::uint32_t v = p->victim(s);
            ASSERT_LT(v, ways);
            p->onEvict(s, v);
            p->onInsert(s, v, 0x500000, AccessType::Load);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ReplacementGeometry,
    ::testing::Combine(::testing::Values(ReplKind::Lru, ReplKind::Srrip,
                                         ReplKind::Ship),
                       ::testing::Values(1u, 16u, 64u),
                       ::testing::Values(1u, 4u, 12u, 20u)));

TEST(ReplKindStrings, RoundTripsEveryKind)
{
    for (const ReplKind kind :
         {ReplKind::Lru, ReplKind::Srrip, ReplKind::Ship}) {
        const char *name = replKindName(kind);
        EXPECT_STRNE(name, "?");
        EXPECT_EQ(sealedReplKind(name), kind) << name;
    }
}

TEST(ReplKindStrings, UnknownNameIsNotSealed)
{
    // Anything else is left to the model registry (replFactory).
    EXPECT_EQ(sealedReplKind("fifo"), std::nullopt);
    EXPECT_EQ(sealedReplKind(""), std::nullopt);
    EXPECT_EQ(sealedReplKind("Ship"), std::nullopt);
}

} // namespace
} // namespace hermes
