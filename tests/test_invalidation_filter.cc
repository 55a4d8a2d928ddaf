/**
 * @file
 * Unit tests for the per-L1 invalidation filter, including the
 * conservative overflow behaviour.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/invalidation_filter.hh"
#include "sim/rng.hh"

namespace gvc
{
namespace
{

TEST(InvalidationFilter, EmptyFilterFiltersEverything)
{
    InvalidationFilter f;
    EXPECT_FALSE(f.maybePresent(0, 100));
    EXPECT_FALSE(f.onInvalidate(0, 100));
    EXPECT_EQ(f.invalidationsFiltered(), 1u);
}

TEST(InvalidationFilter, TrackedPageTriggersFlush)
{
    InvalidationFilter f;
    f.lineFilled(0, 100);
    EXPECT_TRUE(f.maybePresent(0, 100));
    EXPECT_TRUE(f.onInvalidate(0, 100));
    EXPECT_EQ(f.flushesTriggered(), 1u);
}

TEST(InvalidationFilter, CountsReachZeroOnEviction)
{
    InvalidationFilter f;
    f.lineFilled(0, 100);
    f.lineFilled(0, 100);
    f.lineEvicted(0, 100);
    EXPECT_TRUE(f.maybePresent(0, 100));
    f.lineEvicted(0, 100);
    EXPECT_FALSE(f.maybePresent(0, 100));
}

TEST(InvalidationFilter, AsidsAreDistinct)
{
    InvalidationFilter f;
    f.lineFilled(1, 100);
    EXPECT_TRUE(f.maybePresent(1, 100));
    EXPECT_FALSE(f.maybePresent(2, 100));
}

TEST(InvalidationFilter, ResetClearsEverything)
{
    InvalidationFilter f;
    f.lineFilled(0, 1);
    f.lineFilled(0, 2);
    f.reset();
    EXPECT_FALSE(f.maybePresent(0, 1));
    EXPECT_FALSE(f.maybePresent(0, 2));
}

TEST(InvalidationFilter, OverflowGoesConservative)
{
    // 1 set x 2 ways: the third distinct page overflows the set.
    InvalidationFilter f(2, 2);
    f.lineFilled(0, 1);
    f.lineFilled(0, 2);
    f.lineFilled(0, 3);
    EXPECT_GE(f.overflowEvents(), 1u);
    // After overflow every page looks possibly-present (safe).
    EXPECT_TRUE(f.maybePresent(0, 99));
    // A full flush restores precision.
    f.reset();
    EXPECT_FALSE(f.maybePresent(0, 99));
}

TEST(InvalidationFilter, NeverFalseNegative)
{
    // Property: any page with a filled-but-not-fully-evicted line must
    // report maybe-present, whatever the eviction interleaving.
    InvalidationFilter f(8, 2);
    Rng rng(42);
    std::map<Vpn, int> truth;
    for (int i = 0; i < 2000; ++i) {
        const Vpn vpn = rng.below(32);
        if (rng.chance(0.6)) {
            f.lineFilled(0, vpn);
            ++truth[vpn];
        } else if (truth[vpn] > 0) {
            f.lineEvicted(0, vpn);
            --truth[vpn];
        }
        for (const auto &[page, count] : truth) {
            if (count > 0) {
                ASSERT_TRUE(f.maybePresent(0, page));
            }
        }
    }
}

} // namespace
} // namespace gvc
