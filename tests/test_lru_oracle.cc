/**
 * @file
 * Oracle-based property tests: CacheArray and Tlb are checked against
 * straightforward reference models (ordered-list LRU per set) under
 * long random operation sequences.  Any divergence in hit/miss
 * behaviour or eviction choice fails the test.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <tuple>

#include "cache/cache_array.hh"
#include "sim/rng.hh"
#include "tlb/tlb.hh"

namespace gvc
{
namespace
{

/** Reference set-associative LRU over opaque keys. */
class LruOracle
{
  public:
    LruOracle(std::size_t sets, unsigned assoc)
        : sets_(sets), assoc_(assoc), lists_(sets)
    {
    }

    bool
    access(std::uint64_t key)
    {
        auto &l = lists_[key % sets_];
        for (auto it = l.begin(); it != l.end(); ++it) {
            if (*it == key) {
                l.erase(it);
                l.push_front(key);
                return true;
            }
        }
        return false;
    }

    /** Insert; returns the evicted key if any. */
    std::optional<std::uint64_t>
    insert(std::uint64_t key)
    {
        auto &l = lists_[key % sets_];
        for (auto it = l.begin(); it != l.end(); ++it) {
            if (*it == key) {
                l.erase(it);
                l.push_front(key);
                return std::nullopt;
            }
        }
        std::optional<std::uint64_t> victim;
        if (l.size() >= assoc_) {
            victim = l.back();
            l.pop_back();
        }
        l.push_front(key);
        return victim;
    }

    bool
    present(std::uint64_t key) const
    {
        const auto &l = lists_[key % sets_];
        for (const auto k : l)
            if (k == key)
                return true;
        return false;
    }

    void
    erase(std::uint64_t key)
    {
        auto &l = lists_[key % sets_];
        l.remove(key);
    }

  private:
    std::size_t sets_;
    unsigned assoc_;
    std::vector<std::list<std::uint64_t>> lists_;
};

class CacheOracle : public ::testing::TestWithParam<
                        std::tuple<unsigned, unsigned, std::uint64_t>>
{
};

TEST_P(CacheOracle, MatchesReferenceLru)
{
    const auto [kb, assoc, seed] = GetParam();
    CacheParams p;
    p.size_bytes = kb * 1024ull;
    p.assoc = assoc;
    p.write_back = true;
    CacheArray cache(p);
    LruOracle oracle(cache.numSets(), cache.assoc());
    Rng rng(seed);

    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t line = rng.below(2048);
        const std::uint64_t addr = line * kLineSize;
        const auto op = rng.below(10);
        if (op < 6) {
            const bool hit = cache.access(0, addr, rng.chance(0.3),
                                          Tick(i));
            ASSERT_EQ(hit, oracle.access(line))
                << "access divergence at step " << i;
        } else if (op < 9) {
            const auto victim =
                cache.insert(0, addr, kPermRead, false, Tick(i));
            const auto ref_victim = oracle.insert(line);
            ASSERT_EQ(victim.has_value(), ref_victim.has_value())
                << "eviction divergence at step " << i;
            if (victim) {
                ASSERT_EQ(victim->line_addr / kLineSize, *ref_victim)
                    << "victim choice divergence at step " << i;
            }
        } else {
            cache.invalidateLine(0, addr);
            oracle.erase(line);
        }
        if (i % 1024 == 0) {
            // Periodic full cross-check of residency.
            for (std::uint64_t l = 0; l < 64; ++l)
                ASSERT_EQ(cache.present(0, l * kLineSize),
                          oracle.present(l));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheOracle,
    ::testing::Values(std::make_tuple(4u, 2u, 1ull),
                      std::make_tuple(8u, 4u, 2ull),
                      std::make_tuple(32u, 8u, 3ull),
                      std::make_tuple(16u, 16u, 4ull),
                      // 6 KB / 128 B lines / 4 ways = 12 sets: the
                      // modulo index path, not the mask.
                      std::make_tuple(6u, 4u, 5ull)));

class TlbOracle
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(TlbOracle, MatchesReferenceLru)
{
    const auto [entries, assoc] = GetParam();
    Tlb tlb(TlbParams{entries, assoc, false, false});
    LruOracle oracle(tlb.numSets(), tlb.assoc());
    Rng rng(entries * 31 + assoc);

    for (int i = 0; i < 20000; ++i) {
        const Vpn vpn = rng.below(1024);
        const auto op = rng.below(10);
        if (op < 5) {
            const bool hit =
                tlb.lookup(0, vpn, Tick(i)).has_value();
            ASSERT_EQ(hit, oracle.access(vpn))
                << "lookup divergence at step " << i;
        } else if (op < 9) {
            tlb.insert(0, vpn, TlbLookup{vpn, kPermRead, false},
                       Tick(i));
            oracle.insert(vpn);
        } else {
            tlb.invalidatePage(0, vpn);
            oracle.erase(vpn);
        }
        if (i % 2048 == 0) {
            for (Vpn v = 0; v < 64; ++v)
                ASSERT_EQ(tlb.present(0, v), oracle.present(v));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TlbOracle,
    ::testing::Values(std::make_tuple(32u, 0u),
                      std::make_tuple(32u, 4u),
                      std::make_tuple(128u, 8u),
                      std::make_tuple(64u, 2u),
                      // 12 sets: the modulo index path, not the mask.
                      std::make_tuple(48u, 4u)));

} // namespace
} // namespace gvc
