/**
 * @file
 * Scans over the packed per-set metadata of the cache and TLB arrays
 * (cache/cache_array.hh, tlb/tlb.hh): a set's 64-bit keys or tags, and
 * its recency stamps, each stored contiguously apart from the payload.
 */

#ifndef GVC_SIM_WAY_SCAN_HH
#define GVC_SIM_WAY_SCAN_HH

#include <cstddef>
#include <cstdint>

namespace gvc
{

/**
 * Index of the first of @p n keys equal to @p key, or @p n when none
 * is.  Compares four keys per branch, because most probes of a set
 * miss and a miss reads every key.
 */
constexpr std::size_t
findKey(const std::uint64_t *keys, std::size_t n, std::uint64_t key)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        if (int(keys[i] == key) | int(keys[i + 1] == key) |
            int(keys[i + 2] == key) | int(keys[i + 3] == key))
            break;
    }
    for (; i < n; ++i)
        if (keys[i] == key)
            return i;
    return n;
}

/**
 * Index of the smallest of @p n >= 1 recency stamps: the true-LRU
 * victim of a full set.  The first of equal stamps wins.  Written as
 * selects, not a branch: which way is oldest is unpredictable, and a
 * mispredict per way doubled the scan's cost on 16 and 32 ways.
 */
constexpr std::size_t
oldestWay(const std::uint64_t *stamps, std::size_t n)
{
    std::size_t victim = 0;
    std::uint64_t oldest = stamps[0];
    for (std::size_t i = 1; i < n; ++i) {
        const bool older = stamps[i] < oldest;
        oldest = older ? stamps[i] : oldest;
        victim = older ? i : victim;
    }
    return victim;
}

} // namespace gvc

#endif // GVC_SIM_WAY_SCAN_HH
