/**
 * @file
 * Generic set-associative cache array with true-LRU replacement.
 *
 * The same array backs physical caches (tag = physical line address) and
 * virtual caches (tag = virtual line address + ASID, with per-line
 * permissions, as required by the paper's design).  Timing lives in the
 * hierarchy controllers; this class is the functional state plus
 * statistics and lifetime tracking (Figure 12).
 */

#ifndef GVC_CACHE_CACHE_ARRAY_HH
#define GVC_CACHE_CACHE_ARRAY_HH

#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "sim/way_scan.hh"

namespace gvc
{

/** Cache geometry and policy configuration. */
struct CacheParams
{
    std::uint64_t size_bytes = 32 * 1024;
    unsigned assoc = 8;
    unsigned line_bytes = unsigned(kLineSize);
    /** Write-back (true) or write-through (false). */
    bool write_back = false;
    /** Allocate on write miss. */
    bool write_allocate = false;
    /** Record per-line active lifetimes (insert -> last access). */
    bool track_lifetimes = false;
};

/** Metadata of a resident line, returned on eviction. */
struct CacheLineInfo
{
    Asid asid = 0;
    std::uint64_t line_addr = kInvalidAddr; ///< Line-aligned tag address.
    Perms perms = kPermNone;
    bool dirty = false;
};

/**
 * The array.  Addresses are line-aligned by callers' convention but the
 * array aligns defensively.  ASID participates in tag match only (not in
 * indexing), which is what the paper's ASID-extended virtual tags do.
 *
 * Layout: the hot metadata a set scan reads is packed apart from the
 * payload.  keys_ holds each way's line key (kNoKey when the way is
 * invalid) and lru_ its recency stamp (0 when invalid), so a probe
 * compares a set's keys as one contiguous stride and touches a line's
 * payload (ASID, permissions, dirtiness, lifetime stamps) only on a key
 * match.  The ASID cannot join the packed key: stash lines set address
 * bit 63, so a key spans 57 bits and leaves too few for it.  With a
 * power-of-two line size and set count, keys and set indices come from
 * shifts and masks; other geometries divide.
 */
class CacheArray
{
  public:
    explicit CacheArray(const CacheParams &params)
        : params_(params)
    {
        const std::uint64_t lines = params.size_bytes / params.line_bytes;
        if (lines == 0)
            fatal("CacheArray: size smaller than one line");
        unsigned assoc = params.assoc ? params.assoc : 1;
        if (assoc > lines)
            assoc = unsigned(lines);
        num_sets_ = std::size_t(lines / assoc);
        assoc_ = unsigned(lines / num_sets_);
        if (std::has_single_bit(params.line_bytes))
            line_shift_ = std::countr_zero(params.line_bytes);
        if (std::has_single_bit(num_sets_))
            set_mask_ = num_sets_ - 1;
        keys_.assign(num_sets_ * assoc_, kNoKey);
        lru_.assign(num_sets_ * assoc_, 0);
        lines_.resize(num_sets_ * assoc_);
    }

    /**
     * Access a line.  On hit, recency (and dirtiness for write-back
     * writes) are updated.  Write-through writes never dirty the line.
     * @return true on hit.
     */
    bool
    access(Asid asid, std::uint64_t addr, bool is_write, Tick now)
    {
        ++accesses_;
        if (is_write)
            ++writes_;
        const std::size_t w = findWay(asid, lineKey(addr));
        if (w == kNoWay) {
            ++misses_;
            return false;
        }
        ++hits_;
        lru_[w] = ++lru_clock_;
        lines_[w].last_used = now;
        if (is_write && params_.write_back)
            lines_[w].dirty = true;
        return true;
    }

    /** Side-effect-free presence probe (Figure 2 classification). */
    bool
    present(Asid asid, std::uint64_t addr) const
    {
        return findWay(asid, lineKey(addr)) != kNoWay;
    }

    /** Permissions of a resident line (virtual caches check these). */
    std::optional<Perms>
    linePerms(Asid asid, std::uint64_t addr) const
    {
        const std::size_t w = findWay(asid, lineKey(addr));
        if (w == kNoWay)
            return std::nullopt;
        return lines_[w].perms;
    }

    /**
     * Install a line, evicting the LRU way if needed.
     * @return metadata of the displaced line, if any (for writebacks and
     *         FBT bit-vector maintenance).
     */
    std::optional<CacheLineInfo>
    insert(Asid asid, std::uint64_t addr, Perms perms, bool dirty,
           Tick now)
    {
        ++fills_;
        const std::uint64_t key = lineKey(addr);
        const std::size_t hit = findWay(asid, key);
        if (hit != kNoWay) {
            Line &l = lines_[hit];
            l.perms = perms;
            l.dirty = l.dirty || dirty;
            lru_[hit] = ++lru_clock_;
            l.last_used = now;
            return std::nullopt;
        }
        // Reuse the first invalid way before displacing anyone.
        const std::size_t base = setIndex(key) * assoc_;
        std::optional<CacheLineInfo> evicted;
        std::size_t w = base + findKey(keys_.data() + base, assoc_, kNoKey);
        if (w == base + assoc_) {
            // Set full: every way is valid, so the smallest stamp is
            // the least recently used line.
            w = base + oldestWay(lru_.data() + base, assoc_);
            evicted = retire(w);
            ++evictions_;
        }
        keys_[w] = key;
        lru_[w] = ++lru_clock_;
        lines_[w] = Line{asid, perms, dirty, now, now};
        return evicted;
    }

    /** Invalidate one line.  @return its metadata if it was present. */
    std::optional<CacheLineInfo>
    invalidateLine(Asid asid, std::uint64_t addr)
    {
        const std::size_t w = findWay(asid, lineKey(addr));
        if (w == kNoWay)
            return std::nullopt;
        return drop(w);
    }

    /**
     * Invalidate every line belonging to one 4 KB page of one address
     * space.  @p on_evict receives each line (writeback decisions).
     * @return number of lines invalidated.
     */
    unsigned
    invalidatePage(Asid asid, std::uint64_t page_base_addr,
                   const std::function<void(const CacheLineInfo &)>
                       &on_evict = {})
    {
        unsigned count = 0;
        for (unsigned i = 0; i < kLinesPerPage; ++i) {
            const std::uint64_t addr =
                page_base_addr + std::uint64_t(i) * params_.line_bytes;
            if (auto info = invalidateLine(asid, addr)) {
                ++count;
                if (on_evict)
                    on_evict(*info);
            }
        }
        return count;
    }

    /**
     * Invalidate every line belonging to one address space (per-ASID
     * shootdown); @p on_evict sees each dropped line.
     * @return number of lines invalidated.
     */
    unsigned
    invalidateAsid(Asid asid,
                   const std::function<void(const CacheLineInfo &)>
                       &on_evict = {})
    {
        unsigned count = 0;
        for (std::size_t w = 0; w < keys_.size(); ++w) {
            if (keys_[w] == kNoKey || lines_[w].asid != asid)
                continue;
            const auto info = drop(w);
            ++count;
            if (on_evict)
                on_evict(info);
        }
        return count;
    }

    /** Invalidate the entire array; @p on_evict sees every line. */
    void
    invalidateAll(const std::function<void(const CacheLineInfo &)>
                      &on_evict = {})
    {
        for (std::size_t w = 0; w < keys_.size(); ++w) {
            if (keys_[w] == kNoKey)
                continue;
            const auto info = drop(w);
            if (on_evict)
                on_evict(info);
        }
    }

    /** Visit every resident line (tests, end-of-run lifetime flush). */
    void
    forEachLine(const std::function<void(const CacheLineInfo &)> &fn) const
    {
        for (std::size_t w = 0; w < keys_.size(); ++w)
            if (keys_[w] != kNoKey)
                fn(info(w));
    }

    /** Record lifetimes of still-resident lines (simulation end). */
    void
    flushLifetimes()
    {
        if (!params_.track_lifetimes)
            return;
        for (std::size_t w = 0; w < keys_.size(); ++w) {
            const Line &l = lines_[w];
            if (keys_[w] != kNoKey && l.last_used > l.inserted)
                lifetimes_.record(l.last_used - l.inserted);
        }
    }

    /**
     * Check the packed key and recency arrays against each other and
     * the payload: a way is invalid in both arrays or in neither, every
     * resident key indexes the set holding it, no set holds one
     * (ASID, line) twice, and resident recency stamps are distinct
     * within a set and no newer than the clock.
     */
    bool
    packedConsistent() const
    {
        for (std::size_t set = 0; set < num_sets_; ++set) {
            const std::size_t base = set * assoc_;
            for (unsigned i = 0; i < assoc_; ++i) {
                const std::size_t w = base + i;
                if ((keys_[w] == kNoKey) != (lru_[w] == 0))
                    return false;
                if (keys_[w] == kNoKey)
                    continue;
                if (setIndex(keys_[w]) != set || lru_[w] > lru_clock_)
                    return false;
                for (unsigned j = 0; j < i; ++j) {
                    const std::size_t o = base + j;
                    if (keys_[o] == kNoKey)
                        continue;
                    if (lru_[o] == lru_[w] ||
                        (keys_[o] == keys_[w] &&
                         lines_[o].asid == lines_[w].asid))
                        return false;
                }
            }
        }
        return true;
    }

    std::uint64_t accesses() const { return accesses_.value; }
    std::uint64_t hits() const { return hits_.value; }
    std::uint64_t misses() const { return misses_.value; }
    std::uint64_t fills() const { return fills_.value; }
    std::uint64_t evictions() const { return evictions_.value; }
    std::uint64_t invalidations() const { return invalidations_.value; }

    double
    hitRatio() const
    {
        return accesses_.value
            ? double(hits_.value) / double(accesses_.value)
            : 0.0;
    }

    const LifetimeRecorder &lifetimes() const { return lifetimes_; }
    std::size_t numSets() const { return num_sets_; }
    unsigned assoc() const { return assoc_; }
    unsigned lineBytes() const { return params_.line_bytes; }

    std::size_t
    residentLines() const
    {
        std::size_t n = 0;
        for (const std::uint64_t key : keys_)
            n += key != kNoKey ? 1 : 0;
        return n;
    }

  private:
    /** Payload of a way; its key and recency live in keys_ / lru_. */
    struct Line
    {
        Asid asid = 0;
        Perms perms = kPermNone;
        bool dirty = false;
        Tick inserted = 0;
        Tick last_used = 0;
    };

    /// Key of an invalid way.  Real keys are addresses shifted right by
    /// the line size, so they never reach it.
    static constexpr std::uint64_t kNoKey = ~std::uint64_t{0};
    static constexpr std::size_t kNoWay = ~std::size_t{0};
    static constexpr int kNoShift = -1;

    std::uint64_t
    lineKey(std::uint64_t addr) const
    {
        return line_shift_ != kNoShift ? addr >> line_shift_
                                       : addr / params_.line_bytes;
    }

    std::uint64_t
    unKey(std::uint64_t key) const
    {
        return key * params_.line_bytes;
    }

    std::size_t
    setIndex(std::uint64_t key) const
    {
        return set_mask_ != kNoWay ? std::size_t(key & set_mask_)
                                   : std::size_t(key % num_sets_);
    }

    /** Flat way index holding (asid, key), or kNoWay. */
    std::size_t
    findWay(Asid asid, std::uint64_t key) const
    {
        const std::size_t base = setIndex(key) * assoc_;
        const std::uint64_t *keys = keys_.data() + base;
        // A key can repeat in a set under different ASIDs.
        for (std::size_t i = findKey(keys, assoc_, key); i < assoc_;
             i += 1 + findKey(keys + i + 1, assoc_ - i - 1, key)) {
            if (lines_[base + i].asid == asid)
                return base + i;
        }
        return kNoWay;
    }

    CacheLineInfo
    info(std::size_t w) const
    {
        const Line &l = lines_[w];
        return CacheLineInfo{l.asid, unKey(keys_[w]), l.perms, l.dirty};
    }

    /** Common retirement bookkeeping; returns the line's metadata. */
    CacheLineInfo
    retire(std::size_t w)
    {
        const Line &l = lines_[w];
        if (params_.track_lifetimes && l.last_used > l.inserted)
            lifetimes_.record(l.last_used - l.inserted);
        return info(w);
    }

    /** Retire and invalidate resident way @p w. */
    CacheLineInfo
    drop(std::size_t w)
    {
        const auto dropped = retire(w);
        keys_[w] = kNoKey;
        lru_[w] = 0;
        ++invalidations_;
        return dropped;
    }

    CacheParams params_;
    std::size_t num_sets_ = 1;
    unsigned assoc_ = 1;
    int line_shift_ = kNoShift;    ///< log2(line_bytes) when a power of two.
    std::size_t set_mask_ = kNoWay; ///< num_sets_ - 1 when a power of two.
    /// Flat num_sets x assoc arrays, set-major: the packed keys and
    /// recency stamps a scan reads, and the payload it rarely touches.
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint64_t> lru_;
    std::vector<Line> lines_;
    std::uint64_t lru_clock_ = 0;

    Counter accesses_;
    Counter writes_;
    Counter hits_;
    Counter misses_;
    Counter fills_;
    Counter evictions_;
    Counter invalidations_;
    LifetimeRecorder lifetimes_;
};

} // namespace gvc

#endif // GVC_CACHE_CACHE_ARRAY_HH
