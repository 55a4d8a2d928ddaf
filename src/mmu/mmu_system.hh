/**
 * @file
 * The interface every MMU design implements, so the harness reaches
 * IDEAL, Baseline, the full virtual hierarchy and the L1-only VC design
 * through one set of calls instead of a per-design dispatch chain.
 *
 * Only access() (inherited from GpuMemInterface) runs per request.  The
 * virtuals added here are cold-path: they run at kernel boundaries and
 * once at the end of a run.  MmuCounters is the one snapshot of a
 * system's cumulative counters that result collection reads.
 */

#ifndef GVC_MMU_MMU_SYSTEM_HH
#define GVC_MMU_MMU_SYSTEM_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache_array.hh"
#include "gpu/cu.hh"
#include "mmu/boundary.hh"
#include "sim/stats.hh"
#include "tlb/iommu.hh"
#include "tlb/tlb.hh"

namespace gvc
{

/** Figure 2 classification counters. */
struct TlbMissBreakdown
{
    std::uint64_t miss_l1_hit = 0;
    std::uint64_t miss_l2_hit = 0;
    std::uint64_t miss_l2_miss = 0;

    std::uint64_t
    total() const
    {
        return miss_l1_hit + miss_l2_hit + miss_l2_miss;
    }

    bool operator==(const TlbMissBreakdown &) const = default;
};

/**
 * Cumulative counters of one MMU system at one instant.  A field a
 * design lacks stays zero (IDEAL and the full VC hierarchy have no
 * per-CU TLBs; only the VC designs replay synonyms).  Shared-IOMMU
 * counters are read from MmuSystem::iommu() instead.
 */
struct MmuCounters
{
    // --- cache hierarchy ---
    std::uint64_t l1_accesses = 0; ///< Summed over the per-CU L1s.
    std::uint64_t l1_hits = 0;
    std::uint64_t l2_accesses = 0;
    std::uint64_t l2_hits = 0;

    // --- per-CU TLBs, summed over CUs (Baseline, L1-only VC) ---
    std::uint64_t tlb_accesses = 0;
    std::uint64_t tlb_misses = 0;
    std::uint64_t tlb_reach_hits = 0;
    std::uint64_t tlb_reach_fills = 0;
    std::uint64_t tlb_merges = 0;
    std::uint64_t tlb_fill_bypasses = 0;
    std::uint64_t tlb_dead_first_evictions = 0;
    std::uint64_t tlb_pred_true_pos = 0;
    std::uint64_t tlb_pred_false_pos = 0;
    TlbMissBreakdown tlb_breakdown; ///< Figure 2 (Baseline only).

    // --- virtual caches ---
    std::uint64_t synonym_replays = 0; ///< VC and L1-only VC.
    std::uint64_t rw_faults = 0;
    std::uint64_t fbt_purges = 0;
    std::uint64_t fbt_valid_pages = 0;
    std::uint64_t fbt_lookups = 0; ///< BT + FT lookups.
    double fbt_ft_hit_ratio = 0.0;

    // --- Victima-style L2 translation stash (Baseline) ---
    std::uint64_t victima_stashes = 0;
    std::uint64_t victima_probes = 0;
    std::uint64_t victima_hits = 0;

    bool operator==(const MmuCounters &) const = default;

    /** Sum the per-CU L1s and take the shared L2's counts. */
    void
    setCaches(const std::vector<std::unique_ptr<CacheArray>> &l1s,
              const CacheArray &l2)
    {
        for (const auto &l1 : l1s) {
            l1_accesses += l1->accesses();
            l1_hits += l1->hits();
        }
        l2_accesses = l2.accesses();
        l2_hits = l2.hits();
    }

    /** Sum the per-CU TLBs' counters. */
    void
    addPerCuTlbs(const std::vector<std::unique_ptr<Tlb>> &tlbs)
    {
        for (const auto &t : tlbs) {
            tlb_accesses += t->accesses();
            tlb_misses += t->misses();
            tlb_reach_hits += t->reachHits();
            tlb_reach_fills += t->reachFills();
            tlb_merges += t->merges();
            tlb_fill_bypasses += t->fillBypasses();
            tlb_dead_first_evictions += t->deadFirstEvictions();
            tlb_pred_true_pos += t->predTruePos();
            tlb_pred_false_pos += t->predFalsePos();
        }
    }
};

/** One MMU design, as the harness drives it. */
class MmuSystem : public GpuMemInterface
{
  public:
    MmuSystem() = default;
    // Systems hand `this` to the Vm's shootdown listeners.
    MmuSystem(const MmuSystem &) = delete;
    MmuSystem &operator=(const MmuSystem &) = delete;

    /** Apply a kernel-boundary policy under this design's rules (§4). */
    virtual void applyBoundary(const BoundaryPolicy &p) = 0;

    /** Record lifetimes of cache lines still resident (end of run). */
    virtual void flushLifetimes() = 0;

    /**
     * Fold TLB entry reference-count histograms into @p percu (per-CU
     * TLBs, where the design has them) and @p iommu_hist (the shared
     * IOMMU TLB).  Still-resident entries are flushed in first, so call
     * once at simulation end.
     */
    virtual void collectTlbRefs(TlbRefHist &percu,
                                TlbRefHist &iommu_hist) = 0;

    /** The shared IOMMU; null for IDEAL, which has none. */
    virtual Iommu *iommu() = 0;

    /** Register this system's statistics under dotted names. */
    virtual void registerStats(StatRegistry &reg) = 0;

    /** Snapshot of the cumulative counters right now. */
    virtual MmuCounters counters() const = 0;

    /**
     * Request records held by this system's pools (its own, the
     * caches', the directory's, the IOMMU's and the walker's).  Every
     * request completes before the event queue drains, so this is 0
     * whenever the queue is empty.
     */
    virtual std::size_t liveRequests() const = 0;
};

/** Flush @p tlb's resident entries into its histogram and fold it in. */
inline void
foldTlbRefs(Tlb &tlb, TlbRefHist &hist)
{
    tlb.flushResidentRefs();
    hist.merge(tlb.refHist());
}

/** The `iommu.*` stats every design with an IOMMU registers first. */
inline void
registerIommuStats(StatRegistry &reg, Iommu &iommu)
{
    Iommu *io = &iommu;
    reg.addScalar("iommu.accesses", [io] { return double(io->accesses()); });
    reg.addScalar("iommu.walks", [io] { return double(io->walks()); });
    reg.addScalar("iommu.faults", [io] { return double(io->faults()); });
    reg.addScalar("iommu.serialization_cycles",
                  [io] { return double(io->serializationDelay()); });
    reg.addScalar("iommu.tlb.hits",
                  [io] { return double(io->tlb().hits()); });
    reg.addScalar("iommu.tlb.misses",
                  [io] { return double(io->tlb().misses()); });
    reg.addScalar("iommu.pwc.hit_ratio",
                  [io] { return io->ptw().pwc().hitRatio(); });
    reg.addScalar("iommu.ptw.mean_latency",
                  [io] { return io->ptw().meanLatency(); });
}

} // namespace gvc

#endif // GVC_MMU_MMU_SYSTEM_HH
