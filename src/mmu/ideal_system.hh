/**
 * @file
 * IDEAL MMU design (§3, Figure 4): translation with infinite capacity,
 * infinite bandwidth, and minimal latency.  Modeled as free, immediate
 * translation in front of the physical cache pipeline, which upper-bounds
 * every realizable MMU and matches the paper's normalization target.
 */

#ifndef GVC_MMU_IDEAL_SYSTEM_HH
#define GVC_MMU_IDEAL_SYSTEM_HH

#include "gpu/cu.hh"
#include "mem/vm.hh"
#include "mmu/boundary.hh"
#include "mmu/injection.hh"
#include "mmu/mmu_system.hh"
#include "mmu/phys_caches.hh"

namespace gvc
{

/** Physical hierarchy with zero-cost address translation. */
class IdealMmuSystem final : public MmuSystem
{
  public:
    IdealMmuSystem(SimContext &ctx, const SocConfig &cfg, Vm &vm,
                   Dram &dram)
        : vm_(vm), caches_(ctx, cfg, dram),
          injection_(ctx, cfg.gpu.num_cus, cfg.cu_injection_rate)
    {
    }

    void
    access(unsigned cu_id, Asid asid, Vaddr line_va, bool is_store,
           Callback done) override
    {
        const auto t = vm_.translate(asid, line_va);
        if (!t)
            fatal("IdealMmuSystem: access to unmapped address");
        const Paddr line_pa =
            pageBase(t->ppn) | (line_va & kPageMask & ~kLineMask);
        injection_.inject(cu_id, [this, cu_id, line_pa, is_store,
                                  done = std::move(done)]() mutable {
            caches_.accessL1(cu_id, line_pa, is_store, std::move(done));
        });
    }

    PhysCaches &caches() { return caches_; }
    const PhysCaches &caches() const { return caches_; }

    /**
     * Kernel boundary (§4).  Translation is free here, so only the cache
     * flags matter; a TLB shootdown is a no-op by construction.
     */
    void
    applyBoundary(const BoundaryPolicy &p) override
    {
        caches_.boundaryFlush(p.flush_l1, p.flush_l2);
    }

    void flushLifetimes() override { caches_.flushLifetimes(); }
    void collectTlbRefs(TlbRefHist &, TlbRefHist &) override {}
    Iommu *iommu() override { return nullptr; }
    /** Translation is free, so there is nothing to report. */
    void registerStats(StatRegistry &) override {}

    MmuCounters
    counters() const override
    {
        MmuCounters c;
        c.setCaches(caches_.l1s(), caches_.l2());
        return c;
    }

  private:
    Vm &vm_;
    PhysCaches caches_;
    CuInjectionPorts injection_;
};

} // namespace gvc

#endif // GVC_MMU_IDEAL_SYSTEM_HH
