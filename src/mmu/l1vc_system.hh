/**
 * @file
 * L1-only virtual cache design (§5.4): virtually-tagged per-CU L1s in
 * front of per-CU TLBs and a physically-tagged shared L2.  This mirrors
 * classic CPU virtual-L1 proposals: L1 hits skip translation entirely,
 * but every L1 miss still needs the TLB before reaching the physical L2.
 *
 * Synonym correctness uses a line-granularity leading-address registry
 * (in the spirit of the ASDT): the first virtual name to cache a
 * physical line becomes its leading name; accesses under other names
 * replay with the leading name.  The registry is functional bookkeeping
 * — the paper's workloads exhibit no synonyms, so it adds no timing.
 */

#ifndef GVC_MMU_L1VC_SYSTEM_HH
#define GVC_MMU_L1VC_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/cache_array.hh"
#include "gpu/cu.hh"
#include "mem/vm.hh"
#include "mmu/boundary.hh"
#include "mmu/injection.hh"
#include "mmu/mmu_system.hh"
#include "mmu/phys_caches.hh"
#include "tlb/iommu.hh"
#include "tlb/tlb.hh"

namespace gvc
{

/** Leading virtual name per physical line, refcounted across L1s. */
class LineLeadingRegistry
{
  public:
    struct Leading
    {
        Asid asid;
        Vaddr line_va;
    };

    /** Current leading name of a physical line, if any copy is cached. */
    std::optional<Leading>
    lookup(Paddr line_pa) const
    {
        auto it = map_.find(line_pa >> kLineShift);
        if (it == map_.end())
            return std::nullopt;
        return Leading{it->second.asid, it->second.line_va};
    }

    /** A copy of @p line_pa was cached under (asid, line_va). */
    void
    fill(Paddr line_pa, Asid asid, Vaddr line_va)
    {
        auto &e = map_[line_pa >> kLineShift];
        if (e.refs == 0) {
            e.asid = asid;
            e.line_va = line_va;
        }
        ++e.refs;
    }

    /** One cached copy of @p line_pa went away. */
    void
    evict(Paddr line_pa)
    {
        auto it = map_.find(line_pa >> kLineShift);
        if (it == map_.end())
            return;
        if (--it->second.refs == 0)
            map_.erase(it);
    }

    std::size_t size() const { return map_.size(); }

    /** Forget every leading name (the L1s were fully invalidated). */
    void clear() { map_.clear(); }

  private:
    struct Entry
    {
        Asid asid = 0;
        Vaddr line_va = 0;
        std::uint32_t refs = 0;
    };

    std::unordered_map<std::uint64_t, Entry> map_;
};

/** The L1-only virtual cache design. */
class L1OnlyVcSystem final : public MmuSystem
{
  public:
    L1OnlyVcSystem(SimContext &ctx, const SocConfig &cfg, Vm &vm,
                   Dram &dram)
        : ctx_(ctx), cfg_(cfg), vm_(vm), caches_(ctx, cfg, dram),
          iommu_(ctx, vm, dram, cfg.iommuParams()),
          injection_(ctx, cfg.gpu.num_cus, cfg.cu_injection_rate)
    {
        for (unsigned i = 0; i < cfg.gpu.num_cus; ++i) {
            l1s_.push_back(std::make_unique<CacheArray>(
                CacheParams{cfg.l1_size, cfg.l1_assoc, unsigned(kLineSize),
                            /*write_back=*/false, /*write_allocate=*/false,
                            cfg.track_lifetimes}));
            tlbs_.push_back(std::make_unique<Tlb>(
                TlbParams{cfg.percu_tlb_entries, cfg.percu_tlb_assoc,
                          cfg.percu_tlb_infinite, cfg.track_lifetimes,
                          cfg.translation_memo, cfg.tlb_max_reach,
                          cfg.tlb_merge_on_insert,
                          cfg.percu_tlb_fill_policy,
                          cfg.tlb_replacement}));
        }
        vm.addPageShootdownListener([this](Asid asid, Vpn vpn) {
            for (unsigned cu = 0; cu < l1s_.size(); ++cu) {
                tlbs_[cu]->invalidatePage(asid, vpn, ctx_.now());
                l1s_[cu]->invalidatePage(
                    asid, pageBase(vpn), [this](const CacheLineInfo &info) {
                        registryEvict(info.asid, info.line_addr);
                    });
            }
        });
        // Full-AS shootdown: the virtual L1s cache lines under this
        // ASID's names, so they must drop whenever its translations do
        // (same rule as the per-page path above, whole address space).
        vm.addFullShootdownListener([this](Asid asid) {
            for (unsigned cu = 0; cu < l1s_.size(); ++cu) {
                tlbs_[cu]->invalidateAsid(asid, ctx_.now());
                l1s_[cu]->invalidateAsid(
                    asid, [this](const CacheLineInfo &info) {
                        registryEvict(info.asid, info.line_addr);
                    });
            }
        });
    }

    void
    access(unsigned cu_id, Asid asid, Vaddr line_va, bool is_store,
           Callback done) override
    {
        injection_.inject(cu_id, [this, cu_id, asid, line_va, is_store,
                                  done = std::move(done)]() mutable {
            ctx_.eq.scheduleIn(cfg_.l1_latency,
                               [this, cu_id, asid, line_va, is_store,
                                done = std::move(done)]() mutable {
                                   l1Access(cu_id, asid, line_va,
                                            is_store, std::move(done));
                               });
        });
    }

    Tlb &perCuTlb(unsigned cu) { return *tlbs_[cu]; }
    CacheArray &l1(unsigned cu) { return *l1s_[cu]; }

    Iommu *iommu() override { return &iommu_; }
    PhysCaches &caches() { return caches_; }
    std::uint64_t synonymReplays() const { return synonym_replays_.value; }
    LineLeadingRegistry &registry() { return registry_; }

    void flushLifetimes() override { caches_.flushLifetimes(); }

    void
    collectTlbRefs(TlbRefHist &percu, TlbRefHist &iommu_hist) override
    {
        for (auto &tlb : tlbs_)
            foldTlbRefs(*tlb, percu);
        foldTlbRefs(iommu_.tlb(), iommu_hist);
    }

    MmuCounters
    counters() const override
    {
        MmuCounters c;
        c.setCaches(l1s_, caches_.l2());
        c.addPerCuTlbs(tlbs_);
        c.synonym_replays = synonym_replays_.value;
        return c;
    }

    void
    registerStats(StatRegistry &reg) override
    {
        registerIommuStats(reg, iommu_);
        reg.addCounter("l1vc.synonym_replays", &synonym_replays_);
        reg.addScalar("l1vc.registry_lines",
                      [this] { return double(registry_.size()); });
    }

    /**
     * Kernel boundary (§4).  The virtual L1s must go whenever their
     * address space does: a TLB shootdown here also drops the L1s and
     * the leading-name registry (which tracks only L1 contents).  The
     * physical L2 follows the baseline rules and may survive.
     */
    void
    applyBoundary(const BoundaryPolicy &p) override
    {
        if (p.flush_l1 || p.shootdown_tlbs) {
            for (auto &l1 : l1s_)
                l1->invalidateAll();
            registry_.clear();
        }
        caches_.boundaryFlush(false, p.flush_l2);
        if (p.shootdown_tlbs) {
            for (auto &tlb : tlbs_)
                tlb->invalidateAll(ctx_.now());
            iommu_.invalidateAll();
            iommu_.ptw().pwc().invalidateAll();
        }
    }

  private:
    void
    l1Access(unsigned cu_id, Asid asid, Vaddr line_va, bool is_store,
             Callback done)
    {
        const auto perms = l1s_[cu_id]->linePerms(asid, line_va);
        const bool usable =
            perms && (!is_store || permsAllow(*perms, kPermWrite));
        if (usable) {
            l1s_[cu_id]->access(asid, line_va, is_store, ctx_.now());
            if (!is_store) {
                done();
                return;
            }
            // Store hit: write through; translation still needed for
            // the physical L2.
        } else if (!perms) {
            l1s_[cu_id]->access(asid, line_va, false, ctx_.now());
        }
        ctx_.eq.scheduleIn(cfg_.percu_tlb_latency,
                           [this, cu_id, asid, line_va, is_store,
                            done = std::move(done)]() mutable {
                               tlbStage(cu_id, asid, line_va, is_store,
                                        std::move(done));
                           });
    }

    void
    tlbStage(unsigned cu_id, Asid asid, Vaddr line_va, bool is_store,
             Callback done)
    {
        const Vpn vpn = pageOf(line_va);
        if (auto hit = tlbs_[cu_id]->lookup(asid, vpn, ctx_.now())) {
            translated(cu_id, asid, line_va, is_store, hit->ppn,
                       hit->perms, std::move(done));
            return;
        }
        ctx_.eq.scheduleIn(
            cfg_.cu_to_iommu,
            [this, cu_id, asid, vpn, line_va, is_store,
             done = std::move(done)]() mutable {
                iommu_.translate(
                    asid, vpn,
                    [this, cu_id, asid, vpn, line_va, is_store,
                     done = std::move(done)](
                        const IommuResponse &resp) mutable {
                        ctx_.eq.scheduleIn(
                            cfg_.cu_to_iommu,
                            [this, cu_id, asid, vpn, line_va, is_store,
                             resp, done = std::move(done)]() mutable {
                                if (resp.fault) {
                                    fatal("L1OnlyVcSystem: unhandled "
                                          "GPU page fault");
                                }
                                tlbs_[cu_id]->insert(
                                    asid, vpn,
                                    TlbLookup{resp.ppn, resp.perms,
                                              resp.large, resp.reach,
                                              resp.base_vpn,
                                              resp.base_ppn},
                                    ctx_.now());
                                translated(cu_id, asid, line_va,
                                           is_store, resp.ppn,
                                           resp.perms, std::move(done));
                            });
                    });
            });
    }

    void
    translated(unsigned cu_id, Asid asid, Vaddr line_va, bool is_store,
               Ppn ppn, Perms page_perms, Callback done)
    {
        const Paddr line_pa =
            pageBase(ppn) | (line_va & kPageMask & ~kLineMask);

        // Synonym discipline: the L1s may cache a physical line under a
        // single leading virtual name only.
        if (const auto leading = registry_.lookup(line_pa)) {
            if (leading->asid != asid || leading->line_va != line_va) {
                ++synonym_replays_;
                access(cu_id, leading->asid, leading->line_va, is_store,
                       std::move(done));
                return;
            }
        }

        caches_.accessL2(
            cu_id, line_pa, is_store,
            [this, cu_id, asid, line_va, line_pa, page_perms, is_store,
             done = std::move(done)]() mutable {
                if (!is_store)
                    fillL1(cu_id, asid, line_va, line_pa, page_perms);
                done();
            },
            /*fill_l1=*/false);
    }

    void
    fillL1(unsigned cu_id, Asid asid, Vaddr line_va, Paddr line_pa,
           Perms perms)
    {
        if (l1s_[cu_id]->present(asid, line_va))
            return; // a racing fill landed first; refs already counted
        const auto victim =
            l1s_[cu_id]->insert(asid, line_va, perms, false, ctx_.now());
        registry_.fill(line_pa, asid, line_va);
        if (victim)
            registryEvict(victim->asid, victim->line_addr);
    }

    /** Translate a victim's virtual name to drop its registry ref. */
    void
    registryEvict(Asid asid, Vaddr line_va)
    {
        const auto t = vm_.translate(asid, line_va);
        if (!t)
            return; // unmapped while cached; shootdown already purged
        const Paddr line_pa =
            pageBase(t->ppn) | (line_va & kPageMask & ~kLineMask);
        registry_.evict(line_pa);
    }

    SimContext &ctx_;
    SocConfig cfg_;
    Vm &vm_;
    PhysCaches caches_;
    Iommu iommu_;
    std::vector<std::unique_ptr<CacheArray>> l1s_;
    std::vector<std::unique_ptr<Tlb>> tlbs_;
    LineLeadingRegistry registry_;
    CuInjectionPorts injection_;
    Counter synonym_replays_;
};

} // namespace gvc

#endif // GVC_MMU_L1VC_SYSTEM_HH
