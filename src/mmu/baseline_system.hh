/**
 * @file
 * Baseline MMU design (§2.1, Figure 1): physically-tagged caches behind
 * per-CU TLBs; misses travel to the shared, bandwidth-limited IOMMU TLB
 * over a PCIe-protocol path; IOMMU misses engage the 16-thread page-table
 * walker with its page-walk cache.
 *
 * Matching the paper's accounting (Figure 3 equates IOMMU TLB accesses
 * with per-CU TLB misses), concurrent misses to the same page are not
 * merged by default; an optional merge mode exists for ablation.
 *
 * Also hosts the Figure 2 instrumentation: every per-CU TLB miss is
 * classified by where the data currently resides (L1 hit / L2 hit / L2
 * miss) via side-effect-free presence probes.
 */

#ifndef GVC_MMU_BASELINE_SYSTEM_HH
#define GVC_MMU_BASELINE_SYSTEM_HH

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "gpu/cu.hh"
#include "mem/vm.hh"
#include "mmu/boundary.hh"
#include "mmu/injection.hh"
#include "mmu/mmu_system.hh"
#include "mmu/phys_caches.hh"
#include "sim/request_pool.hh"
#include "tlb/iommu.hh"
#include "tlb/tlb.hh"

namespace gvc
{

/** The baseline physical-cache MMU design. */
class BaselineMmuSystem final : public MmuSystem
{
  public:
    /**
     * @param merge_tlb_misses  Merge concurrent per-CU TLB misses to the
     *        same page into one IOMMU request (ablation; default off to
     *        match the paper's accounting).
     */
    BaselineMmuSystem(SimContext &ctx, const SocConfig &cfg, Vm &vm,
                      Dram &dram, bool merge_tlb_misses = false)
        : ctx_(ctx), cfg_(cfg), vm_(vm), caches_(ctx, cfg, dram),
          iommu_(ctx, vm, dram, cfg.iommuParams()),
          injection_(ctx, cfg.gpu.num_cus, cfg.cu_injection_rate),
          merge_tlb_misses_(merge_tlb_misses)
    {
        tlbs_.reserve(cfg.gpu.num_cus);
        for (unsigned i = 0; i < cfg.gpu.num_cus; ++i) {
            tlbs_.push_back(std::make_unique<Tlb>(
                TlbParams{cfg.percu_tlb_entries, cfg.percu_tlb_assoc,
                          cfg.percu_tlb_infinite, cfg.track_lifetimes,
                          cfg.translation_memo, cfg.tlb_max_reach,
                          cfg.tlb_merge_on_insert,
                          cfg.percu_tlb_fill_policy,
                          cfg.tlb_replacement}));
            if (cfg.victima_stash) {
                tlbs_.back()->setEvictHook(
                    [this](Asid asid, Vpn vpn, Ppn ppn, Perms perms) {
                        stashInsert(asid, vpn, ppn, perms);
                    });
            }
        }
        vm.addPageShootdownListener([this](Asid asid, Vpn vpn) {
            for (auto &tlb : tlbs_)
                tlb->invalidatePage(asid, vpn, ctx_.now());
            stashInvalidatePage(asid, vpn);
        });
        vm.addFullShootdownListener([this](Asid asid) {
            for (auto &tlb : tlbs_)
                tlb->invalidateAsid(asid, ctx_.now());
            stashInvalidateAsid(asid);
        });
    }

    void
    access(unsigned cu_id, Asid asid, Vaddr line_va, bool is_store,
           Callback done) override
    {
        Request *r = reqs_.acquire();
        r->cu = cu_id;
        r->asid = asid;
        r->line_va = line_va;
        r->is_store = is_store;
        r->done = std::move(done);
        injection_.inject(cu_id, [this, r] {
            ctx_.eq.scheduleIn(cfg_.percu_tlb_latency,
                               [this, r] { afterTlb(r); });
        });
    }

    Tlb &perCuTlb(unsigned cu) { return *tlbs_[cu]; }
    const Tlb &perCuTlb(unsigned cu) const { return *tlbs_[cu]; }

    Iommu *iommu() override { return &iommu_; }
    PhysCaches &caches() { return caches_; }
    const PhysCaches &caches() const { return caches_; }
    const TlbMissBreakdown &breakdown() const { return breakdown_; }

    void flushLifetimes() override { caches_.flushLifetimes(); }

    std::size_t
    liveRequests() const override
    {
        return reqs_.live() + caches_.liveRequests() +
               iommu_.liveRequests();
    }

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
        c.setCaches(caches_.l1s(), caches_.l2());
        c.addPerCuTlbs(tlbs_);
        c.tlb_breakdown = breakdown_;
        c.victima_stashes = victima_stashes_.value;
        c.victima_probes = victima_probes_.value;
        c.victima_hits = victima_hits_.value;
        return c;
    }

    void
    registerStats(StatRegistry &reg) override
    {
        const auto percu = [this, &reg](const char *name,
                                        std::uint64_t MmuCounters::*f) {
            reg.addScalar(name, [this, f] { return double(counters().*f); });
        };
        registerIommuStats(reg, iommu_);
        percu("percu_tlb.accesses", &MmuCounters::tlb_accesses);
        percu("percu_tlb.misses", &MmuCounters::tlb_misses);
        reg.addScalar("l2.hit_ratio",
                      [this] { return caches_.l2().hitRatio(); });
        reg.addScalar("directory.probes", [this] {
            return double(caches_.directory().probesSent());
        });
        // Reach/stash scalars appear only when the feature is on,
        // keeping classic designs' stat dumps byte-identical.
        if (cfg_.tlb_max_reach > 0) {
            percu("percu_tlb.reach_hits", &MmuCounters::tlb_reach_hits);
            percu("percu_tlb.reach_fills", &MmuCounters::tlb_reach_fills);
            percu("percu_tlb.merges", &MmuCounters::tlb_merges);
        }
        if (cfg_.percu_tlb_fill_policy != kTlbFillLru) {
            percu("percu_tlb.fill_bypasses",
                  &MmuCounters::tlb_fill_bypasses);
        }
        if (cfg_.percu_tlb_fill_policy == kTlbFillBypassTrained) {
            percu("percu_tlb.dead_first_evictions",
                  &MmuCounters::tlb_dead_first_evictions);
            percu("percu_tlb.pred_true_pos",
                  &MmuCounters::tlb_pred_true_pos);
            percu("percu_tlb.pred_false_pos",
                  &MmuCounters::tlb_pred_false_pos);
        }
        if (cfg_.victima_stash) {
            reg.addCounter("victima.stashes", &victima_stashes_);
            reg.addCounter("victima.probes", &victima_probes_);
            reg.addCounter("victima.hits", &victima_hits_);
        }
    }

    /**
     * Kernel boundary (§4).  A shootdown invalidates the translation
     * path end to end (per-CU TLBs, IOMMU TLB, page-walk cache) but the
     * physically-tagged caches legally survive it — the baseline's data
     * is immune to address-space changes, which is exactly the warm-path
     * asymmetry versus the VC designs that fig_warm measures.
     */
    void
    applyBoundary(const BoundaryPolicy &p) override
    {
        caches_.boundaryFlush(p.flush_l1, p.flush_l2);
        if (p.flush_l2)
            stash_.clear(); // The array already dropped the lines.
        if (p.shootdown_tlbs) {
            for (auto &tlb : tlbs_)
                tlb->invalidateAll(ctx_.now());
            iommu_.invalidateAll();
            iommu_.ptw().pwc().invalidateAll();
            // The stash is translation state and dies with the TLBs.
            dropStash();
        }
    }

  private:
    /** One access from access() until it enters the caches. */
    struct Request
    {
        unsigned cu;
        Asid asid;
        Vaddr line_va;
        bool is_store;
        IommuResponse resp; ///< The IOMMU's answer, on a per-CU miss.
        Callback done;
    };

    void
    afterTlb(Request *r)
    {
        const unsigned cu_id = r->cu;
        const Asid asid = r->asid;
        const Vpn vpn = pageOf(r->line_va);
        if (auto hit = tlbs_[cu_id]->lookup(asid, vpn, ctx_.now())) {
            proceed(r, hit->ppn);
            return;
        }

        if (cfg_.classify_tlb_misses)
            classify(cu_id, asid, r->line_va);

        // Victima-style stash probe: before paying the PCIe hop to the
        // IOMMU, check whether an earlier capacity eviction parked this
        // translation in the L2 data array.  The side map makes the
        // probe precise — only addresses we actually stashed reach the
        // array — so baseline configurations (victima_stash off) never
        // touch the L2 here.
        if (cfg_.victima_stash) {
            const auto it = stash_.find(stashAddr(asid, vpn));
            if (it != stash_.end()) {
                ++victima_probes_;
                const Paddr addr = it->first;
                if (caches_.l2().access(0, addr, false, ctx_.now())) {
                    // Hit: re-promote the translation into the TLB and
                    // consume the stash copy.  Cost is one L2 round
                    // trip instead of the full IOMMU translation.
                    ++victima_hits_;
                    const StashEntry e = it->second;
                    stash_.erase(it);
                    caches_.l2().invalidateLine(0, addr);
                    const Tick lat = 2 * cfg_.cu_to_l2 + cfg_.l2_latency;
                    ctx_.eq.scheduleIn(lat, [this, r, e] {
                        tlbs_[r->cu]->insert(
                            r->asid, pageOf(r->line_va),
                            TlbLookup{e.ppn, e.perms, false}, ctx_.now());
                        proceed(r, e.ppn);
                    });
                    return;
                }
                // The stash line was silently displaced by an ordinary
                // data fill; drop the stale side entry and walk.  (Such
                // misses are rare; their probe latency is folded into
                // the much longer IOMMU path below.)
                stash_.erase(it);
            }
        }

        if (merge_tlb_misses_) {
            // Later misses to the page ride the first one's request.
            auto [it, fresh] = pending_.try_emplace(mergeKey(r));
            it->second.push_back(r);
            if (!fresh)
                return;
        }

        // One IOMMU request per miss (paper accounting), or per page
        // group in merge mode.
        ctx_.eq.scheduleIn(cfg_.cu_to_iommu, [this, r] {
            iommu_.translate(
                r->asid, pageOf(r->line_va),
                [this, r](const IommuResponse &resp) {
                    r->resp = resp;
                    ctx_.eq.scheduleIn(cfg_.cu_to_iommu,
                                       [this, r] { onTranslation(r); });
                });
        });
    }

    void
    onTranslation(Request *r)
    {
        // A copy: proceed() retires r, and in merge mode r is one of
        // the waiters.
        const IommuResponse resp = r->resp;
        if (resp.fault)
            fatal("BaselineMmuSystem: unhandled GPU page fault");
        tlbs_[r->cu]->insert(r->asid, pageOf(r->line_va),
                             TlbLookup{resp.ppn, resp.perms, resp.large,
                                       resp.reach, resp.base_vpn,
                                       resp.base_ppn},
                             ctx_.now());
        if (!merge_tlb_misses_) {
            proceed(r, resp.ppn);
            return;
        }
        auto node = pending_.extract(mergeKey(r));
        for (Request *w : node.mapped())
            proceed(w, resp.ppn);
    }

    static std::uint64_t
    mergeKey(const Request *r)
    {
        return (std::uint64_t(r->cu) << 56) |
               (std::uint64_t(r->asid) << 40) | pageOf(r->line_va);
    }

    // --- Victima-style L2 translation stash ---
    //
    // Evicted per-CU TLB translations are parked in the L2 data array
    // under synthetic line addresses (bit 63 marks stash lines, which
    // cannot collide with real physical lines below phys_mem_bytes).
    // The side map mirrors array residency so misses stay cheap; the
    // array itself provides the capacity pressure — ordinary data fills
    // displace stash lines silently, exactly as in Victima.

    static Paddr
    stashAddr(Asid asid, Vpn vpn)
    {
        return (std::uint64_t{1} << 63) | (std::uint64_t(asid) << 44) |
               (vpn << kLineShift);
    }

    void
    stashInsert(Asid asid, Vpn vpn, Ppn ppn, Perms perms)
    {
        ++victima_stashes_;
        const Paddr addr = stashAddr(asid, vpn);
        stash_[addr] = StashEntry{ppn, perms};
        const auto victim =
            caches_.l2().insert(0, addr, kPermRead, false, ctx_.now());
        if (!victim)
            return;
        if (victim->line_addr >> 63)
            stash_.erase(victim->line_addr);
        else if (victim->dirty)
            caches_.directory().writeback(DirNode::kGpu,
                                          victim->line_addr);
    }

    void
    stashInvalidatePage(Asid asid, Vpn vpn)
    {
        if (stash_.empty())
            return;
        const Paddr addr = stashAddr(asid, vpn);
        if (stash_.erase(addr))
            caches_.l2().invalidateLine(0, addr);
    }

    void
    stashInvalidateAsid(Asid asid)
    {
        for (auto it = stash_.begin(); it != stash_.end();) {
            if (Asid((it->first >> 44) & 0xffff) == asid) {
                caches_.l2().invalidateLine(0, it->first);
                it = stash_.erase(it);
            } else {
                ++it;
            }
        }
    }

    /** TLB-path shootdown of the stash (kernel boundary). */
    void
    dropStash()
    {
        for (const auto &kv : stash_)
            caches_.l2().invalidateLine(0, kv.first);
        stash_.clear();
    }

    /** Translated: retire the record and enter the L1 of its CU. */
    void
    proceed(Request *r, Ppn ppn)
    {
        const Paddr line_pa =
            pageBase(ppn) | (r->line_va & kPageMask & ~kLineMask);
        caches_.accessL1(r->cu, line_pa, r->is_store, std::move(r->done));
        reqs_.release(r);
    }

    /** Figure 2: classify a TLB miss by current data residency. */
    void
    classify(unsigned cu_id, Asid asid, Vaddr line_va)
    {
        const auto t = vm_.translate(asid, line_va);
        if (!t)
            return;
        const Paddr line_pa =
            pageBase(t->ppn) | (line_va & kPageMask & ~kLineMask);
        if (caches_.l1(cu_id).present(0, line_pa))
            ++breakdown_.miss_l1_hit;
        else if (caches_.l2().present(0, line_pa))
            ++breakdown_.miss_l2_hit;
        else
            ++breakdown_.miss_l2_miss;
    }

    /** Payload of a stashed translation, keyed by stash line address. */
    struct StashEntry
    {
        Ppn ppn;
        Perms perms;
    };

    SimContext &ctx_;
    SocConfig cfg_;
    Vm &vm_;
    PhysCaches caches_;
    Iommu iommu_;
    CuInjectionPorts injection_;
    bool merge_tlb_misses_;
    std::vector<std::unique_ptr<Tlb>> tlbs_;
    RequestPool<Request> reqs_;
    /// Merge mode: per-CU misses waiting on one IOMMU request.
    std::unordered_map<std::uint64_t, std::vector<Request *>> pending_;
    TlbMissBreakdown breakdown_;
    /// Victima side map: stash line address -> stashed translation.
    std::unordered_map<Paddr, StashEntry> stash_;
    Counter victima_stashes_;
    Counter victima_probes_;
    Counter victima_hits_;
};

} // namespace gvc

#endif // GVC_MMU_BASELINE_SYSTEM_HH
