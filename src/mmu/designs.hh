/**
 * @file
 * Named MMU designs (Table 2 of the paper, plus the Figure 10/11
 * comparison points) and a uniform wrapper that builds any of them over
 * a shared Vm/Dram so the harness can sweep designs.
 */

#ifndef GVC_MMU_DESIGNS_HH
#define GVC_MMU_DESIGNS_HH

#include <memory>
#include <string>

#include "core/virtual_hierarchy.hh"
#include "mmu/baseline_system.hh"
#include "mmu/boundary.hh"
#include "mmu/ideal_system.hh"
#include "mmu/l1vc_system.hh"
#include "mmu/mmu_system.hh"
#include "mmu/soc_config.hh"

namespace gvc
{

/** The MMU designs evaluated in the paper. */
enum class MmuDesign {
    kIdeal,            ///< IDEAL MMU: free translation.
    kBaseline512,      ///< 32-entry per-CU TLBs, 512-entry IOMMU TLB.
    kBaseline16K,      ///< 32-entry per-CU TLBs, 16K-entry IOMMU TLB.
    kBaselineLargeTlb, ///< 128-entry per-CU TLBs, 16K IOMMU (Fig. 10).
    kVcNoOpt,          ///< Full VC hierarchy, 512-entry IOMMU TLB.
    kVcOpt,            ///< Full VC + FBT as second-level TLB.
    kL1Vc32,           ///< L1-only VC, 32-entry per-CU TLBs (Fig. 11).
    kL1Vc128,          ///< L1-only VC, 128-entry per-CU TLBs (Fig. 11).
    // --- Reach-generalized extensions beyond Table 2 ---
    kBase2MB,          ///< Baseline 512 + 2 MB pages, reach-9 TLBs.
    kBaseCoalesced,    ///< Baseline 512 + coalesced fills, buddy merge.
    kBaseVictima,      ///< Baseline 512 + Victima-style L2 stashing.
};

/** Every MmuDesign, in declaration order. */
inline constexpr MmuDesign kAllDesigns[] = {
    MmuDesign::kIdeal,         MmuDesign::kBaseline512,
    MmuDesign::kBaseline16K,   MmuDesign::kBaselineLargeTlb,
    MmuDesign::kVcNoOpt,       MmuDesign::kVcOpt,
    MmuDesign::kL1Vc32,        MmuDesign::kL1Vc128,
    MmuDesign::kBase2MB,       MmuDesign::kBaseCoalesced,
    MmuDesign::kBaseVictima,
};

/** Human-readable design name (matches the paper's labels). */
inline const char *
designName(MmuDesign d)
{
    switch (d) {
      case MmuDesign::kIdeal: return "IDEAL MMU";
      case MmuDesign::kBaseline512: return "Baseline 512";
      case MmuDesign::kBaseline16K: return "Baseline 16K";
      case MmuDesign::kBaselineLargeTlb: return "Large per-CU TLBs";
      case MmuDesign::kVcNoOpt: return "VC W/O OPT";
      case MmuDesign::kVcOpt: return "VC With OPT";
      case MmuDesign::kL1Vc32: return "L1-Only VC (32)";
      case MmuDesign::kL1Vc128: return "L1-Only VC (128)";
      case MmuDesign::kBase2MB: return "Base 2MB";
      case MmuDesign::kBaseCoalesced: return "Base Coalesced";
      case MmuDesign::kBaseVictima: return "Base Victima";
    }
    return "?";
}

/** designName() inverse; false when @p name is not a known label. */
inline bool
designFromName(const std::string &name, MmuDesign &out)
{
    for (const MmuDesign d : kAllDesigns) {
        if (name == designName(d)) {
            out = d;
            return true;
        }
    }
    return false;
}

/** Specialize a base SocConfig for one design (Table 2). */
inline SocConfig
configFor(MmuDesign d, SocConfig cfg = {})
{
    switch (d) {
      case MmuDesign::kIdeal:
        cfg.percu_tlb_infinite = true;
        cfg.iommu.tlb_infinite = true;
        cfg.iommu.unlimited_bw = true;
        break;
      case MmuDesign::kBaseline512:
        cfg.percu_tlb_entries = 32;
        cfg.iommu.tlb_entries = 512;
        break;
      case MmuDesign::kBaseline16K:
        cfg.percu_tlb_entries = 32;
        cfg.iommu.tlb_entries = 16 * 1024;
        break;
      case MmuDesign::kBaselineLargeTlb:
        cfg.percu_tlb_entries = 128;
        cfg.iommu.tlb_entries = 16 * 1024;
        break;
      case MmuDesign::kVcNoOpt:
        cfg.iommu.tlb_entries = 512;
        cfg.fbt_as_second_level_tlb = false;
        break;
      case MmuDesign::kVcOpt:
        cfg.iommu.tlb_entries = 512;
        cfg.fbt_as_second_level_tlb = true;
        break;
      case MmuDesign::kL1Vc32:
        cfg.percu_tlb_entries = 32;
        cfg.iommu.tlb_entries = 16 * 1024;
        break;
      case MmuDesign::kL1Vc128:
        cfg.percu_tlb_entries = 128;
        cfg.iommu.tlb_entries = 16 * 1024;
        break;
      case MmuDesign::kBase2MB:
        // Baseline 512 sizes; the OS backs 2 MB-aligned interiors of
        // anonymous regions with 2 MB pages and the TLBs hold them at
        // full reach, so one entry spans up to 512 pages.
        cfg.percu_tlb_entries = 32;
        cfg.iommu.tlb_entries = 512;
        cfg.vm_page_policy = unsigned(Vm::PagePolicy::k2mInterior);
        cfg.tlb_max_reach = kMaxReachLog2;
        break;
      case MmuDesign::kBaseCoalesced:
        // Baseline 512 sizes and plain 4 KB pages; reach comes from
        // fill-time contiguity coalescing (up to one PTE line, free)
        // plus insertion-time buddy merging in the TLBs.
        cfg.percu_tlb_entries = 32;
        cfg.iommu.tlb_entries = 512;
        cfg.tlb_max_reach = kMaxReachLog2;
        cfg.tlb_merge_on_insert = true;
        cfg.coalesce_max_reach = 3;
        break;
      case MmuDesign::kBaseVictima:
        // Baseline 512 sizes; per-CU TLB capacity evictions stash
        // their translation in the L2 data array and misses probe the
        // stash before paying the PCIe hop to the IOMMU.
        cfg.percu_tlb_entries = 32;
        cfg.iommu.tlb_entries = 512;
        cfg.victima_stash = true;
        break;
    }
    return cfg;
}

/** Table 2, rendered. */
inline std::string
designTable()
{
    return "Design            | Per-CU TLB | IOMMU TLB        | B/W Limit\n"
           "------------------+------------+------------------+---------------\n"
           "IDEAL MMU         | Infinite   | Infinite         | Infinite\n"
           "Baseline 512      | 32-entry   | 512-entry        | 1 Access/Cycle\n"
           "Baseline 16K      | 32-entry   | 16K-entry        | 1 Access/Cycle\n"
           "VC W/O OPT        | -          | 512-entry        | 1 Access/Cycle\n"
           "VC With OPT       | -          | +16K-entry FBT   | 1 Access/Cycle\n"
           "Base 2MB          | 32, reach  | 512-entry, reach | 1 Access/Cycle\n"
           "Base Coalesced    | 32, reach  | 512-entry, reach | 1 Access/Cycle\n"
           "Base Victima      | 32 + L2 stash | 512-entry     | 1 Access/Cycle\n";
}

/** Build the concrete MmuSystem a design maps to. */
inline std::unique_ptr<MmuSystem>
makeMmuSystem(SimContext &ctx, const SocConfig &cfg, Vm &vm, Dram &dram,
              MmuDesign design)
{
    switch (design) {
      case MmuDesign::kIdeal:
        return std::make_unique<IdealMmuSystem>(ctx, cfg, vm, dram);
      case MmuDesign::kBaseline512:
      case MmuDesign::kBaseline16K:
      case MmuDesign::kBaselineLargeTlb:
      case MmuDesign::kBase2MB:
      case MmuDesign::kBaseCoalesced:
      case MmuDesign::kBaseVictima:
        return std::make_unique<BaselineMmuSystem>(ctx, cfg, vm, dram);
      case MmuDesign::kVcNoOpt:
      case MmuDesign::kVcOpt:
        return std::make_unique<VirtualCacheSystem>(ctx, cfg, vm, dram);
      case MmuDesign::kL1Vc32:
      case MmuDesign::kL1Vc128:
        return std::make_unique<L1OnlyVcSystem>(ctx, cfg, vm, dram);
    }
    panic("makeMmuSystem: unknown design");
}

/**
 * Owns the MmuSystem a design maps to.  The harness goes through the
 * forwarding calls; the typed accessors are for benches and tests that
 * need one concrete system's internals, and return null otherwise.
 */
class SystemUnderTest
{
  public:
    SystemUnderTest(SimContext &ctx, const SocConfig &cfg, Vm &vm,
                    Dram &dram, MmuDesign design)
        : design_(design), sys_(makeMmuSystem(ctx, cfg, vm, dram, design))
    {
    }

    MmuDesign design() const { return design_; }
    GpuMemInterface &memIf() { return *sys_; }

    IdealMmuSystem *ideal() { return as<IdealMmuSystem>(); }
    BaselineMmuSystem *baseline() { return as<BaselineMmuSystem>(); }
    VirtualCacheSystem *vc() { return as<VirtualCacheSystem>(); }
    L1OnlyVcSystem *l1vc() { return as<L1OnlyVcSystem>(); }

    Iommu *iommu() { return sys_->iommu(); }
    void flushLifetimes() { sys_->flushLifetimes(); }
    void
    collectTlbRefs(TlbRefHist &percu, TlbRefHist &iommu_hist)
    {
        sys_->collectTlbRefs(percu, iommu_hist);
    }
    void applyBoundary(const BoundaryPolicy &p) { sys_->applyBoundary(p); }
    void registerStats(StatRegistry &reg) { sys_->registerStats(reg); }
    MmuCounters counters() const { return sys_->counters(); }

  private:
    template <class T>
    T *
    as()
    {
        return dynamic_cast<T *>(sys_.get());
    }

    MmuDesign design_;
    std::unique_ptr<MmuSystem> sys_;
};

} // namespace gvc

#endif // GVC_MMU_DESIGNS_HH
