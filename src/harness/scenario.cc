#include "harness/scenario.hh"

namespace gvc
{

KernelStats
collectKernelStats(SystemUnderTest &sut, Gpu &gpu, Dram &dram,
                   SimContext &ctx)
{
    KernelStats s;
    s.exec_ticks = ctx.now();
    s.instructions = gpu.totalInstructions();
    s.mem_instructions = gpu.totalMemInstructions();
    s.dram_accesses = dram.accesses();
    s.dram_bytes = dram.bytesMoved();
    if (Iommu *io = sut.iommu()) {
        s.iommu_accesses = io->accesses();
        s.page_walks = io->walks();
    }
    const MmuCounters c = sut.counters();
    s.tlb_accesses = c.tlb_accesses;
    s.tlb_misses = c.tlb_misses;
    s.l1_accesses = c.l1_accesses;
    s.l1_hits = c.l1_hits;
    s.l2_accesses = c.l2_accesses;
    s.l2_hits = c.l2_hits;
    s.fbt_lookups = c.fbt_lookups;
    s.synonym_replays = c.synonym_replays;
    return s;
}

KernelStats
kernelDelta(const KernelStats &cur, const KernelStats &prev)
{
    KernelStats d;
#define GVC_DELTA_FIELD(name) d.name = cur.name - prev.name;
    GVC_KERNELSTAT_FIELDS(GVC_DELTA_FIELD)
#undef GVC_DELTA_FIELD
    return d;
}

KernelStats
kernelSum(const KernelStats &a, const KernelStats &b)
{
    KernelStats s;
#define GVC_SUM_FIELD(name) s.name = a.name + b.name;
    GVC_KERNELSTAT_FIELDS(GVC_SUM_FIELD)
#undef GVC_SUM_FIELD
    return s;
}

} // namespace gvc
