/**
 * @file
 * Tests for the design factory (Table 2 configurations) and the
 * SystemUnderTest wrapper, plus warp-scheduler policy behaviour.
 */

#include <gtest/gtest.h>

#include "gpu/gpu.hh"
#include "mmu/designs.hh"

namespace gvc
{
namespace
{

TEST(Designs, ConfigForMatchesTable2)
{
    const SocConfig b512 = configFor(MmuDesign::kBaseline512);
    EXPECT_EQ(b512.percu_tlb_entries, 32u);
    EXPECT_EQ(b512.iommu.tlb_entries, 512u);
    EXPECT_FALSE(b512.iommu.unlimited_bw);

    const SocConfig b16k = configFor(MmuDesign::kBaseline16K);
    EXPECT_EQ(b16k.iommu.tlb_entries, 16u * 1024);

    const SocConfig big = configFor(MmuDesign::kBaselineLargeTlb);
    EXPECT_EQ(big.percu_tlb_entries, 128u);

    const SocConfig ideal = configFor(MmuDesign::kIdeal);
    EXPECT_TRUE(ideal.percu_tlb_infinite);
    EXPECT_TRUE(ideal.iommu.tlb_infinite);
    EXPECT_TRUE(ideal.iommu.unlimited_bw);

    const SocConfig vc = configFor(MmuDesign::kVcNoOpt);
    EXPECT_EQ(vc.iommu.tlb_entries, 512u);
    EXPECT_FALSE(vc.fbt_as_second_level_tlb);

    const SocConfig vco = configFor(MmuDesign::kVcOpt);
    EXPECT_TRUE(vco.fbt_as_second_level_tlb);

    EXPECT_EQ(configFor(MmuDesign::kL1Vc128).percu_tlb_entries, 128u);
}

TEST(Designs, NamesAreDistinct)
{
    for (const auto a : kAllDesigns) {
        for (const auto b : kAllDesigns) {
            if (a != b) {
                EXPECT_STRNE(designName(a), designName(b));
            }
        }
    }
}

TEST(Designs, TableMentionsEveryPaperDesign)
{
    const std::string t = designTable();
    for (const char *row : {"IDEAL MMU", "Baseline 512", "Baseline 16K",
                            "VC W/O OPT", "VC With OPT"})
        EXPECT_NE(t.find(row), std::string::npos) << row;
}

TEST(Designs, SystemUnderTestExposesTheRightConcreteSystem)
{
    SimContext ctx;
    PhysMem pm(std::uint64_t{1} << 30);
    Vm vm(pm);
    Dram dram(ctx, {});

    for (const MmuDesign d : kAllDesigns) {
        SCOPED_TRACE(designName(d));
        SystemUnderTest sut(ctx, configFor(d), vm, dram, d);
        EXPECT_EQ(sut.design(), d);
        const int typed = int(sut.ideal() != nullptr) +
                          int(sut.baseline() != nullptr) +
                          int(sut.vc() != nullptr) +
                          int(sut.l1vc() != nullptr);
        EXPECT_EQ(typed, 1);
        EXPECT_EQ(sut.iommu() == nullptr, d == MmuDesign::kIdeal);
        EXPECT_TRUE(sut.counters() == MmuCounters{});
    }

    // The accessor that is non-null is the one the design family owns.
    const auto build = [&](MmuDesign d) {
        return SystemUnderTest(ctx, configFor(d), vm, dram, d);
    };
    EXPECT_NE(build(MmuDesign::kIdeal).ideal(), nullptr);
    EXPECT_NE(build(MmuDesign::kBaseVictima).baseline(), nullptr);
    EXPECT_NE(build(MmuDesign::kVcNoOpt).vc(), nullptr);
    EXPECT_NE(build(MmuDesign::kL1Vc128).l1vc(), nullptr);
}

// ---------------------------------------------------------------
// Warp scheduler policies
// ---------------------------------------------------------------

/** Memory interface recording the issuing order of requests. */
class OrderLog final : public GpuMemInterface
{
  public:
    explicit OrderLog(SimContext &ctx) : ctx_(ctx) {}

    void
    access(unsigned, Asid, Vaddr line_va, bool,
           Callback done) override
    {
        order.push_back(line_va);
        ctx_.eq.scheduleIn(5, std::move(done));
    }

    std::vector<Vaddr> order;

  private:
    SimContext &ctx_;
};

TEST(WarpSched, GtoPrefersOneWarpUntilItStalls)
{
    GpuParams p;
    p.num_cus = 1;
    p.max_resident_warps = 2;
    p.sched = WarpSchedPolicy::kGreedyThenOldest;
    SimContext ctx;
    OrderLog mem(ctx);
    Gpu gpu(ctx, p, mem);

    // Two warps, each: several compute ops then one load.  Under GTO
    // warp 0 runs all its computes before warp 1 issues anything.
    KernelLaunch k;
    for (unsigned w = 0; w < 2; ++w) {
        std::vector<WarpInst> insts;
        for (int i = 0; i < 3; ++i)
            insts.push_back(WarpInst::compute(1));
        insts.push_back(
            WarpInst::load({Vaddr(0x1000 * (w + 1))}));
        k.warps.push_back(
            std::make_unique<VectorWarpStream>(std::move(insts)));
    }
    bool done = false;
    gpu.launch(std::move(k), [&] { done = true; });
    ctx.eq.run();
    ASSERT_TRUE(done);
    ASSERT_EQ(mem.order.size(), 2u);
    // Warp 0's load issues before warp 1's (greedy kept warp 0 going).
    EXPECT_EQ(mem.order[0], 0x1000u);
}

TEST(WarpSched, BothPoliciesCompleteIdenticalWork)
{
    for (const auto pol : {WarpSchedPolicy::kRoundRobin,
                           WarpSchedPolicy::kGreedyThenOldest}) {
        GpuParams p;
        p.num_cus = 2;
        p.max_resident_warps = 4;
        p.sched = pol;
        SimContext ctx;
        OrderLog mem(ctx);
        Gpu gpu(ctx, p, mem);
        KernelLaunch k;
        for (unsigned w = 0; w < 12; ++w) {
            std::vector<WarpInst> insts;
            insts.push_back(WarpInst::load({Vaddr(w) * kPageSize}));
            insts.push_back(WarpInst::compute(4));
            insts.push_back(
                WarpInst::store({Vaddr(w) * kPageSize + 64}));
            k.warps.push_back(
                std::make_unique<VectorWarpStream>(std::move(insts)));
        }
        bool done = false;
        gpu.launch(std::move(k), [&] { done = true; });
        ctx.eq.run();
        EXPECT_TRUE(done);
        EXPECT_EQ(mem.order.size(), 24u);
    }
}

} // namespace
} // namespace gvc
