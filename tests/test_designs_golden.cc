/**
 * @file
 * Golden export of every MMU design: run bfs as a two-round scenario
 * with a shootdown between the rounds, so each design's boundary
 * handling and per-kernel collection run, and pin per design
 *
 *   - the full runResultToJson() document (kernels block and effective
 *     SocConfig included),
 *   - the per-CU and IOMMU TLB lifetime histograms, and
 *   - the `--stats` registry dump the design registers,
 *
 * against a checked-in file.  Two extra cells turn the trained fill
 * policy on, so the predictor counters and their registry names are
 * pinned for both designs that own per-CU TLBs.  Regenerate after an
 * intended change with
 *
 *     GVC_REGEN_GOLDEN=1 ./build/tests/gvc_tests \
 *         --gtest_filter='GoldenDesigns.*'     # or tests/regen_golden.sh
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/results_io.hh"
#include "harness/runner.hh"

#ifndef GVC_DESIGNS_GOLDEN_FILE
#error "GVC_DESIGNS_GOLDEN_FILE must point at the checked-in golden file"
#endif

namespace gvc
{
namespace
{

constexpr double kScale = 0.05;

void
printRefHist(std::ostream &os, const char *name, const TlbRefHist &h)
{
    os << name << " retired " << h.retired << " dead " << h.dead
       << " buckets";
    for (const std::uint64_t b : h.buckets)
        os << ' ' << b;
    os << '\n';
}

/** One golden cell: header, JSON export, histograms, stats dump. */
void
printCell(std::ostream &os, const std::string &label, const RunConfig &cfg)
{
    ScenarioSpec spec;
    spec.rounds = 2;
    spec.boundary = BoundaryPolicy::shootdown();
    std::ostringstream stats;
    const RunResult r = runScenario(
        "bfs", cfg, spec, [&](SystemUnderTest &sut, Gpu &, SimContext &) {
            StatRegistry reg;
            sut.registerStats(reg);
            reg.dump(stats);
        });
    const SocConfig soc = configFor(cfg.design, cfg.soc);
    os << "## " << label << '\n'
       << runResultToJson(r, &soc).dump(1) << '\n';
    printRefHist(os, "percu_tlb_refs", r.percu_tlb_refs);
    printRefHist(os, "iommu_tlb_refs", r.iommu_tlb_refs);
    os << "stats:\n" << stats.str();
}

std::string
currentGolden()
{
    std::ostringstream os;
    os << "# gvc per-design golden exports: bfs, scale " << kScale
       << ", 2 rounds, shootdown boundary.  Regenerate with "
          "tests/regen_golden.sh\n";
    for (const MmuDesign d : kAllDesigns) {
        RunConfig cfg;
        cfg.design = d;
        cfg.workload.scale = kScale;
        printCell(os, designName(d), cfg);
    }
    for (const MmuDesign d : {MmuDesign::kBaseline512, MmuDesign::kL1Vc32}) {
        RunConfig cfg;
        cfg.design = d;
        cfg.workload.scale = kScale;
        cfg.soc.percu_tlb_fill_policy = kTlbFillBypassTrained;
        cfg.soc.iommu_tlb_fill_policy = kTlbFillBypassTrained;
        printCell(os, std::string(designName(d)) + " bypass-trained", cfg);
    }
    return os.str();
}

TEST(GoldenDesigns, ExportsMatchCheckedInGolden)
{
    const std::string path = GVC_DESIGNS_GOLDEN_FILE;
    const std::string current = currentGolden();

    if (std::getenv("GVC_REGEN_GOLDEN")) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << current;
        out.close();
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " — generate it with GVC_REGEN_GOLDEN=1 (see file header)";
    std::ostringstream golden;
    golden << in.rdbuf();

    EXPECT_EQ(golden.str(), current)
        << "per-design exports drifted from " << path
        << "; if the change is intended, regenerate with "
           "tests/regen_golden.sh and commit the diff";
}

} // namespace
} // namespace gvc
