/**
 * @file
 * Request records: the RequestPool itself, a drain audit showing that
 * every design's pools are empty once the event queue drains (cold,
 * scenario and multi-tenant runs), and a spill guard pinning that a
 * memory request's hops no longer spill closures to the callback pool.
 */

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "harness/tenants.hh"
#include "mem/phys_mem.hh"
#include "mmu/designs.hh"
#include "sim/callback.hh"
#include "sim/request_pool.hh"

namespace gvc
{
namespace
{

struct Rec
{
    int value = 0;
    Callback done;
};

TEST(RequestPool, CountsLiveRecordsAndReusesReleasedOnes)
{
    RequestPool<Rec> pool;
    EXPECT_EQ(pool.live(), 0u);
    Rec *a = pool.acquire();
    Rec *b = pool.acquire();
    EXPECT_NE(a, b);
    EXPECT_EQ(pool.live(), 2u);
    pool.release(a);
    EXPECT_EQ(pool.live(), 1u);
    EXPECT_EQ(pool.acquire(), a); // the free list hands it back
    pool.release(a);
    pool.release(b);
    EXPECT_EQ(pool.live(), 0u);
}

TEST(RequestPool, AddressesStayStableWhileThePoolGrows)
{
    RequestPool<Rec> pool;
    std::vector<Rec *> recs;
    for (int i = 0; i < 1000; ++i) {
        recs.push_back(pool.acquire());
        recs.back()->value = i;
    }
    EXPECT_EQ(pool.live(), 1000u);
    EXPECT_EQ(std::set<Rec *>(recs.begin(), recs.end()).size(),
              recs.size());
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(recs[std::size_t(i)]->value, i);
    for (Rec *r : recs)
        pool.release(r);
    EXPECT_EQ(pool.live(), 0u);
}

TEST(RequestPool, TeardownDestroysARecordStillInFlight)
{
    int destroyed = 0;
    struct Probe
    {
        int *count;
        ~Probe() { ++*count; }
        void operator()() {}
    };
    {
        RequestPool<Rec> pool;
        Rec *r = pool.acquire();
        // A Probe with a counter pointer fits inline; its destructor
        // runs when the pool tears the live record down.
        r->done = Callback(Probe{&destroyed});
        destroyed = 0; // temporaries above are not the record's copy
    }
    EXPECT_EQ(destroyed, 1);
}

// ---------------------------------------------------------------
// Drain audit: no record outlives the requests of a run.
// ---------------------------------------------------------------

class DrainAudit : public ::testing::TestWithParam<MmuDesign>
{
  protected:
    static RunConfig
    config()
    {
        RunConfig cfg;
        cfg.design = GetParam();
        cfg.workload.scale = 0.05;
        return cfg;
    }

    /** Inspect hook: runs after the last kernel drains. */
    InspectFn
    audit()
    {
        return [this](SystemUnderTest &sut, Gpu &, SimContext &ctx) {
            ++audits_;
            EXPECT_TRUE(ctx.eq.empty());
            EXPECT_EQ(sut.liveRequests(), 0u);
        };
    }

    int audits_ = 0;
};

TEST_P(DrainAudit, RecordsInFlightAreCountedUntilTheyComplete)
{
    const MmuDesign d = GetParam();
    SimContext ctx;
    PhysMem pm(std::uint64_t{1} << 30);
    Vm vm(pm);
    Dram dram(ctx, {});
    SystemUnderTest sut(ctx, configFor(d), vm, dram, d);
    const Asid asid = vm.createProcess();
    const Vaddr base = vm.mmapAnon(asid, 4 * kPageSize);

    int done = 0;
    for (unsigned i = 0; i < 4; ++i) {
        sut.memIf().access(i % 2, asid, base + i * kPageSize, i == 3,
                           [&done] { ++done; });
    }
    EXPECT_GE(sut.liveRequests(), 4u);
    ctx.eq.run();
    EXPECT_EQ(done, 4);
    EXPECT_EQ(sut.liveRequests(), 0u);
}

TEST_P(DrainAudit, ColdRunLeavesNoRecord)
{
    runWorkload("bfs", config(), audit());
    EXPECT_EQ(audits_, 1);
}

TEST_P(DrainAudit, ScenarioWithShootdownLeavesNoRecord)
{
    ScenarioSpec spec;
    spec.rounds = 2;
    spec.boundary = BoundaryPolicy::shootdown();
    runScenario("bfs", config(), spec, audit());
    EXPECT_EQ(audits_, 1);
}

TEST_P(DrainAudit, TenantsWithStormsLeaveNoRecord)
{
    TenantsSpec spec;
    for (const char *w : {"pagerank", "bfs"}) {
        TenantSpec t;
        t.workload = w;
        t.params.scale = 0.05;
        spec.tenants.push_back(t);
    }
    spec.rounds = 2;
    spec.switch_policy = SwitchPolicy::kAsidShootdown;
    spec.storm.pages = 16;
    spec.storm.period = 1;
    const RunResult r = runTenants(spec, config(), audit());
    EXPECT_EQ(audits_, 1);
    EXPECT_GT(r.tenant_storm_pages, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, DrainAudit,
                         ::testing::ValuesIn(kAllDesigns));

// ---------------------------------------------------------------
// Spill guard: a request's hops capture (this, record*), so closures
// stay inline in their event slots.  A hop that captured a Callback by
// value would spill once for every access it carries, which this bound
// catches; rare paths (a synonym replay, a fault retry) may still
// spill, hence the 1-in-10 allowance.
// ---------------------------------------------------------------

class SpillGuard : public ::testing::TestWithParam<MmuDesign>
{
};

TEST_P(SpillGuard, FewerThanOneSpillPerTenL1Accesses)
{
    RunConfig cfg;
    cfg.design = GetParam();
    cfg.workload.scale = 0.05;
    const std::uint64_t before = detail::CallbackPool::spills();
    const RunResult r = runWorkload("bfs", cfg);
    const std::uint64_t spills = detail::CallbackPool::spills() - before;
    RecordProperty("spills", std::to_string(spills));
    RecordProperty("l1_accesses", std::to_string(r.l1_accesses));
    ASSERT_GT(r.l1_accesses, 0u);
    EXPECT_LT(spills * 10, r.l1_accesses)
        << spills << " spills for " << r.l1_accesses << " L1 accesses";
}

INSTANTIATE_TEST_SUITE_P(Hot, SpillGuard,
                         ::testing::Values(MmuDesign::kBaseline512,
                                           MmuDesign::kVcOpt));

} // namespace
} // namespace gvc
