/**
 * @file
 * Tests of the benchmark's own plumbing: report round-trip, the
 * counter gate (a mismatch is counted, not fatal), span self-time
 * arithmetic, and the tail-percentile rule.  Plain asserts that stay on
 * in every build type; exits non-zero on the first failure.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core.hh"

namespace
{

using namespace hostbench;

int checks = 0;

void
expect(bool ok, const char *what, int line)
{
    ++checks;
    if (!ok) {
        std::fprintf(stderr, "test_core.cc:%d: FAILED: %s\n", line, what);
        std::exit(1);
    }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

SimCounters
sampleCounters()
{
    SimCounters c;
    c.totals.exec_ticks = 3635171;
    c.totals.instructions = 165032;
    c.totals.iommu_accesses = 1566391;
    gvc::KernelStats k;
    k.exec_ticks = 1000;
    k.l1_hits = 7;
    c.kernels = {k, k};
    gvc::TenantStats t;
    t.workload = "bfs";
    t.launches = 3;
    t.stats = k;
    c.tenants = {t};
    return c;
}

void
testReportRoundTrip()
{
    Report r;
    r.workload = "graph-filter";
    r.seed = 24301;
    r.traced = true;
    r.seconds = 15;
    r.fingerprint = {{"cpu_model", "Some CPU @ 2.0GHz"}, {"nproc", "4"}};
    r.reference = "fallback";
    r.attempted = 12;
    r.failed = 1;
    r.failures = {"pagerank/VC With OPT: counters differ"};
    r.add("wall_s", 1.2345678901234567, "s", 5);
    r.add("sim.events", 14600000.0, "count");
    r.add("tiny", 1e-300, "s");
    r.notes = {"cell_p90_ms not reported"};

    std::string err;
    const gvc::Json parsed = gvc::Json::parse(r.toJson().dump(1), &err);
    EXPECT(err.empty());
    Report back;
    EXPECT(Report::fromJson(parsed, back, &err));
    EXPECT(back == r);
    EXPECT(back.find("wall_s")->value == 1.2345678901234567);
    EXPECT(!back.correct());
    EXPECT(near(back.failedFrac(), 1.0 / 12.0));

    // Field-exact: a missing field or a wrong version is refused.
    gvc::Json broken = gvc::Json::parse(
        "{\"hostbench_report_version\": 1, \"workload\": \"x\"}", &err);
    EXPECT(!Report::fromJson(broken, back, &err));
    broken = gvc::Json::parse("{\"hostbench_report_version\": 2}", &err);
    EXPECT(!Report::fromJson(broken, back, &err));
}

void
testReferenceRoundTrip()
{
    Reference ref;
    ref.scales["tenant-churn"] = 0.1;
    ref.tables["tenant-churn"][24301]["pagerank+bfs/Baseline 512"] =
        sampleCounters();
    std::string err;
    Reference back;
    EXPECT(Reference::fromJson(
        gvc::Json::parse(ref.toJson().dump(), &err), back, &err));
    EXPECT(back.scales == ref.scales);
    const CounterTable *t = back.find("tenant-churn", 24301);
    EXPECT(t != nullptr);
    EXPECT(t->at("pagerank+bfs/Baseline 512") == sampleCounters());
    EXPECT(back.find("tenant-churn", 1) == nullptr);
    EXPECT(back.find("graph-filter", 24301) == nullptr);
}

void
testInjectedMismatchIsCounted()
{
    CounterTable table;
    table["a"] = sampleCounters();
    table["b"] = sampleCounters();
    CounterGate gate(&table);
    EXPECT(gate.check("a", sampleCounters()));
    SimCounters bad = sampleCounters();
    bad.totals.page_walks += 1; // injected mismatch
    EXPECT(!gate.check("b", bad));
    SimCounters bad_kernel = sampleCounters();
    bad_kernel.kernels[1].l2_hits = 99; // per-kernel delta differs
    EXPECT(!gate.check("a", bad_kernel));
    EXPECT(!gate.check("unknown", sampleCounters()));
    EXPECT(gate.check("a", sampleCounters())); // the run carries on
    EXPECT(gate.attempted() == 5);
    EXPECT(gate.failed() == 3);
    EXPECT(gate.failures().size() == 3);

    // Without a reference, repetitions must agree with the first.
    CounterGate fallback(nullptr);
    EXPECT(fallback.check("a", sampleCounters()));
    EXPECT(fallback.check("a", sampleCounters()));
    SimCounters bad_tenant = sampleCounters();
    bad_tenant.tenants[0].launches = 4;
    EXPECT(!fallback.check("a", bad_tenant));
    EXPECT(!fallback.checkPair("a live", sampleCounters(), bad));
    EXPECT(fallback.checkPair("a live", sampleCounters(),
                              sampleCounters()));
    EXPECT(fallback.attempted() == 5);
    EXPECT(fallback.failed() == 2);

    Report r;
    r.attempted = gate.attempted();
    r.failed = gate.failed();
    EXPECT(near(r.failedFrac(), 0.6));
}

void
testSelfTimes()
{
    std::vector<Span> s;
    s.push_back(Span{"harness.body", 0.0, 10.0, -1, 0});
    s.push_back(Span{"sim.drain", 1.0, 3.0, 0, 1});
    s.push_back(Span{"sim.drain", 2.0, 5.0, 0, 2}); // overlaps the first
    s.push_back(Span{"harness.collect", 8.0, 12.0, 0, 1}); // clipped
    s.push_back(Span{"mmu.build", 1.5, 2.0, 1, 1}); // grandchild
    s.push_back(Span{"trace.decode", 20.0, 21.0, -1, 0}); // other root
    const auto self = selfTimes(s);
    EXPECT(near(self[0], 10.0 - (4.0 + 2.0)));
    EXPECT(near(self[1], 2.0 - 0.5));
    EXPECT(near(self[2], 3.0));
    EXPECT(near(self[3], 4.0));
    EXPECT(near(self[4], 0.5));
    EXPECT(near(self[5], 1.0));
    EXPECT(s[1].layer() == "sim");
    EXPECT(s[3].layer() == "harness");

    // Nested children cover the parent exactly: zero self time.
    std::vector<Span> full = {Span{"a.x", 0.0, 4.0, -1, 0},
                              Span{"b.y", 0.0, 2.0, 0, 0},
                              Span{"c.z", 2.0, 4.0, 0, 0}};
    EXPECT(near(selfTimes(full)[0], 0.0));

    Tracer tr;
    const int root = tr.begin("harness.body");
    const int kid = tr.begin("sim.drain", root, 7);
    tr.end(kid);
    tr.end(root);
    EXPECT(tr.spans().size() == 2);
    EXPECT(tr.spans()[1].parent == root);
    EXPECT(tr.spans()[1].sim == 7);
    EXPECT(tr.spans()[0].end >= tr.spans()[1].end);
    EXPECT(tr.toJson().size() == 2);
}

void
testPercentileRule()
{
    auto ramp = [](std::size_t n) {
        std::vector<double> v;
        for (std::size_t i = n; i > 0; --i)
            v.push_back(double(i)); // 1..n, reversed
        return v;
    };
    EXPECT(!p90WithTail(ramp(99)).has_value()); // rank 90, 9 beyond
    EXPECT(p90WithTail(ramp(100)).has_value()); // rank 90, 10 beyond
    EXPECT(*p90WithTail(ramp(100)) == 90.0);
    EXPECT(*p90WithTail(ramp(110)) == 99.0);    // rank 99, 11 beyond
    EXPECT(!p90WithTail(ramp(4)).has_value());
    EXPECT(!p90WithTail({}).has_value());
    EXPECT(p90WithTail(ramp(20), 2).has_value());

    EXPECT(median({}) == 0.0);
    EXPECT(median({3.0, 1.0, 2.0}) == 2.0);
    EXPECT(median({4.0, 1.0, 3.0, 2.0}) == 2.5);

    // Two simulations, 1 s and 3 s: the pooled median of five
    // repetitions is an outlier of one of them, the median of the
    // per-simulation medians is not.
    const std::vector<std::vector<double>> two = {
        {1.0, 1.0, 1.4, 1.0, 1.0}, {3.0, 3.0, 2.2, 3.0, 3.0}};
    EXPECT(medianOfMedians(two) == 2.0);
    EXPECT(median({1.0, 1.0, 1.4, 1.0, 1.0, 3.0, 3.0, 2.2, 3.0, 3.0}) ==
           1.8);
    EXPECT(medianOfMedians({}) == 0.0);
    EXPECT(medianOfMedians({{5.0, 7.0, 6.0}}) == 6.0);
}

} // namespace

int
main()
{
    testReportRoundTrip();
    testReferenceRoundTrip();
    testInjectedMismatchIsCounted();
    testSelfTimes();
    testPercentileRule();
    std::printf("hostbench tests: %d checks passed\n", checks);
    return 0;
}
