/**
 * @file
 * Unit tests for the statistics primitives.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>

#include "sim/stats.hh"

namespace gvc
{
namespace
{

TEST(Distribution, MeanAndStdev)
{
    Distribution d;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.sample(v);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_NEAR(d.stdev(), 2.0, 1e-9);
    EXPECT_EQ(d.min(), 2.0);
    EXPECT_EQ(d.max(), 9.0);
    EXPECT_EQ(d.count(), 8u);
}

TEST(Distribution, ZeroSamplesInBulk)
{
    Distribution d;
    d.sample(10.0);
    d.sampleZeros(9);
    EXPECT_EQ(d.count(), 10u);
    EXPECT_DOUBLE_EQ(d.mean(), 1.0);
    EXPECT_EQ(d.min(), 0.0);
}

TEST(Distribution, EmptyIsSafe)
{
    Distribution d;
    EXPECT_EQ(d.mean(), 0.0);
    EXPECT_EQ(d.stdev(), 0.0);
    EXPECT_EQ(d.min(), 0.0);
    EXPECT_EQ(d.max(), 0.0);
}

TEST(LinearHistogram, QuantilesAndCdf)
{
    LinearHistogram h(10.0, 10);
    for (int i = 0; i < 100; ++i)
        h.sample(double(i));
    EXPECT_EQ(h.total(), 100u);
    EXPECT_NEAR(h.cdfAt(49.0), 0.5, 1e-9);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 10.0);
    EXPECT_NEAR(h.cdfAt(99.0), 1.0, 1e-9);
}

TEST(LinearHistogram, OverflowBucketCatchesLargeValues)
{
    LinearHistogram h(1.0, 4);
    h.sample(1000.0);
    EXPECT_EQ(h.total(), 1u);
    EXPECT_NEAR(h.cdfAt(1000.0), 1.0, 1e-9);
}

TEST(LinearHistogram, MergeAddsCounts)
{
    LinearHistogram a(1.0, 4), b(1.0, 4);
    a.sample(0.5);
    b.sample(2.5);
    a.merge(b);
    EXPECT_EQ(a.total(), 2u);
    EXPECT_NEAR(a.cdfAt(0.5), 0.5, 1e-9);
}

TEST(IntervalSampler, CountsPerWindow)
{
    IntervalSampler s(100);
    // Window 0: 50 events; window 1: 100 events; windows 2-3: none;
    // window 4: 10 events.
    for (int i = 0; i < 50; ++i)
        s.record(10);
    for (int i = 0; i < 100; ++i)
        s.record(150);
    for (int i = 0; i < 10; ++i)
        s.record(450);
    s.finish(500);
    EXPECT_EQ(s.windows(), 5u);
    EXPECT_NEAR(s.meanPerCycle(), (0.5 + 1.0 + 0.0 + 0.0 + 0.1) / 5.0,
                1e-9);
    EXPECT_NEAR(s.maxPerCycle(), 1.0, 1e-9);
}

TEST(IntervalSampler, FractionAboveThreshold)
{
    IntervalSampler s(10, 1.0);
    // Window 0: 20 events (rate 2 > 1); window 1: 5 events (rate 0.5).
    for (int i = 0; i < 20; ++i)
        s.record(3);
    for (int i = 0; i < 5; ++i)
        s.record(15);
    s.finish(20);
    EXPECT_EQ(s.windows(), 2u);
    EXPECT_NEAR(s.fractionAboveThreshold(), 0.5, 1e-9);
}

TEST(IntervalSampler, LongIdleGapsProduceZeroWindows)
{
    IntervalSampler s(10);
    s.record(5);
    s.record(100005);
    s.finish(100010);
    EXPECT_EQ(s.windows(), 10001u);
    EXPECT_NEAR(s.meanPerCycle(), 2.0 / 100010.0, 1e-7);
}

TEST(Counter, IncrementAndAdd)
{
    Counter c;
    ++c;
    c += 4;
    EXPECT_EQ(c.value, 5u);
    c.reset();
    EXPECT_EQ(c.value, 0u);
}

TEST(StatRegistry, LookupAndDump)
{
    StatRegistry reg;
    Counter c;
    c += 7;
    reg.addCounter("foo.count", &c);
    reg.addScalar("bar.ratio", [] { return 0.5; });
    EXPECT_DOUBLE_EQ(reg.lookup("foo.count"), 7.0);
    EXPECT_DOUBLE_EQ(reg.lookup("bar.ratio"), 0.5);
    EXPECT_TRUE(std::isnan(reg.lookup("missing")));
    EXPECT_EQ(reg.size(), 2u);
}

TEST(StatRegistry, DumpPrintsIntegersExactlyAndFractionsRoundTrip)
{
    StatRegistry reg;
    Counter walks;
    walks += 212570123;
    reg.addCounter("iommu.walks", &walks);
    reg.addScalar("iommu.serialization_cycles",
                  [] { return 212570000.0; });
    reg.addScalar("big", [] { return 9007199254740993.0; });
    reg.addScalar("neg", [] { return -42.0; });
    reg.addScalar("third", [] { return 1.0 / 3.0; });
    reg.addScalar("tiny", [] { return 1.5e-7; });
    std::ostringstream os;
    reg.dump(os);

    std::istringstream in(os.str());
    std::map<std::string, std::string> printed;
    std::string name, eq, value;
    while (in >> name >> eq >> value)
        printed[name] = value;
    ASSERT_EQ(printed.size(), reg.size());
    EXPECT_EQ(printed["iommu.walks"], "212570123");
    EXPECT_EQ(printed["iommu.serialization_cycles"], "212570000");
    EXPECT_EQ(printed["big"], "9007199254740992"); // nearest double
    EXPECT_EQ(printed["neg"], "-42");
    EXPECT_EQ(std::strtod(printed["third"].c_str(), nullptr), 1.0 / 3.0);
    EXPECT_EQ(std::strtod(printed["tiny"].c_str(), nullptr), 1.5e-7);
}

TEST(LifetimeRecorder, RecordsDurations)
{
    LifetimeRecorder r(10.0, 100);
    r.record(5);
    r.record(15);
    r.record(995);
    EXPECT_EQ(r.distribution().count(), 3u);
    EXPECT_NEAR(r.histogram().cdfAt(20.0), 2.0 / 3.0, 1e-9);
}

} // namespace
} // namespace gvc
