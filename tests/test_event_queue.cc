/**
 * @file
 * Unit tests for the discrete-event simulation core.
 */

#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace gvc
{
namespace
{

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.executed(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(EventQueue, CallbacksMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5)
            eq.scheduleIn(7, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.now(), 28u);
}

TEST(EventQueue, RunUntilAdvancesTimeEvenWhenDrained)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(4, [&] { ++fired; });
    eq.runUntil(100);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, RunUntilLeavesLaterEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(4, [&] { ++fired; });
    eq.schedule(50, [&] { ++fired; });
    eq.runUntil(10);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunWithBudgetStops)
{
    EventQueue eq;
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        eq.schedule(Tick(i), [&] { ++fired; });
    const auto n = eq.run(4);
    EXPECT_EQ(n, 4u);
    EXPECT_EQ(fired, 4);
    eq.run();
    EXPECT_EQ(fired, 10);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    eq.schedule(5, [] {});
    eq.run();
    eq.schedule(9, [] {});
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.executed(), 0u);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(5, [] {}), "past");
}

// An event beyond the wheel horizon, then runUntil() over an empty
// wheel: the far event must enter the wheel before a later event for
// the same tick is appended directly, or the two would run reversed.
TEST(EventQueue, RunUntilMigratesBeforeLaterAppends)
{
    EventQueue eq;
    std::vector<int> order;
    constexpr Tick kFar = 4096; // The wheel horizon.
    eq.schedule(kFar, [&] { order.push_back(1); });
    eq.runUntil(5);
    eq.schedule(kFar, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.now(), kFar);
}

/** Counts move constructions of a callable as it travels to its slot. */
struct MoveProbe
{
    int *moves;
    int *runs;

    MoveProbe(int *m, int *r) : moves(m), runs(r) {}
    MoveProbe(MoveProbe &&o) noexcept : moves(o.moves), runs(o.runs)
    {
        ++*moves;
    }
    MoveProbe(const MoveProbe &) = delete;

    void operator()() { ++*runs; }
};

TEST(EventQueue, ClosureIsBuiltInItsSlot)
{
    EventQueue eq;
    int moves = 0, runs = 0;
    eq.schedule(3, MoveProbe(&moves, &runs));
    EXPECT_EQ(moves, 1); // The temporary, moved once into the slot.
    eq.run();
    EXPECT_EQ(runs, 1);
}

TEST(EventQueue, CallbackRvalueIsMovedNotWrapped)
{
    EventQueue eq;
    int moves = 0, runs = 0;
    Callback cb(MoveProbe(&moves, &runs));
    ASSERT_EQ(moves, 1);
    eq.scheduleIn(3, std::move(cb));
    // Move-assigning the Callback relocates the probe once; wrapping
    // it in a fresh Callback would relocate it again.
    EXPECT_EQ(moves, 2);
    EXPECT_FALSE(cb);
    eq.run();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(eq.now(), 3u);
}

TEST(EventQueue, StdFunctionLvalueIsCopied)
{
    EventQueue eq;
    int fired = 0;
    const std::function<void()> fn = [&fired] { ++fired; };
    eq.schedule(1, fn);
    eq.scheduleIn(2, fn);
    ASSERT_TRUE(fn);
    eq.run();
    EXPECT_EQ(fired, 2);
    fn();
    EXPECT_EQ(fired, 3);
}

/**
 * The reference the wheel must match: a binary heap ordered by
 * (tick, insertion sequence), the textbook discrete-event queue.
 */
class ReferenceQueue
{
  public:
    Tick now() const { return now_; }
    bool empty() const { return heap_.empty(); }
    std::uint64_t executed() const { return executed_; }

    void
    schedule(Tick when, std::function<void()> fn)
    {
        heap_.push(Item{when, seq_++, std::move(fn)});
    }

    std::uint64_t
    run(std::uint64_t max_events)
    {
        std::uint64_t n = 0;
        while (n < max_events && !heap_.empty()) {
            execTop();
            ++n;
        }
        return n;
    }

    void
    runUntil(Tick until)
    {
        while (!heap_.empty() && heap_.top().when <= until)
            execTop();
        if (now_ < until)
            now_ = until;
    }

    void
    reset()
    {
        heap_ = {};
        now_ = 0;
        seq_ = 0;
        executed_ = 0;
    }

  private:
    struct Item
    {
        Tick when;
        std::uint64_t seq;
        std::function<void()> fn;

        bool
        operator>(const Item &o) const
        {
            return std::tie(when, seq) > std::tie(o.when, o.seq);
        }
    };

    void
    execTop()
    {
        Item it = heap_.top();
        heap_.pop();
        now_ = it.when;
        ++executed_;
        it.fn();
    }

    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
};

/// The queue's wheel horizon in ticks; delays reach 3x past it so far
/// events overflow and migrate back in.
constexpr Tick kWheelTicks = 4096;

/**
 * A delay from @p rng: same-tick, short, backlog-long, and far.  Far
 * delays cluster on the wheel horizon and its multiples, so events
 * that went through the overflow heap often share a tick with events
 * appended directly — the case the migration order must get right.
 */
Tick
drawDelay(Rng &rng)
{
    const auto kind = rng.below(20);
    if (kind < 5)
        return 0;
    if (kind < 10)
        return rng.below(8);
    if (kind < 13)
        return rng.below(1200);
    if (kind < 16)
        return kWheelTicks - 1 + rng.below(3);
    if (kind < 18)
        return kWheelTicks * (1 + rng.below(3)) - rng.below(4);
    return rng.below(3 * kWheelTicks + 1);
}

/**
 * One seeded schedule program run against any queue.  Each event
 * logs its id when it runs and may schedule children — some at delay
 * 0, an append to the tick that is running.  Children are drawn from
 * a stream seeded by the parent's id, so both queues see one program
 * as long as they agree on execution order.
 */
template <typename Q>
class Program
{
  public:
    Program(Q &q, std::uint64_t seed) : q_(q), seed_(seed) {}

    void
    spawn(Tick delay)
    {
        const std::uint64_t id = next_id_++;
        q_.schedule(q_.now() + delay, [this, id] { fire(id); });
    }

    std::vector<std::uint64_t> order;

  private:
    void
    fire(std::uint64_t id)
    {
        order.push_back(id);
        Rng rng(seed_ * 1000003 + id);
        const auto roll = rng.below(100);
        const int children = roll < 45 ? 1 : roll < 55 ? 2 : 0;
        for (int c = 0; c < children; ++c)
            spawn(drawDelay(rng));
    }

    Q &q_;
    std::uint64_t seed_;
    std::uint64_t next_id_ = 0;
};

class EventQueueDifferential
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EventQueueDifferential, MatchesPriorityQueueReference)
{
    const std::uint64_t seed = GetParam();
    EventQueue eq;
    ReferenceQueue ref;
    Program<EventQueue> got(eq, seed);
    Program<ReferenceQueue> want(ref, seed);
    Rng rng(seed);

    for (int step = 0; step < 400; ++step) {
        const auto op = rng.below(100);
        if (op < 45) {
            const auto n = rng.below(6);
            for (std::uint64_t i = 0; i < n; ++i) {
                const Tick d = drawDelay(rng);
                got.spawn(d);
                want.spawn(d);
            }
        } else if (op < 70) {
            const auto budget = rng.below(40);
            ASSERT_EQ(eq.run(budget), ref.run(budget)) << "step " << step;
        } else if (op < 97) {
            const Tick until = eq.now() + (rng.chance(0.5)
                                               ? rng.below(16)
                                               : rng.below(2 * kWheelTicks));
            eq.runUntil(until);
            ref.runUntil(until);
        } else {
            eq.reset();
            ref.reset();
        }
        ASSERT_EQ(got.order, want.order) << "step " << step;
        ASSERT_EQ(eq.executed(), ref.executed()) << "step " << step;
        ASSERT_EQ(eq.now(), ref.now()) << "step " << step;
        ASSERT_EQ(eq.empty(), ref.empty()) << "step " << step;
    }
    eq.run();
    ref.run(~std::uint64_t{0});
    EXPECT_EQ(got.order, want.order);
    EXPECT_EQ(eq.executed(), ref.executed());
    EXPECT_EQ(eq.now(), ref.now());
    EXPECT_TRUE(eq.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueDifferential,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull,
                                           6ull, 7ull, 8ull));

} // namespace
} // namespace gvc
