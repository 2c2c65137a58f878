/**
 * @file
 * Unit tests for the discrete-event core.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"

using namespace shrimp;
using namespace shrimp::sim;

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pendingEvents(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, "c", [&] { order.push_back(3); });
    eq.schedule(10, "a", [&] { order.push_back(1); });
    eq.schedule(20, "b", [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickOrderedByPriorityThenFifo)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, "late", [&] { order.push_back(2); },
                EventPriority::CpuResume);
    eq.schedule(5, "fifo1", [&] { order.push_back(0); },
                EventPriority::DeviceCompletion);
    eq.schedule(5, "fifo2", [&] { order.push_back(1); },
                EventPriority::DeviceCompletion);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, "outer", [&] {
        eq.scheduleIn(50, "inner", [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, DescheduleCancels)
{
    EventQueue eq;
    bool ran = false;
    auto h = eq.schedule(10, "x", [&] { ran = true; });
    EXPECT_TRUE(eq.deschedule(h));
    EXPECT_FALSE(eq.deschedule(h)); // second cancel is a no-op
    eq.run();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, RunHonorsLimit)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, "a", [&] { ++count; });
    eq.schedule(20, "b", [&] { ++count; });
    eq.schedule(30, "c", [&] { ++count; });
    eq.run(20);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(eq.now(), 20u);
    eq.run();
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, RunUntilPredicate)
{
    EventQueue eq;
    int count = 0;
    for (Tick t = 1; t <= 10; ++t)
        eq.schedule(t, "tick", [&] { ++count; });
    eq.runUntil([&] { return count >= 4; });
    EXPECT_EQ(count, 4);
    EXPECT_EQ(eq.now(), 4u);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, "x", [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(5, "past", [] {}), PanicError);
}

TEST(EventQueue, EventsExecutedCounter)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(Tick(i + 1), "e", [] {});
    eq.run();
    EXPECT_EQ(eq.eventsExecuted(), 7u);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(1, "a", [&] { ++count; });
    eq.schedule(2, "b", [&] { ++count; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            eq.scheduleIn(1, "chain", chain);
    };
    eq.schedule(0, "start", chain);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 4u);
}

namespace
{

/** What a queue fired, in order: (label, tick). */
using FireLog = std::vector<std::pair<int, Tick>>;

constexpr int kRepeatEnd = -1;

/**
 * Drive one queue through a seeded mix of ordinary events (some of
 * which schedule more, so stamps are allocated between the periodic
 * firings) around a period-P CpuResume stream that is ended by an
 * event at @p end_at. With @p elided the stream is an elided repeat
 * materialized by that event; otherwise it is the callback that
 * re-schedules itself, stopped the same way.
 */
struct RepeatWorld
{
    EventQueue q;
    FireLog log;
    bool stop = false;
    EventHandle repeat;
    std::uint64_t tally = 0;

    void
    build(std::uint64_t seed, bool elided, Tick period, Tick end_at)
    {
        if (elided) {
            repeat = q.scheduleRepeat(period, period, "rep",
                                      EventPriority::CpuResume, &tally);
        } else {
            q.schedule(period, "rep", [this, period] { rep(period); },
                       EventPriority::CpuResume);
        }
        Random rng(seed);
        const EventPriority prios[] = {
            EventPriority::DeviceCompletion, EventPriority::Default,
            EventPriority::CpuResume, EventPriority::Stats};
        for (int id = 0; id < 60; ++id) {
            // Half the events land exactly on a firing tick.
            Tick when = rng.below(2) ? period * (1 + rng.below(40))
                                     : 1 + rng.below(40 * period);
            EventPriority prio = prios[rng.below(4)];
            bool spawns = rng.below(3) == 0;
            q.schedule(when, "other",
                       [this, id, spawns, period, prio] {
                           log.emplace_back(id, q.now());
                           if (spawns) {
                               q.scheduleIn(period - q.now() % period,
                                            "child",
                                            [this, id] {
                                                log.emplace_back(
                                                    1000 + id, q.now());
                                            },
                                            prio);
                           }
                       },
                       prio);
        }
        q.schedule(end_at, "end", [this, elided] {
            if (!elided) {
                stop = true;
                return;
            }
            q.materialize(repeat, [this] {
                log.emplace_back(kRepeatEnd, q.now());
            });
        });
    }

    void
    rep(Tick period)
    {
        if (stop) {
            log.emplace_back(kRepeatEnd, q.now());
            return;
        }
        ++tally;
        q.schedule(q.now() + period, "rep",
                   [this, period] { rep(period); },
                   EventPriority::CpuResume);
    }
};

} // namespace

TEST(EventQueue, ElidedRepeatMatchesASelfReschedulingCallback)
{
    const Tick period = 150;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        for (Tick end_at : {period * 25, period * 25 + 1}) {
            SCOPED_TRACE(testing::Message()
                         << "seed " << seed << " end " << end_at);
            RepeatWorld real;
            RepeatWorld elided;
            real.build(seed, false, period, end_at);
            elided.build(seed, true, period, end_at);
            real.q.run();
            elided.q.run();
            EXPECT_EQ(elided.log, real.log);
            EXPECT_EQ(elided.q.eventsExecuted(), real.q.eventsExecuted());
            EXPECT_EQ(elided.q.lastFiredTick(), real.q.lastFiredTick());
            EXPECT_EQ(elided.tally, real.tally);
            EXPECT_EQ(elided.q.eventsElided(), real.tally);
            EXPECT_EQ(elided.q.eventsDispatched() + elided.q.eventsElided(),
                      elided.q.eventsExecuted());
        }
    }
}

TEST(EventQueue, ElidedRepeatStopsExactlyAtRunLimitsAndSteps)
{
    const Tick period = 150;
    for (Tick limit : {period * 10 - 1, period * 10, period * 10 + 1}) {
        RepeatWorld real;
        RepeatWorld elided;
        real.build(7, false, period, period * 30);
        elided.build(7, true, period, period * 30);
        real.q.run(limit);
        elided.q.run(limit);
        EXPECT_EQ(elided.log, real.log);
        EXPECT_EQ(elided.q.eventsExecuted(), real.q.eventsExecuted());
        EXPECT_EQ(elided.q.lastFiredTick(), real.q.lastFiredTick());
        EXPECT_EQ(elided.q.now(), real.q.now());
        EXPECT_EQ(elided.tally, real.tally);
        // step() takes one firing at a time; the order is unchanged.
        for (int i = 0; i < 50; ++i) {
            ASSERT_TRUE(real.q.step());
            ASSERT_TRUE(elided.q.step());
            EXPECT_EQ(elided.q.eventsExecuted(), real.q.eventsExecuted());
            EXPECT_EQ(elided.q.lastFiredTick(), real.q.lastFiredTick());
        }
        EXPECT_EQ(elided.log, real.log);
        // stepWithin() stops a run of firings at its limit.
        const Tick to = elided.q.now() + 5 * period;
        while (elided.q.stepWithin(to)) {
        }
        real.q.run(to);
        EXPECT_EQ(elided.q.eventsExecuted(), real.q.eventsExecuted());
        EXPECT_EQ(elided.q.lastFiredTick(), real.q.lastFiredTick());
    }
}
