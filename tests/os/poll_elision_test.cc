/**
 * @file
 * Exactness of spin-poll elision: every scenario runs twice, once
 * spinning with a hand-written `ctx.load` loop (one dispatched event
 * per load) and once through `pollUntil`/`pollWord` (one event per
 * outcome change), and every simulated observable must agree: the
 * tick the spin ends, its load count, eventsExecuted(), the last fired
 * tick, TLB hits and context switches.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/system.hh"
#include "core/udma_lib.hh"
#include "sim/event_queue.hh"
#include "workload/ring.hh"

using namespace shrimp;
using namespace shrimp::core;

namespace
{

constexpr std::uint64_t kExpected = 0xBEEF;

enum class Spin
{
    Loop, ///< co_await ctx.load(va) until the word matches
    Poll, ///< core::pollWord (UserContext::pollUntil)
};

/** One host-side write into the poller's word, as a timed event. */
struct Write
{
    Tick when = 0;
    std::uint64_t value = 0;
    sim::EventPriority prio = sim::EventPriority::Default;
};

struct Scenario
{
    std::vector<Write> writes;
    /** Stored into the word before the spin starts. */
    std::uint64_t initial = 0;
    /** Spawn a second, compute-bound process (preemption case). */
    bool hog = false;
    double quantumUs = 10000.0;
    /** 0 = legacy queue, else sharded engine at this many shards. */
    unsigned shards = 0;
};

/** Everything the two spins must agree on. */
struct Outcome
{
    bool finished = false;
    Tick exitTick = 0;
    std::uint64_t polls = 0;
    std::uint64_t events = 0;
    std::uint64_t dispatched = 0;
    Tick lastFired = 0;
    Tick now = 0;
    std::uint64_t tlbHits = 0;
    std::uint64_t switches = 0;
    std::uint64_t pollsElided = 0;
    /** Completion tick of every load (Loop only). */
    std::vector<Tick> loadTicks;
};

bool
sameSimulation(const Outcome &a, const Outcome &b)
{
    return a.finished == b.finished && a.exitTick == b.exitTick
           && a.polls == b.polls && a.events == b.events
           && a.lastFired == b.lastFired && a.now == b.now
           && a.tlbHits == b.tlbHits && a.switches == b.switches;
}

std::ostream &
operator<<(std::ostream &os, const Outcome &o)
{
    return os << "{finished " << o.finished << ", exit " << o.exitTick
              << ", polls " << o.polls << ", events " << o.events
              << " (dispatched " << o.dispatched << "), lastFired "
              << o.lastFired << ", now " << o.now << ", tlbHits "
              << o.tlbHits << ", switches " << o.switches << "}";
}

/** How the run is driven after the scenario is set up. */
enum class Drive
{
    ToCompletion,
    Limit,     ///< run(stopAt)
    FlagEvent, ///< runUntil(flag), flag set by an event at stopAt
    EventCount ///< runUntil(eventsExecuted() >= stopAt)
};

class Harness
{
  public:
    Harness(const Scenario &sc, Spin spin) : sc_(sc), spin_(spin)
    {
        SystemConfig cfg;
        cfg.nodes = 1;
        cfg.shards = sc.shards;
        cfg.node.memBytes = 4 << 20;
        cfg.params.quantumUs = sc.quantumUs;
        sys_ = std::make_unique<System>(cfg);
    }

    Outcome
    run(Drive drive = Drive::ToCompletion, std::uint64_t stop_at = 0)
    {
        os::Kernel &k = sys_->node(0).kernel();
        sim::EventQueue &eq = sys_->nodeEq(0);
        os::Process &proc = k.spawn(
            "poller", [this, &eq](os::UserContext &ctx) -> sim::ProcTask {
                va_ = co_await ctx.sysAllocMemory(4096);
                co_await ctx.store(va_, sc_.initial);
                if (spin_ == Spin::Loop) {
                    for (;;) {
                        std::uint64_t w = co_await ctx.load(va_);
                        ++out_.polls;
                        out_.loadTicks.push_back(eq.now());
                        if (w == kExpected)
                            break;
                    }
                } else {
                    out_.polls = co_await pollWord(ctx, va_, kExpected);
                }
                out_.exitTick = eq.now();
                out_.finished = true;
            });
        if (sc_.hog) {
            k.spawn("hog", [](os::UserContext &ctx) -> sim::ProcTask {
                for (int i = 0; i < 40; ++i)
                    co_await ctx.compute(600); // 10 us each
            });
        }
        for (const Write &w : sc_.writes) {
            eq.schedule(
                w.when, "test.write",
                [&k, &proc, this, v = w.value] {
                    k.pokeBytes(proc, va_, &v, sizeof v);
                },
                w.prio);
        }
        bool flag = false;
        switch (drive) {
          case Drive::ToCompletion:
            sys_->runUntilAllDone(Tick(10) * tickMs);
            break;
          case Drive::Limit:
            sys_->run(Tick(stop_at));
            break;
          case Drive::FlagEvent:
            eq.schedule(Tick(stop_at), "test.flag",
                        [&flag] { flag = true; });
            sys_->runUntil([&flag] { return flag; });
            break;
          case Drive::EventCount:
            sys_->runUntil(
                [&] { return sys_->simEvents() >= stop_at; });
            break;
        }
        out_.events = sys_->simEvents();
        out_.dispatched = sys_->simEventsDispatched();
        out_.lastFired = eq.lastFiredTick();
        out_.now = eq.now();
        out_.tlbHits = sys_->node(0).mmu().tlb().hits();
        out_.switches = k.contextSwitches();
        out_.pollsElided = k.pollsElided();
        if (spin_ == Spin::Poll && !out_.finished)
            out_.polls = k.polls(); // the live count, elided included
        return out_;
    }

  private:
    Scenario sc_;
    Spin spin_;
    std::unique_ptr<System> sys_;
    Addr va_ = 0;
    Outcome out_;
};

Outcome
runSpin(const Scenario &sc, Spin spin, Drive drive = Drive::ToCompletion,
        std::uint64_t stop_at = 0)
{
    Harness h(sc, spin);
    return h.run(drive, stop_at);
}

/** Completion ticks of the loads a word-never-written spin performs
 *  in its first 300 us. */
std::vector<Tick>
calibrate(unsigned shards = 0)
{
    Scenario sc;
    sc.shards = shards;
    sc.writes.push_back({Tick(300) * tickUs, kExpected});
    return runSpin(sc, Spin::Loop).loadTicks;
}

void
expectSame(const Scenario &sc, Drive drive = Drive::ToCompletion,
           std::uint64_t stop_at = 0)
{
    Outcome loop = runSpin(sc, Spin::Loop, drive, stop_at);
    Outcome poll = runSpin(sc, Spin::Poll, drive, stop_at);
    EXPECT_TRUE(sameSimulation(loop, poll))
        << "loop " << loop << "\npoll " << poll;
    // The point of the exercise: most loads dispatched nothing.
    EXPECT_GT(poll.pollsElided, 0u) << poll;
    EXPECT_LT(poll.dispatched, loop.dispatched) << poll;
}

} // namespace

TEST(PollElision, DepositOnAVirtualPollTickAndEitherSide)
{
    const std::vector<Tick> ticks = calibrate();
    ASSERT_GT(ticks.size(), 200u);
    const Tick t = ticks[150];
    for (Tick w : {t - 1, t, t + 1}) {
        SCOPED_TRACE(testing::Message() << "write at " << w << " (poll "
                                        << t << ")");
        Scenario sc;
        sc.writes.push_back({w, kExpected});
        expectSame(sc);
    }
}

TEST(PollElision, SameTickWriteSeenOnlyWhenOrderedFirst)
{
    const std::vector<Tick> ticks = calibrate();
    const Tick t = ticks[150];
    Scenario before;
    before.writes.push_back({t, kExpected, sim::EventPriority::Default});
    Scenario after;
    after.writes.push_back({t, kExpected, sim::EventPriority::Stats});
    expectSame(before);
    expectSame(after);
    // A Default-priority write at a poll tick is read by that poll; a
    // Stats-priority one only by the next.
    Outcome seen = runSpin(before, Spin::Poll);
    Outcome late = runSpin(after, Spin::Poll);
    const Tick period = ticks[151] - ticks[150];
    EXPECT_EQ(seen.exitTick, t);
    EXPECT_EQ(late.exitTick, t + period);
}

TEST(PollElision, NonMatchingWriteThenMatchingOne)
{
    const std::vector<Tick> ticks = calibrate();
    Scenario sc;
    sc.writes.push_back({ticks[40] + 7, 0x1234});
    sc.writes.push_back({ticks[40] + 7, 0x5678}); // same tick, again
    sc.writes.push_back({ticks[160] - 3, kExpected});
    expectSame(sc);
}

TEST(PollElision, QuantumPreemptionMidPoll)
{
    Scenario sc;
    sc.quantumUs = 20.0;
    sc.hog = true;
    sc.writes.push_back({Tick(250) * tickUs + 11, kExpected});
    Outcome loop = runSpin(sc, Spin::Loop);
    Outcome poll = runSpin(sc, Spin::Poll);
    EXPECT_TRUE(sameSimulation(loop, poll))
        << "loop " << loop << "\npoll " << poll;
    EXPECT_GT(poll.switches, 4u) << "the poller was never preempted";
    EXPECT_GT(poll.pollsElided, 0u);
}

TEST(PollElision, PredicateTrueAtTheFirstLoad)
{
    Scenario sc;
    sc.initial = kExpected;
    Outcome loop = runSpin(sc, Spin::Loop);
    Outcome poll = runSpin(sc, Spin::Poll);
    EXPECT_TRUE(sameSimulation(loop, poll))
        << "loop " << loop << "\npoll " << poll;
    EXPECT_EQ(poll.polls, 1u);
    EXPECT_EQ(poll.pollsElided, 0u);
}

TEST(PollElision, RunLimitStopsMidPollWithExactCounters)
{
    const std::vector<Tick> ticks = calibrate();
    Scenario sc;
    sc.writes.push_back({Tick(300) * tickUs, kExpected});
    // On a load tick, just before one, and just after one.
    for (Tick limit : {ticks[120], ticks[120] - 1, ticks[120] + 1}) {
        SCOPED_TRACE(testing::Message() << "run(" << limit << ")");
        expectSame(sc, Drive::Limit, limit);
    }
}

TEST(PollElision, RunUntilStateFlagStopsMidPollWithExactCounters)
{
    const std::vector<Tick> ticks = calibrate();
    Scenario sc;
    sc.writes.push_back({Tick(300) * tickUs, kExpected});
    for (Tick at : {ticks[90], ticks[90] + 5}) {
        SCOPED_TRACE(testing::Message() << "flag at " << at);
        expectSame(sc, Drive::FlagEvent, at);
    }
}

TEST(PollElision, RunUntilCounterPredicateSeesWholeRunsOfFirings)
{
    // The documented granularity: runUntil checks its predicate after
    // each dispatched event and after each run of elided firings, so
    // a predicate on eventsExecuted() that turns true inside a run
    // stops where run(next other event - 1) would. Here the next other
    // event is the write.
    const Tick write_at = Tick(300) * tickUs;
    Scenario sc;
    sc.writes.push_back({write_at, kExpected});
    Outcome loop_to_count = runSpin(sc, Spin::Loop, Drive::EventCount, 100);
    Outcome poll_to_count = runSpin(sc, Spin::Poll, Drive::EventCount, 100);
    Outcome loop_to_write = runSpin(sc, Spin::Loop, Drive::Limit, write_at - 1);
    EXPECT_EQ(loop_to_count.events, 100u);
    EXPECT_GT(poll_to_count.events, 100u);
    // run(limit) parks now() at the limit; everything fired agrees.
    EXPECT_EQ(poll_to_count.events, loop_to_write.events);
    EXPECT_EQ(poll_to_count.lastFired, loop_to_write.lastFired);
    EXPECT_EQ(poll_to_count.now, loop_to_write.lastFired);
    EXPECT_EQ(poll_to_count.polls, loop_to_write.polls);
    EXPECT_EQ(poll_to_count.tlbHits, loop_to_write.tlbHits);
}

TEST(PollElision, ShardedEngineAgreesToo)
{
    const std::vector<Tick> ticks = calibrate(1);
    Scenario sc;
    sc.shards = 1;
    sc.writes.push_back({ticks[150], kExpected});
    expectSame(sc);
    sc.hog = true;
    sc.quantumUs = 20.0;
    expectSame(sc);
}

TEST(PollElision, ChannelRingDigestIdenticalAcrossShardCounts)
{
    std::uint64_t digest = 0;
    for (unsigned shards : {1u, 2u, 4u}) {
        SCOPED_TRACE(testing::Message() << "shards " << shards);
        workload::RingConfig cfg;
        cfg.nodes = 16;
        cfg.records = 6;
        cfg.shards = shards;
        std::uint64_t elided = 0;
        std::uint64_t dispatched = 0;
        cfg.onSystemDone = [&](System &sys) {
            for (unsigned n = 0; n < sys.nodeCount(); ++n)
                elided += sys.node(n).kernel().pollsElided();
            dispatched = sys.simEventsDispatched();
        };
        workload::RingResult r = workload::runRing(cfg);
        ASSERT_EQ(r.nodesDone, cfg.nodes);
        if (shards == 1)
            digest = r.digest;
        EXPECT_EQ(r.digest, digest);
        EXPECT_GT(elided, 0u);
        EXPECT_EQ(dispatched + elided, r.simEvents);
    }
}
