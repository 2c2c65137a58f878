/**
 * @file
 * Unit tests for the sharded simulation engine: shard/lookahead
 * clamping, windowed execution, the canonical cross-shard drain order,
 * and the sequential runSetup interleave. These run the real worker
 * threads, so they double as TSan coverage for the barrier and
 * mailbox paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/random.hh"
#include "sim/sharded.hh"

using namespace shrimp;
using namespace shrimp::sim;

namespace
{

/** (event id, node, tick) of one fired event, in execution order. */
using Fired = std::tuple<std::uint32_t, NodeId, Tick>;

/**
 * Random traffic for the selection-order tests. Each fired event
 * draws 0-3 posts from one shared stream: self posts at +0..3 ticks
 * and cross posts at +1..3 ticks, two priorities, on a narrow tick
 * range — so equal (tick, priority) keys across nodes are common and
 * a cross post often lands before its destination's next event.
 * Because the stream is consumed in execution order, two executors
 * produce the same trace only if they pick the same event every time.
 */
struct RandomTraffic
{
    static constexpr std::uint32_t cap = 3000;

    unsigned nodes;
    Random rng;
    std::uint32_t nextId = 0;
    std::vector<Fired> trace;

    RandomTraffic(unsigned n, std::uint64_t seed) : nodes(n), rng(seed) {}

    EventPriority
    drawPrio()
    {
        return rng.below(2) ? EventPriority::Default
                            : EventPriority::DeviceCompletion;
    }

    /** Three initial events per node, via @p sched(node, when, prio, id). */
    template <typename Sched>
    void
    seed(Sched &&sched)
    {
        for (NodeId n = 0; n < nodes; ++n) {
            for (int i = 0; i < 3; ++i) {
                const Tick when = rng.below(40);
                sched(n, when, drawPrio(), nextId++);
            }
        }
    }

    /** Record event @p id firing on @p self and issue its posts via
     *  @p post(src, dst, when, prio, id). */
    template <typename Post>
    void
    fire(NodeId self, Tick now, std::uint32_t id, Post &&post)
    {
        trace.emplace_back(id, self, now);
        const unsigned k = unsigned(rng.below(4));
        for (unsigned i = 0; i < k && nextId < cap; ++i) {
            NodeId dst = self;
            Tick delay = rng.below(4);
            if (nodes > 1 && rng.below(2) == 0) {
                dst = NodeId(rng.below(nodes - 1));
                if (dst >= self)
                    ++dst;
                delay = 1 + rng.below(3);
            }
            post(self, dst, now + delay, drawPrio(), nextId++);
        }
    }
};

/**
 * The selection order the engine must reproduce, by brute force: per
 * node a flat list of pending events, each queue's head found by
 * (tick, priority, source node, per-source sequence) — the stamp order
 * — and the next node by a linear scan for the smallest head
 * (tick, priority), ties to the lower node.
 */
struct LinearScanReference
{
    struct Ev
    {
        Tick when;
        int prio;
        NodeId src;
        std::uint64_t seq;
        std::uint32_t id;

        auto order() const { return std::tie(when, prio, src, seq); }
    };

    std::vector<std::vector<Ev>> pending;
    std::vector<std::uint64_t> seq;
    /** Scan steps whose minimum was held by more than one node. */
    unsigned ties = 0;
    /** Cross posts that lowered the destination's next-event key. */
    unsigned lowered = 0;

    explicit LinearScanReference(unsigned nodes)
        : pending(nodes), seq(nodes, 0)
    {}

    std::vector<Ev>::iterator
    head(NodeId n)
    {
        return std::min_element(pending[n].begin(), pending[n].end(),
                                [](const Ev &a, const Ev &b) {
                                    return a.order() < b.order();
                                });
    }

    /** Node @p n's next-event (tick, priority); maxTick when empty. */
    std::pair<Tick, int>
    key(NodeId n)
    {
        if (pending[n].empty())
            return {maxTick, 0};
        return {head(n)->when, head(n)->prio};
    }

    void
    schedule(NodeId src, NodeId dst, Tick when, EventPriority prio,
             std::uint32_t id)
    {
        if (src != dst && std::pair<Tick, int>(when, int(prio)) < key(dst))
            ++lowered;
        pending[dst].push_back(Ev{when, int(prio), src, seq[src]++, id});
    }

    void
    run(RandomTraffic &traffic)
    {
        for (;;) {
            NodeId best = 0;
            unsigned holders = 1;
            for (NodeId n = 1; n < pending.size(); ++n) {
                if (key(n) < key(best)) {
                    best = n;
                    holders = 1;
                } else if (key(n) == key(best)) {
                    ++holders;
                }
            }
            if (pending[best].empty())
                return;
            if (holders > 1)
                ++ties;
            auto h = head(best);
            const Ev ev = *h;
            pending[best].erase(h);
            traffic.fire(best, ev.when, ev.id,
                         [this](NodeId src, NodeId dst, Tick when,
                                EventPriority prio, std::uint32_t id) {
                             schedule(src, dst, when, prio, id);
                         });
        }
    }
};

/** The reference's trace for @p nodes nodes and @p seed. */
std::vector<Fired>
referenceTrace(unsigned nodes, std::uint64_t seed,
               LinearScanReference *out = nullptr)
{
    RandomTraffic traffic(nodes, seed);
    LinearScanReference ref(nodes);
    traffic.seed([&ref](NodeId n, Tick when, EventPriority prio,
                        std::uint32_t id) {
        ref.schedule(n, n, when, prio, id);
    });
    ref.run(traffic);
    if (out)
        *out = ref;
    return traffic.trace;
}

/** The engine's trace for the same traffic, run by @p runner. */
template <typename Runner>
std::vector<Fired>
engineTrace(ShardedEngine &eng, std::uint64_t seed, Runner &&runner)
{
    RandomTraffic traffic(eng.nodeCount(), seed);
    // Every post from a firing event goes through the engine's router,
    // which schedules self posts directly on the node's own queue.
    struct Ctx
    {
        ShardedEngine &eng;
        RandomTraffic &traffic;

        void
        post(NodeId src, NodeId dst, Tick when, EventPriority prio,
             std::uint32_t id)
        {
            eng.post(src, dst, when, "test.rand",
                     [this, dst, id] { fire(dst, id); }, prio);
        }

        void
        fire(NodeId self, std::uint32_t id)
        {
            traffic.fire(self, eng.queue(self).now(), id,
                         [this](NodeId src, NodeId dst, Tick when,
                                EventPriority prio, std::uint32_t nid) {
                             post(src, dst, when, prio, nid);
                         });
        }
    } ctx{eng, traffic};
    traffic.seed([&ctx](NodeId n, Tick when, EventPriority prio,
                        std::uint32_t id) {
        ctx.eng.queue(n).schedule(when, "test.seed",
                                  [c = &ctx, n, id] { c->fire(n, id); },
                                  prio);
    });
    runner(eng);
    return traffic.trace;
}

} // namespace

TEST(Sharded, ClampsShardsAndLookahead)
{
    ShardedEngine eng(4, 8, 0);
    EXPECT_EQ(eng.nodeCount(), 4u);
    EXPECT_EQ(eng.shardCount(), 4u) << "no more shards than nodes";
    EXPECT_EQ(eng.lookahead(), 1u) << "lookahead floor is one tick";
}

TEST(Sharded, RoundRobinShardAssignment)
{
    ShardedEngine eng(5, 2, 10);
    EXPECT_EQ(eng.shardOf(0), 0u);
    EXPECT_EQ(eng.shardOf(1), 1u);
    EXPECT_EQ(eng.shardOf(2), 0u);
    EXPECT_EQ(eng.shardOf(4), 0u);
}

TEST(Sharded, RunsNodeLocalEventsToCompletion)
{
    ShardedEngine eng(3, 3, 100);
    std::vector<std::uint64_t> fired(3, 0);
    for (NodeId n = 0; n < 3; ++n) {
        std::uint64_t *slot = &fired[n];
        for (Tick t = 1; t <= 5; ++t)
            eng.queue(n).schedule(t * 250, "test.local",
                                  [slot] { ++*slot; });
    }
    eng.run();
    for (NodeId n = 0; n < 3; ++n)
        EXPECT_EQ(fired[n], 5u) << "node " << n;
    EXPECT_EQ(eng.eventsExecuted(), 15u);
    EXPECT_EQ(eng.pendingEvents(), 0u);
    EXPECT_EQ(eng.crossPosts(), 0u);
}

TEST(Sharded, CrossPostsDeliverAtTheRequestedTick)
{
    ShardedEngine eng(2, 2, 50);
    std::vector<Tick> seen;
    eng.queue(0).schedule(10, "test.src", [&eng] {
        // From node 0's shard, one hop in the future.
        eng.post(0, 1, 60, "test.x", [] {},
                 EventPriority::Default);
    });
    eng.queue(1).schedule(60, "test.probe", [&eng, &seen] {
        seen.push_back(eng.queue(1).now());
    });
    eng.run();
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], 60u);
    EXPECT_EQ(eng.crossPosts(), 1u);
    EXPECT_GE(eng.windows(), 1u);
}

TEST(Sharded, DrainOrderIsTickPriorityThenSourceNode)
{
    // Three sources converge on node 3 at the same tick; however the
    // shards interleave, execution order on node 3 must be the
    // canonical (tick, priority, source) order.
    ShardedEngine eng(4, 4, 10);
    std::vector<int> order;
    for (NodeId src = 0; src < 3; ++src) {
        eng.queue(src).schedule(
            5, "test.src", [&eng, &order, src] {
                // Reversed priorities across sources so source order
                // alone would be wrong: node 2 posts the
                // highest-priority event.
                auto prio = src == 2 ? EventPriority::DeviceCompletion
                                     : EventPriority::Default;
                eng.post(src, 3, 20, "test.x",
                         [&order, src] { order.push_back(int(src)); },
                         prio);
            });
    }
    eng.run();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 2) << "DeviceCompletion runs first";
    EXPECT_EQ(order[1], 0) << "then ascending source node";
    EXPECT_EQ(order[2], 1);
}

TEST(Sharded, SelfPostSchedulesDirectly)
{
    ShardedEngine eng(2, 2, 100);
    bool fired = false;
    eng.queue(0).schedule(1, "test.src", [&eng, &fired] {
        // src == dst is exempt from the lookahead rule.
        eng.post(0, 0, 2, "test.self", [&fired] { fired = true; },
                 EventPriority::Default);
    });
    eng.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(eng.crossPosts(), 0u) << "self-sends skip the mailbox";
}

TEST(Sharded, CrossPostInsideTheWindowPanics)
{
    ShardedEngine eng(2, 2, 100);
    eng.queue(0).schedule(50, "test.src", [&eng] {
        // 100 < 50 + lookahead: would land inside the current window.
        eng.post(0, 1, 100, "test.bad", [] {},
                 EventPriority::Default);
    });
    EXPECT_THROW(eng.run(), PanicError);
}

TEST(Sharded, RunStopsAtTheLimit)
{
    ShardedEngine eng(2, 2, 10);
    int fired = 0;
    eng.queue(0).schedule(5, "test.a", [&fired] { ++fired; });
    eng.queue(0).schedule(500, "test.b", [&fired] { ++fired; });
    Tick t = eng.run(100);
    EXPECT_EQ(fired, 1);
    EXPECT_LE(t, 100u);
    EXPECT_EQ(eng.pendingEvents(), 1u);
    eng.run();
    EXPECT_EQ(fired, 2);
}

TEST(Sharded, RunUntilStopsAtABarrierOncePredHolds)
{
    // Both shards hold pending events, so each one's promise bounds
    // the other's horizon to ~one lookahead and the predicate gets a
    // barrier to stop at long before the queues drain. (A shard with
    // no incoming traffic would instead run to the limit in one
    // window — see WindowsWidenForDecoupledShards.)
    ShardedEngine eng(2, 2, 10);
    std::atomic<int> fired{0};
    for (Tick t = 1; t <= 20; ++t) {
        eng.queue(0).schedule(t * 7, "test.tick",
                              [&fired] { ++fired; });
        eng.queue(1).schedule(t * 7, "test.tock",
                              [&fired] { ++fired; });
    }
    eng.runUntil([&fired] { return fired >= 3; });
    EXPECT_GE(fired, 3);
    EXPECT_LT(fired, 40) << "stopped well before the queues drained";
}

TEST(Sharded, WindowsWidenForDecoupledShards)
{
    // Promise-based horizons: shard 1 has nothing pending, so the
    // earliest thing it could ever send shard 0 is a reflection of
    // shard 0's own traffic — a full round trip away. Shard 0's
    // window therefore spans two lookaheads (200000 ticks), and the
    // whole 50000-tick run completes in one planned window instead of
    // one per event gap.
    ShardedEngine eng(2, 2, 100000);
    int fired = 0;
    for (Tick t = 1; t <= 50; ++t)
        eng.queue(0).schedule(t * 1000, "test.tick",
                              [&fired] { ++fired; });
    eng.run();
    EXPECT_EQ(fired, 50);
    EXPECT_LE(eng.windows(), 2u)
        << "the run should fit in one round-trip-wide window";
}

TEST(Sharded, PairLookaheadFoldsNodePairMinima)
{
    // Distance-aware construction: the engine keeps a per-(src shard,
    // dst shard) matrix holding the minimum over the node pairs that
    // map onto each cell.
    ShardedEngine eng(4, 2, ShardedEngine::PairLookahead(
                                [](NodeId src, NodeId) -> Tick {
                                    return src == 0 ? 20 : 80;
                                }));
    // Shard 0 = {0, 2}, shard 1 = {1, 3}. Cell (0, 1) sees src 0
    // (floor 20) and src 2 (floor 80): the min wins.
    EXPECT_EQ(eng.pairLookahead(0, 1), 20u);
    EXPECT_EQ(eng.pairLookahead(1, 0), 80u) << "srcs 1 and 3 only";
    EXPECT_EQ(eng.lookahead(), 20u) << "min over the whole matrix";
}

TEST(Sharded, CrossPostInsideThePairWindowPanics)
{
    // The posting rule is per shard pair: a post that satisfies the
    // matrix minimum is fine, one inside its own pair's floor panics
    // even though other pairs have smaller floors.
    ShardedEngine eng(4, 2, ShardedEngine::PairLookahead(
                                [](NodeId src, NodeId) -> Tick {
                                    return src == 0 ? 20 : 80;
                                }));
    bool delivered = false;
    eng.queue(0).schedule(10, "test.ok", [&eng, &delivered] {
        // 10 + 20 = 30: exactly at shard pair (0, 1)'s floor.
        eng.post(0, 1, 30, "test.x", [&delivered] { delivered = true; },
                 EventPriority::Default);
    });
    eng.run();
    EXPECT_TRUE(delivered);

    ShardedEngine bad(4, 2, ShardedEngine::PairLookahead(
                                [](NodeId src, NodeId) -> Tick {
                                    return src == 0 ? 20 : 80;
                                }));
    bad.queue(1).schedule(10, "test.src", [&bad] {
        // Shard pair (1, 0) floor is 80; 10 + 50 lands inside it.
        bad.post(1, 0, 60, "test.bad", [] {},
                 EventPriority::Default);
    });
    EXPECT_THROW(bad.run(), PanicError);
}

TEST(Sharded, SameShardCrossPostsDeliverDirectly)
{
    // Nodes 0 and 2 share shard 0: the post skips the mailbox, is
    // executed by the merged in-shard loop at its exact tick, and
    // still counts as cross-node traffic.
    ShardedEngine eng(4, 2, 10);
    std::vector<Tick> seen;
    eng.queue(0).schedule(10, "test.src", [&eng, &seen] {
        eng.post(0, 2, 25, "test.x", [&eng, &seen] {
            seen.push_back(eng.queue(2).now());
        }, EventPriority::Default);
    });
    eng.run();
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], 25u);
    EXPECT_EQ(eng.crossPosts(), 1u)
        << "direct same-shard deliveries count as cross posts";
}

TEST(Sharded, BarrierWaitCountersAccumulate)
{
    // Every non-last arrival at the round barrier resolves either by
    // spinning or by a futex sleep; with two workers and a few rounds
    // the sum must be nonzero (which of the two depends on timing).
    ShardedEngine eng(2, 2, 10);
    for (Tick t = 1; t <= 20; ++t) {
        eng.queue(0).schedule(t * 7, "test.tick", [] {});
        eng.queue(1).schedule(t * 7, "test.tock", [] {});
    }
    eng.run();
    EXPECT_GT(eng.barrierSpinWakes() + eng.barrierFutexSleeps(), 0u);
}

TEST(Sharded, BarrierHookSeesAQuiescentWorld)
{
    ShardedEngine eng(2, 2, 10);
    std::uint64_t hooks = 0;
    eng.setBarrierHook([&hooks] { ++hooks; });
    for (Tick t = 1; t <= 10; ++t)
        eng.queue(t % 2).schedule(t * 25, "test.tick", [] {});
    eng.run();
    EXPECT_GT(hooks, 0u);
    EXPECT_GE(hooks, eng.windows());
}

TEST(Sharded, RunSetupInterleavesInCanonicalNodeOrder)
{
    // Same tick, same priority on every node: setup must execute them
    // in ascending node order, whatever the shard layout.
    ShardedEngine eng(3, 2, 10);
    std::vector<int> order;
    for (NodeId n = 0; n < 3; ++n) {
        eng.queue(n).schedule(42, "test.same",
                              [&order, n] { order.push_back(int(n)); });
    }
    eng.runSetup([] { return false; });
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Sharded, RunSetupStopsAtThePredicate)
{
    ShardedEngine eng(2, 1, 10);
    int fired = 0;
    for (Tick t = 1; t <= 10; ++t)
        eng.queue(0).schedule(t, "test.tick", [&fired] { ++fired; });
    eng.runSetup([&fired] { return fired == 4; });
    EXPECT_EQ(fired, 4) << "checked after every event, not windowed";
    eng.run();
    EXPECT_EQ(fired, 10);
}

TEST(Sharded, WorkerExceptionPropagatesToTheCaller)
{
    ShardedEngine eng(2, 2, 10);
    eng.queue(1).schedule(5, "test.boom",
                          [] { panic("boom on a worker thread"); });
    EXPECT_THROW(eng.run(), PanicError);
}

TEST(Sharded, TreeSelectionMatchesALinearScanReference)
{
    // One shard of n nodes: the whole run is one window of the
    // tree-selected merged loop. Sizes off a power of two exercise the
    // padding leaves.
    for (unsigned nodes : {2u, 3u, 5u, 7u, 64u}) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            LinearScanReference ref(nodes);
            const auto want = referenceTrace(nodes, seed, &ref);
            ASSERT_GT(want.size(), 1000u) << "traffic too thin";
            EXPECT_GT(ref.ties, 0u) << "no equal-key ties exercised";
            EXPECT_GT(ref.lowered, 0u) << "no key-lowering posts";
            ShardedEngine eng(nodes, 1, 1);
            const auto got = engineTrace(
                eng, seed, [](ShardedEngine &e) { e.run(); });
            ASSERT_EQ(got.size(), want.size())
                << "nodes=" << nodes << " seed=" << seed;
            EXPECT_TRUE(got == want)
                << "nodes=" << nodes << " seed=" << seed;
            EXPECT_EQ(eng.pendingEvents(), 0u);
        }
    }
}

TEST(Sharded, RunSetupOrderIsShardCountInvariant)
{
    // runSetup interleaves every node in one canonical (tick,
    // priority, node) order, picked over the shards' tree roots: the
    // trace must equal the linear-scan reference at any shard count.
    constexpr unsigned nodes = 8;
    for (std::uint64_t seed : {4u, 5u}) {
        const auto want = referenceTrace(nodes, seed);
        for (unsigned shards : {1u, 2u, 3u, 4u, 8u}) {
            ShardedEngine eng(nodes, shards, 1);
            const auto got = engineTrace(eng, seed, [](ShardedEngine &e) {
                e.runSetup([] { return false; });
            });
            EXPECT_TRUE(got == want)
                << "shards=" << shards << " seed=" << seed;
            EXPECT_EQ(eng.pendingEvents(), 0u);
        }
    }
}
