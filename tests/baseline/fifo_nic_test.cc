/**
 * @file
 * Unit tests for the memory-mapped FIFO NIC baseline (Section 9).
 */

#include <gtest/gtest.h>

#include "core/system.hh"

using namespace shrimp;
using namespace shrimp::core;
using baseline::FifoNic;

namespace
{

SystemConfig
fifoConfig(unsigned nodes = 2)
{
    SystemConfig cfg;
    cfg.nodes = nodes;
    cfg.node.memBytes = 4 << 20;
    DeviceConfig d;
    d.kind = DeviceKind::FifoNic;
    cfg.node.devices.push_back(d);
    return cfg;
}

} // namespace

TEST(FifoNic, WordsFlowBetweenNodes)
{
    System sys(fifoConfig());
    std::vector<std::uint64_t> got;
    bool recv_ready = false;

    sys.node(1).kernel().spawn(
        "recv", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 2, true);
            recv_ready = true;
            while (got.size() < 4) {
                std::uint64_t avail =
                    co_await ctx.load(win + FifoNic::regRxAvail);
                for (std::uint64_t i = 0; i < avail; ++i) {
                    got.push_back(
                        co_await ctx.load(win + FifoNic::regRxData));
                }
            }
        });

    sys.node(0).kernel().spawn(
        "send", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 2, true);
            while (!recv_ready)
                co_await ctx.compute(500);
            co_await ctx.store(win + FifoNic::regDestNode, 1);
            Addr tx = win + ctx.pageBytes();
            for (std::uint64_t w = 10; w < 14; ++w)
                co_await ctx.store(tx, w);
        });

    sys.runUntilAllDone(Tick(10) * tickSec);
    EXPECT_EQ(got, (std::vector<std::uint64_t>{10, 11, 12, 13}));
    EXPECT_EQ(sys.node(0).fifoNic()->wordsSent(), 4u);
    EXPECT_EQ(sys.node(1).fifoNic()->wordsReceived(), 4u);
}

TEST(FifoNic, StatusRegistersReflectState)
{
    System sys(fifoConfig());
    std::uint64_t space = 0, avail_empty = ~0ull, pop_empty = ~0ull;
    sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 2, true);
            space = co_await ctx.load(win + FifoNic::regTxSpace);
            avail_empty = co_await ctx.load(win + FifoNic::regRxAvail);
            pop_empty = co_await ctx.load(win + FifoNic::regRxData);
        });
    sys.runUntilAllDone();
    sim::MachineParams p;
    EXPECT_EQ(space, p.niFifoBytes / 8);
    EXPECT_EQ(avail_empty, 0u);
    EXPECT_EQ(pop_empty, 0u) << "popping an empty FIFO returns 0";
}

TEST(FifoNic, ProtectedByVmLikeAnyDeviceWindow)
{
    System sys(fifoConfig());
    auto &bad = sys.node(0).kernel().spawn(
        "bad", [&](os::UserContext &ctx) -> sim::ProcTask {
            // Never mapped the window.
            auto base = ctx.kernel().layout().devProxyBase(0);
            co_await ctx.store(base + FifoNic::regDestNode, 1);
            ADD_FAILURE() << "unreachable";
        });
    sys.runUntilAllDone();
    EXPECT_TRUE(bad.killed());
}

TEST(FifoNic, PerWordCostIsOneBusTransaction)
{
    // 64 words = 64 uncached stores; wall time must scale with the
    // word count (the Section 9 argument for why DMA wins at size).
    System sys(fifoConfig());
    Tick elapsed = 0;
    bool recv_ready = false;
    sys.node(1).kernel().spawn(
        "recv", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 2, true);
            (void)win;
            recv_ready = true;
        });
    sys.node(0).kernel().spawn(
        "send", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 2, true);
            while (!recv_ready)
                co_await ctx.compute(500);
            co_await ctx.store(win + FifoNic::regDestNode, 1);
            Tick t0 = ctx.kernel().eq().now();
            for (int w = 0; w < 64; ++w)
                co_await ctx.store(win + ctx.pageBytes(), w);
            elapsed = ctx.kernel().eq().now() - t0;
        });
    sys.runUntilAllDone(Tick(10) * tickSec);
    sim::MachineParams p;
    EXPECT_GE(elapsed, 64 * p.ioAccess());
    EXPECT_LE(elapsed, 64 * p.ioAccess() * 3);
}

// ------------------------------------------- engine determinism

namespace
{

/** What one FIFO traffic run produced; equal across worker counts. */
struct FifoRun
{
    Tick simNow = 0;
    std::uint64_t events = 0;
    std::uint64_t digest = 0;
    std::uint64_t wordsReceived = 0;
    bool inOrder = true;

    bool
    operator==(const FifoRun &o) const
    {
        return simNow == o.simNow && events == o.events
               && digest == o.digest && wordsReceived == o.wordsReceived
               && inOrder == o.inOrder;
    }
};

/**
 * Every node streams @p words words by PIO: to its right neighbour
 * (ring), or all into node 0 (incast — N-1 credit windows converging
 * on one receive FIFO, so words queue at its ejection port). More
 * words than one FIFO holds, so the credits run out mid-stream.
 * Processes read no host-shared state, so the run may use any number
 * of workers.
 */
FifoRun
runFifoTraffic(unsigned shards, const char *topo, bool incast,
               std::uint64_t words = 1200)
{
    SystemConfig cfg = fifoConfig(16);
    cfg.shards = shards;
    cfg.params.quantumUs = 200.0;
    EXPECT_TRUE(sim::parseTopologySpec(topo, cfg.topology, nullptr));
    System sys(cfg);
    const unsigned n = cfg.nodes;

    struct RxState
    {
        std::uint64_t hash = 0xcbf29ce484222325ull;
        std::uint64_t got = 0;
        std::vector<std::uint64_t> nextSeq;
        bool inOrder = true;
        Tick done = 0;
    };
    std::vector<RxState> rx(n);

    for (unsigned node = 0; node < n; ++node) {
        const bool sends = !incast || node != 0;
        const NodeId dst = incast ? 0 : (node + 1) % n;
        const std::uint64_t expect =
            incast ? (node == 0 ? (n - 1) * words : 0) : words;
        if (sends) {
            sys.node(node).kernel().spawn(
                "send", [node, dst, words](os::UserContext &ctx)
                            -> sim::ProcTask {
                    Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 2, true);
                    co_await ctx.store(win + FifoNic::regDestNode, dst);
                    const Addr tx = win + ctx.pageBytes();
                    std::uint64_t sent = 0;
                    while (sent < words) {
                        std::uint64_t space =
                            co_await ctx.load(win + FifoNic::regTxSpace);
                        for (; space > 0 && sent < words; --space, ++sent)
                            co_await ctx.store(
                                tx, (std::uint64_t(node) << 32) | sent);
                    }
                });
        }
        if (expect == 0)
            continue;
        RxState &me = rx[node];
        me.nextSeq.assign(n, 0);
        sys.node(node).kernel().spawn(
            "recv",
            [&me, expect](os::UserContext &ctx) -> sim::ProcTask {
                Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 2, true);
                while (me.got < expect) {
                    std::uint64_t avail =
                        co_await ctx.load(win + FifoNic::regRxAvail);
                    for (; avail > 0; --avail, ++me.got) {
                        const std::uint64_t w =
                            co_await ctx.load(win + FifoNic::regRxData);
                        const std::size_t src = std::size_t(w >> 32);
                        if (src >= me.nextSeq.size()
                            || (w & 0xffffffffu) != me.nextSeq[src]++)
                            me.inOrder = false;
                        me.hash = (me.hash ^ w) * 0x100000001b3ull;
                    }
                }
                me.done = ctx.kernel().eq().now();
            });
    }
    sys.runUntilAllDone(Tick(10) * tickSec);
    sys.run();

    FifoRun out;
    out.simNow = sys.simNow();
    out.events = sys.simEvents();
    out.digest = 0xcbf29ce484222325ull;
    for (unsigned node = 0; node < n; ++node) {
        for (std::uint64_t v : {rx[node].hash, std::uint64_t(rx[node].done),
                                sys.node(node).fifoNic()->wordsSent()})
            out.digest = (out.digest ^ v) * 0x100000001b3ull;
        out.wordsReceived += sys.node(node).fifoNic()->wordsReceived();
        out.inOrder = out.inOrder && rx[node].inOrder;
    }
    return out;
}

} // namespace

TEST(FifoNic, DigestIdenticalAcrossWorkersOnCrossbarAndMesh)
{
    for (const char *topo : {"crossbar", "mesh:4x4"}) {
        for (bool incast : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << topo << (incast ? " incast" : " ring"));
            const FifoRun one = runFifoTraffic(1, topo, incast);
            EXPECT_EQ(one.wordsReceived, 15u * 1200 + (incast ? 0 : 1200))
                << "every word delivered exactly once";
            EXPECT_TRUE(one.inOrder) << "per-source FIFO order";
            for (unsigned shards : {2u, 4u}) {
                SCOPED_TRACE(testing::Message() << "shards " << shards);
                EXPECT_TRUE(runFifoTraffic(shards, topo, incast) == one);
            }
        }
    }
}
