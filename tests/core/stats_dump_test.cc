/**
 * @file
 * Tests for System::dumpStats.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/system.hh"
#include "core/udma_lib.hh"

using namespace shrimp;
using namespace shrimp::core;

TEST(StatsDump, EmitsAllComponentCounters)
{
    SystemConfig cfg;
    cfg.nodes = 2;
    cfg.node.memBytes = 4 << 20;
    cfg.node.devices.push_back(DeviceConfig{});
    System sys(cfg);

    sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            co_await ctx.store(buf, 1);
        });
    sys.runUntilAllDone();

    std::ostringstream os;
    sys.dumpStats(os);
    std::string out = os.str();

    for (const char *key :
         {"sim.ticks ", "sim.events ", "sim.events_dispatched ",
          "net.bytesRouted ", "node0.kernel.polls ",
          "node0.kernel.polls_elided ",
          "node0.kernel.contextSwitches ", "node0.kernel.pageFaults ",
          "node0.udma0.transfersStarted ", "node0.ni.messagesSent ",
          "node0.bus.bursts ", "node0.tlb.hits ",
          "node1.kernel.contextSwitches ", "node0.swap.pageWrites "}) {
        EXPECT_NE(out.find(key), std::string::npos)
            << "missing stat: " << key;
    }
}

TEST(StatsDump, ValuesReflectActivity)
{
    SystemConfig cfg;
    cfg.nodes = 1;
    cfg.node.memBytes = 4 << 20;
    DeviceConfig fb;
    fb.kind = DeviceKind::FrameBuffer;
    cfg.node.devices.push_back(fb);
    System sys(cfg);

    sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            co_await ctx.store(buf, 7);
            Addr win = co_await ctx.sysMapDeviceProxy(0, 0, 1, true);
            co_await udmaTransfer(ctx, 0, win, buf, 512, true);
        });
    sys.runUntilAllDone();

    std::ostringstream os;
    sys.dumpStats(os);
    std::string out = os.str();
    EXPECT_NE(out.find("node0.udma0.transfersStarted 1"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("node0.udma0.engine.bytesMoved 512"),
              std::string::npos)
        << out;
}

TEST(StatsDump, PollCountersSplitModelledFromDispatchedEvents)
{
    SystemConfig cfg;
    cfg.nodes = 1;
    cfg.node.memBytes = 4 << 20;
    System sys(cfg);

    Addr word = 0;
    os::Process &p = sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            word = co_await ctx.sysAllocMemory(4096);
            co_await ctx.store(word, 0);
            co_await pollWord(ctx, word, 1);
        });
    // About 1000 loads (150 ns each) of spinning before the word flips.
    sys.eq().schedule(Tick(150) * tickUs, "flip", [&] {
        const std::uint64_t one = 1;
        sys.node(0).kernel().pokeBytes(p, word, &one, sizeof one);
    });
    sys.runUntilAllDone();

    os::Kernel &k = sys.node(0).kernel();
    EXPECT_GT(k.polls(), 800u);
    // The first load, the one after the write, and nothing between.
    EXPECT_EQ(k.polls() - k.pollsElided(), 2u);
    EXPECT_EQ(sys.simEvents() - sys.simEventsDispatched(),
              k.pollsElided());

    std::ostringstream txt;
    sys.dumpStats(txt);
    EXPECT_NE(txt.str().find("sim.events_dispatched "
                             + std::to_string(sys.simEventsDispatched())),
              std::string::npos)
        << txt.str();
    std::ostringstream json;
    sys.dumpStatsJson(json);
    EXPECT_NE(json.str().find("\"events_dispatched\":"), std::string::npos);
    EXPECT_NE(json.str().find("\"polls_elided\":"), std::string::npos);
}
