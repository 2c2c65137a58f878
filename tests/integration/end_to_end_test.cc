/**
 * @file
 * End-to-end integration tests: user processes driving real UDMA
 * transfers through the full stack (coroutine CPU -> MMU -> I/O bus ->
 * UDMA controller -> DMA engine -> device), including the two-node
 * SHRIMP deliberate-update message path.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/system.hh"
#include "core/udma_lib.hh"

using namespace shrimp;
using namespace shrimp::core;

namespace
{

SystemConfig
fbConfig()
{
    SystemConfig cfg;
    cfg.nodes = 1;
    cfg.node.memBytes = 4 << 20;
    DeviceConfig fb;
    fb.kind = DeviceKind::FrameBuffer;
    fb.fbWidth = 64;
    fb.fbHeight = 64;
    cfg.node.devices.push_back(fb);
    return cfg;
}

SystemConfig
niConfig(unsigned nodes = 2)
{
    SystemConfig cfg;
    cfg.nodes = nodes;
    cfg.node.memBytes = 4 << 20;
    cfg.node.devices.push_back(DeviceConfig{});
    return cfg;
}

} // namespace

TEST(EndToEnd, ComputeOnlyProcessRunsAndExits)
{
    SystemConfig cfg = fbConfig();
    System sys(cfg);
    bool ran = false;
    sys.node(0).kernel().spawn("worker",
                               [&](os::UserContext &ctx) -> sim::ProcTask {
                                   co_await ctx.compute(1000);
                                   ran = true;
                               });
    sys.runUntilAllDone();
    EXPECT_TRUE(ran);
    // 1000 instructions at 60 MHz ~= 16.7 us plus dispatch cost.
    EXPECT_GT(sys.simNow(), 16 * tickUs);
    EXPECT_LT(sys.simNow(), 60 * tickUs);
}

TEST(EndToEnd, LoadStoreThroughMmu)
{
    SystemConfig cfg = fbConfig();
    System sys(cfg);
    std::uint64_t seen = 0;
    sys.node(0).kernel().spawn(
        "worker", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(8192);
            EXPECT_NE(buf, 0u);
            co_await ctx.store(buf + 16, 0xDEADBEEFCAFEull);
            seen = co_await ctx.load(buf + 16);
        });
    sys.runUntilAllDone();
    EXPECT_EQ(seen, 0xDEADBEEFCAFEull);
}

TEST(EndToEnd, UdmaBlitToFrameBuffer)
{
    SystemConfig cfg = fbConfig();
    System sys(cfg);
    auto &node = sys.node(0);
    const unsigned dev = 0;

    sys.node(0).kernel().spawn(
        "blitter", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            // Fill the source buffer with a pixel pattern via stores.
            for (unsigned i = 0; i < 64; ++i)
                co_await ctx.store(buf + i * 8, 0x11112222ull * (i + 1));
            // Map the first page of the frame buffer's proxy window.
            Addr fbva =
                co_await ctx.sysMapDeviceProxy(dev, 0, 1, true);
            EXPECT_NE(fbva, 0u);
            std::uint64_t n = co_await udmaTransfer(ctx, dev, fbva,
                                                    buf, 512);
            EXPECT_EQ(n, 1u);
        });
    sys.runUntilAllDone();

    // The frame buffer now holds the pattern.
    auto *fb = node.frameBuffer();
    ASSERT_NE(fb, nullptr);
    EXPECT_EQ(fb->pixel(0, 0), 0x11112222u * 1);
    // Pixel 2 (bytes 8..11) is the low half of the second store.
    EXPECT_EQ(fb->pixel(2, 0), std::uint32_t(0x11112222ull * 2));
}

TEST(EndToEnd, UdmaReadbackFromFrameBufferNeedsDirtyDest)
{
    SystemConfig cfg = fbConfig();
    System sys(cfg);
    auto &node = sys.node(0);
    const unsigned dev = 0;
    std::uint64_t first_word = 0;

    node.kernel().spawn(
        "reader", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            // Touch the destination so it exists; the proxy write
            // fault path (I3) will mark it dirty during initiation.
            co_await ctx.store(buf, 0);
            Addr fbva =
                co_await ctx.sysMapDeviceProxy(dev, 0, 1, true);
            EXPECT_NE(fbva, 0u);
            std::uint64_t n = co_await udmaTransferFromDevice(
                ctx, dev, buf, fbva, 256);
            EXPECT_EQ(n, 1u);
            first_word = co_await ctx.load(buf);
        });

    // Pre-paint the frame buffer.
    auto *fb = node.frameBuffer();
    std::vector<std::uint8_t> pix(256);
    for (unsigned i = 0; i < 256; ++i)
        pix[i] = std::uint8_t(i ^ 0x5a);
    fb->devicePush(0, pix.data(), 256);

    sys.runUntilAllDone();
    std::uint64_t expect;
    std::memcpy(&expect, pix.data(), 8);
    EXPECT_EQ(first_word, expect);
}

TEST(EndToEnd, ShrimpMessageTwoNodes)
{
    SystemConfig cfg = niConfig();
    System sys(cfg);
    const unsigned dev = 0;
    constexpr std::uint32_t msgBytes = 2048;

    // Out-of-band rendezvous between the two processes.
    struct Shared
    {
        std::vector<Addr> rxPages;
        bool exported = false;
        Addr rxVa = 0;
    } shared;

    auto &recvNode = sys.node(1);
    recvNode.kernel().spawn(
        "receiver", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            shared.rxVa = buf;
            shared.rxPages = co_await sysExportRange(ctx, buf, 4096);
            shared.exported = true;
            // Poll the last word of the message for the sentinel the
            // sender places there.
            co_await pollWord(ctx, buf + msgBytes - 8,
                              0x00C0FFEE00C0FFEEull);
        });

    auto &sendNode = sys.node(0);
    sendNode.kernel().spawn(
        "sender", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(msgBytes);
            // Fill the payload (backdoor for speed, then patch the
            // sentinel with real stores so the page is dirty).
            std::vector<std::uint8_t> payload(msgBytes);
            for (std::uint32_t i = 0; i < msgBytes; ++i)
                payload[i] = std::uint8_t(i * 7);
            ctx.kernel().pokeBytes(ctx.process(), buf, payload.data(),
                                   msgBytes);
            co_await ctx.store(buf + msgBytes - 8,
                               0x00C0FFEE00C0FFEEull);
            // Wait for the receiver's export, then map it.
            while (!shared.exported)
                co_await ctx.compute(500);
            Addr proxy = co_await sysMapRemoteRange(
                ctx, dev, *sendNode.ni(), recvNode.id(),
                shared.rxPages);
            EXPECT_NE(proxy, 0u);
            std::uint64_t n =
                co_await udmaTransfer(ctx, dev, proxy, buf, msgBytes);
            EXPECT_EQ(n, 1u);
        });

    sys.runUntilAllDone(Tick(10) * tickSec);
    ASSERT_TRUE(recvNode.kernel().allProcessesDone());
    sys.run(); // drain trailing device events (delivery counters)

    // Verify the payload landed in the receiver's memory.
    auto *recvProc = recvNode.kernel().findProcess(1);
    ASSERT_NE(recvProc, nullptr);
    std::vector<std::uint8_t> got(msgBytes);
    recvNode.kernel().peekBytes(*recvProc, shared.rxVa, got.data(),
                                msgBytes);
    for (std::uint32_t i = 0; i < msgBytes - 8; ++i)
        ASSERT_EQ(got[i], std::uint8_t(i * 7)) << "at byte " << i;
    EXPECT_EQ(sendNode.ni()->messagesSent(), 1u);
    EXPECT_EQ(recvNode.ni()->messagesDelivered(), 1u);
}

TEST(EndToEnd, MultiPageShrimpMessage)
{
    SystemConfig cfg = niConfig();
    System sys(cfg);
    const unsigned dev = 0;
    constexpr std::uint32_t msgBytes = 3 * 4096 + 1024;

    struct Shared
    {
        std::vector<Addr> rxPages;
        bool exported = false;
        Addr rxVa = 0;
    } shared;

    auto &recvNode = sys.node(1);
    recvNode.kernel().spawn(
        "receiver", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4 * 4096);
            shared.rxVa = buf;
            shared.rxPages =
                co_await sysExportRange(ctx, buf, 4 * 4096);
            shared.exported = true;
            co_await pollWord(ctx, buf + msgBytes - 8, ~0ull);
        });

    auto &sendNode = sys.node(0);
    std::uint64_t transfers = 0;
    sendNode.kernel().spawn(
        "sender", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(msgBytes);
            std::vector<std::uint8_t> payload(msgBytes, 0xAB);
            ctx.kernel().pokeBytes(ctx.process(), buf, payload.data(),
                                   msgBytes);
            co_await ctx.store(buf + msgBytes - 8, ~0ull);
            while (!shared.exported)
                co_await ctx.compute(500);
            Addr proxy = co_await sysMapRemoteRange(
                ctx, dev, *sendNode.ni(), recvNode.id(),
                shared.rxPages);
            EXPECT_NE(proxy, 0u);
            transfers =
                co_await udmaTransfer(ctx, dev, proxy, buf, msgBytes);
        });

    sys.runUntilAllDone(Tick(10) * tickSec);
    sys.run(); // drain trailing device events
    // One hardware transfer per page piece: 3 full pages + the tail.
    EXPECT_EQ(transfers, 4u);
    EXPECT_EQ(sendNode.ni()->messagesSent(), 4u);
    EXPECT_EQ(recvNode.ni()->messagesDelivered(), 4u);
}
