/**
 * @file
 * Unit tests for the traditional kernel-initiated DMA baseline
 * (paper Section 2).
 */

#include <gtest/gtest.h>

#include "core/system.hh"

using namespace shrimp;
using namespace shrimp::core;
using Mode = baseline::TraditionalDmaDriver::Mode;

namespace
{

SystemConfig
sinkConfig()
{
    SystemConfig cfg;
    cfg.nodes = 1;
    cfg.node.memBytes = 4 << 20;
    DeviceConfig d;
    d.kind = DeviceKind::StreamSink;
    d.driver = DriverKind::Traditional;
    cfg.node.devices.push_back(d);
    return cfg;
}

/** Issue one sys_dma from a spawned process; returns the rc. */
std::uint64_t
runOneDma(System &sys, bool to_device, std::uint32_t bytes, Mode mode,
          Addr *va_out = nullptr)
{
    auto *driver = sys.node(0).tradDriver(0);
    std::uint64_t rc = ~0ull;
    sys.node(0).kernel().spawn(
        "p", [&, driver](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(64 << 10);
            if (va_out)
                *va_out = buf;
            for (Addr off = 0; off < bytes; off += 4096)
                co_await ctx.store(buf + off, off + 1);
            rc = co_await ctx.syscall(
                [&, driver, buf](os::Kernel &k, os::Process &pr,
                                 os::SyscallControl &sc) {
                    driver->requestDma(k, pr, sc, to_device, buf, 0,
                                       bytes, mode);
                });
        });
    sys.runUntilAllDone(Tick(60) * tickSec);
    return rc;
}

} // namespace

TEST(TraditionalDma, TransferCompletesAndWakes)
{
    System sys(sinkConfig());
    auto rc = runOneDma(sys, true, 4096, Mode::PinPages);
    EXPECT_EQ(rc, baseline::TraditionalDmaDriver::resultOk);
    EXPECT_EQ(sys.node(0).streamSink()->bytesAccepted(), 4096u);
    EXPECT_EQ(sys.node(0).tradDriver(0)->requestsCompleted(), 1u);
    EXPECT_EQ(sys.node(0).tradDriver(0)->interrupts(), 1u);
}

TEST(TraditionalDma, DeviceToMemoryMarksPagesDirtyViaKernel)
{
    System sys(sinkConfig());
    Addr va = 0;
    auto rc = runOneDma(sys, false, 4096, Mode::PinPages, &va);
    EXPECT_EQ(rc, baseline::TraditionalDmaDriver::resultOk);
    // The sink's deterministic pattern must have landed.
    auto *p = sys.node(0).kernel().findProcess(1);
    ASSERT_NE(p, nullptr);
    std::uint8_t first = 0;
    sys.node(0).kernel().peekBytes(*p, va, &first, 1);
    EXPECT_EQ(first, 0);
    std::uint8_t at17 = 0;
    sys.node(0).kernel().peekBytes(*p, va + 17, &at17, 1);
    EXPECT_EQ(at17, 17);
}

TEST(TraditionalDma, BadRangeRefusedWithoutBlocking)
{
    System sys(sinkConfig());
    auto *driver = sys.node(0).tradDriver(0);
    std::uint64_t rc = ~0ull;
    sys.node(0).kernel().spawn(
        "p", [&, driver](os::UserContext &ctx) -> sim::ProcTask {
            rc = co_await ctx.syscall(
                [&, driver](os::Kernel &k, os::Process &pr,
                            os::SyscallControl &sc) {
                    driver->requestDma(k, pr, sc, true, 0xDEAD000, 0,
                                       4096, Mode::PinPages);
                });
        });
    sys.runUntilAllDone();
    EXPECT_EQ(rc, baseline::TraditionalDmaDriver::resultBadRange);
    EXPECT_EQ(sys.node(0).tradDriver(0)->requestsCompleted(), 0u);
}

TEST(TraditionalDma, DeviceErrorPropagates)
{
    System sys(sinkConfig());
    auto *driver = sys.node(0).tradDriver(0);
    std::uint64_t rc = ~0ull;
    sys.node(0).kernel().spawn(
        "p", [&, driver](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(4096);
            co_await ctx.store(buf, 1);
            rc = co_await ctx.syscall(
                [&, driver, buf](os::Kernel &k, os::Process &pr,
                                 os::SyscallControl &sc) {
                    // Unaligned device offset.
                    driver->requestDma(k, pr, sc, true, buf, 2, 4096,
                                       Mode::PinPages);
                });
        });
    sys.runUntilAllDone();
    EXPECT_EQ(rc, baseline::TraditionalDmaDriver::resultDeviceError);
}

TEST(TraditionalDma, WriteIntoReadOnlyRegionRefused)
{
    System sys(sinkConfig());
    auto *driver = sys.node(0).tradDriver(0);
    std::uint64_t rc = ~0ull;
    sys.node(0).kernel().spawn(
        "p", [&, driver](os::UserContext &ctx) -> sim::ProcTask {
            Addr ro = co_await ctx.sysAllocMemory(4096, false);
            (void)co_await ctx.load(ro);
            rc = co_await ctx.syscall(
                [&, driver, ro](os::Kernel &k, os::Process &pr,
                                os::SyscallControl &sc) {
                    driver->requestDma(k, pr, sc, false, ro, 0, 4096,
                                       Mode::PinPages);
                });
        });
    sys.runUntilAllDone();
    EXPECT_EQ(rc, baseline::TraditionalDmaDriver::resultBadRange);
}

TEST(TraditionalDma, QueuesConcurrentRequests)
{
    System sys(sinkConfig());
    auto *driver = sys.node(0).tradDriver(0);
    int completions = 0;
    for (int i = 0; i < 3; ++i) {
        sys.node(0).kernel().spawn(
            "p" + std::to_string(i),
            [&, driver](os::UserContext &ctx) -> sim::ProcTask {
                Addr buf = co_await ctx.sysAllocMemory(4096);
                co_await ctx.store(buf, 1);
                std::uint64_t rc = co_await ctx.syscall(
                    [&, driver, buf](os::Kernel &k, os::Process &pr,
                                     os::SyscallControl &sc) {
                        driver->requestDma(k, pr, sc, true, buf, 0,
                                           4096, Mode::PinPages);
                    });
                EXPECT_EQ(rc, 0u);
                ++completions;
            });
    }
    sys.runUntilAllDone(Tick(60) * tickSec);
    EXPECT_EQ(completions, 3);
    EXPECT_EQ(sys.node(0).streamSink()->bytesAccepted(), 3u * 4096);
}

TEST(TraditionalDma, BounceBufferModeCompletes)
{
    System sys(sinkConfig());
    auto rc = runOneDma(sys, true, 8192, Mode::BounceBuffer);
    EXPECT_EQ(rc, baseline::TraditionalDmaDriver::resultOk);
    EXPECT_EQ(sys.node(0).streamSink()->bytesAccepted(), 8192u);
}

TEST(TraditionalDma, PinModeSlowerThanUdmaInitiation)
{
    // The whole point of the paper, as a regression test: traditional
    // end-to-end time minus engine time exceeds UDMA's two-reference
    // initiation by an order of magnitude.
    System sys(sinkConfig());
    Tick t0 = sys.simNow();
    runOneDma(sys, true, 4096, Mode::PinPages);
    Tick total = sys.simNow() - t0;
    sim::MachineParams p;
    Tick engine = p.dmaStart() + p.eisaBurst(4096);
    Tick overhead = total - engine;
    Tick udma_initiation =
        2 * p.ioAccess() + p.instrTicks(p.udmaInitiateSoftwareInstr);
    EXPECT_GT(overhead, 5 * udma_initiation);
}
