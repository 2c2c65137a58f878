/**
 * @file
 * The CPU's op path allocates nothing in the steady state: this binary
 * replaces the global allocation functions with counting ones and
 * asserts that N user memory loads, memory stores, proxy loads and
 * proxy stores — each one a scheduled and dispatched cpu.op — leave
 * the count where it was. It is its own test binary because the
 * replacement is program-wide.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/system.hh"

namespace
{

std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(al);
    if (void *p = std::aligned_alloc(a, (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace shrimp;
using namespace shrimp::core;

TEST(OpAlloc, SteadyStateUserOpsAllocateNothing)
{
    SystemConfig cfg;
    cfg.nodes = 1;
    cfg.node.memBytes = 4 << 20;
    DeviceConfig fb;
    fb.kind = DeviceKind::FrameBuffer;
    cfg.node.devices.push_back(fb);
    System sys(cfg);

    constexpr int kOps = 2000;
    std::uint64_t before = 0;
    std::uint64_t after = 0;
    std::uint64_t events_before = 0;
    std::uint64_t events_after = 0;
    sys.node(0).kernel().spawn(
        "p", [&](os::UserContext &ctx) -> sim::ProcTask {
            const Addr buf = co_await ctx.sysAllocMemory(4096);
            const Addr dev = co_await ctx.sysMapDeviceProxy(0, 0, 1, true);
            const Addr mem_proxy = ctx.proxyAddr(buf, 0);
            // One round to fault everything in and grow the event
            // slab and heap to their high-water marks.
            auto round = [&]() -> sim::Task<std::uint64_t> {
                std::uint64_t sum = 0;
                co_await ctx.store(buf, 1);
                sum += co_await ctx.load(buf);
                // An Inval (negative byte count): a proxy STORE that
                // latches nothing, so no transfer ever starts.
                co_await ctx.store(dev, std::uint64_t(-1));
                sum += co_await ctx.load(mem_proxy);
                co_return sum;
            };
            co_await round();
            co_await round();
            before = g_allocs.load();
            events_before = ctx.kernel().eq().eventsExecuted();
            for (int i = 0; i < kOps; ++i) {
                co_await ctx.store(buf, std::uint64_t(i));
                (void)co_await ctx.load(buf);
                co_await ctx.store(dev, std::uint64_t(-1));
                (void)co_await ctx.load(mem_proxy);
            }
            after = g_allocs.load();
            events_after = ctx.kernel().eq().eventsExecuted();
        });
    sys.runUntilAllDone();

    EXPECT_GE(events_after - events_before, std::uint64_t(4 * kOps));
    EXPECT_EQ(after, before) << (after - before) << " allocations across "
                             << 4 * kOps << " user ops";
}
