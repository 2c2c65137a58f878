/**
 * @file
 * The kernel's two ways in must agree. One scripted reference
 * sequence runs twice on fresh machines: once through the timed CPU
 * (a spawned process issuing store/load ops, page-daemon calls from
 * syscalls) and once through the model checker's synchronous CPU
 * (modelSwitchTo + performUserAccess, the page-daemon calls made
 * directly). The sequence covers memory stores and loads, demand-zero
 * and swap-in faults, a proxy STORE/LOAD initiation pair in each
 * direction, the I3 proxy write upgrade after cleanPage, and an
 * evictPage that must Inval a latched destination. Both runs must end
 * with the same loaded values, PTE bits, frame table, page contents,
 * proxy-translation cache, controller state and kernel counters.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/system.hh"

using namespace shrimp;
using namespace shrimp::core;

namespace
{

enum class Op
{
    Store,
    Load,
    Clean, ///< Kernel::cleanPage
    Evict, ///< Kernel::evictPage
    Drain, ///< let every transfer in flight complete
};

enum class Target
{
    BufA,
    BufB,
    ProxyA, ///< PROXY(bufA) on the frame buffer
    ProxyB,
    Window, ///< the frame buffer's device-proxy window
};

struct Step
{
    Op op;
    Target target;
    std::uint64_t value = 0;
};

constexpr std::uint64_t xferBytes = 4096;

const std::vector<Step> script = {
    {Op::Store, Target::BufA, 0x1111},     // demand-zero fault
    {Op::Load, Target::BufA},              // memory load
    {Op::Store, Target::Window, xferBytes}, // device DESTINATION
    {Op::Load, Target::ProxyA},            // proxy fault, fires mem->dev
    {Op::Drain, Target::BufA},
    {Op::Clean, Target::BufA},             // write-protects PROXY(bufA)
    {Op::Store, Target::ProxyA, xferBytes}, // I3 write upgrade, latches
    {Op::Load, Target::Window},            // fires dev->mem
    {Op::Drain, Target::BufA},
    {Op::Store, Target::BufB, 0x2222},     // demand-zero fault
    {Op::Store, Target::ProxyB, xferBytes}, // latches bufB's frame
    {Op::Evict, Target::BufB},             // I4: Inval the latch, evict
    {Op::Load, Target::BufB},              // swap-in fault
    {Op::Load, Target::ProxyB},            // re-fault: no latch to fire
};

struct World
{
    System sys;
    Addr bufA = 0;
    Addr bufB = 0;
    Addr window = 0;
    /** Loaded values and page-daemon results, in script order. */
    std::vector<std::uint64_t> results;

    World() : sys(config()) {}

    static SystemConfig
    config()
    {
        SystemConfig cfg;
        cfg.nodes = 1;
        cfg.node.memBytes = 1 << 20;
        DeviceConfig fb;
        fb.kind = DeviceKind::FrameBuffer;
        fb.fbWidth = 256;
        fb.fbHeight = 256;
        cfg.node.devices.push_back(fb);
        return cfg;
    }

    os::Kernel &kernel() { return sys.node(0).kernel(); }

    Addr
    addr(Target t)
    {
        switch (t) {
          case Target::BufA: return bufA;
          case Target::BufB: return bufB;
          case Target::ProxyA: return kernel().layout().proxy(bufA, 0);
          case Target::ProxyB: return kernel().layout().proxy(bufB, 0);
          case Target::Window: return window;
        }
        return 0;
    }

    bool
    transferring()
    {
        for (auto *c : kernel().controllers()) {
            if (c->state() == dma::UdmaController::State::Transferring)
                return true;
        }
        return false;
    }
};

sim::Task<void>
setUp(os::UserContext &ctx, World &w)
{
    w.bufA = co_await ctx.sysAllocMemory(ctx.pageBytes());
    w.bufB = co_await ctx.sysAllocMemory(ctx.pageBytes());
    w.window = co_await ctx.sysMapDeviceProxy(0, 0, 1, true);
}

sim::Task<void>
park(os::UserContext &ctx)
{
    co_await ctx.syscall(
        [](os::Kernel &, os::Process &, os::SyscallControl &sc) {
            sc.blocks = true;
        });
}

/** The timed CPU: the script as the ops of a running process. */
os::Process &
runTimed(World &w)
{
    os::Process &pr = w.kernel().spawn(
        "timed", [&w](os::UserContext &ctx) -> sim::ProcTask {
            co_await setUp(ctx, w);
            // One switch before the script, as the model run makes.
            co_await ctx.yield();
            for (const Step &s : script) {
                const Addr va = w.addr(s.target);
                switch (s.op) {
                  case Op::Store:
                    co_await ctx.store(va, s.value);
                    break;
                  case Op::Load:
                    w.results.push_back(co_await ctx.load(va));
                    break;
                  case Op::Clean:
                  case Op::Evict: {
                    const bool clean = s.op == Op::Clean;
                    w.results.push_back(co_await ctx.syscall(
                        [clean, va](os::Kernel &k, os::Process &p,
                                    os::SyscallControl &sc) {
                            Tick lat = 0;
                            sc.result = clean ? k.cleanPage(p, va, lat)
                                              : k.evictPage(p, va, lat);
                        }));
                    break;
                  }
                  case Op::Drain:
                    // 1 ms of CPU: far longer than one 4 KB transfer.
                    co_await ctx.compute(60000);
                    break;
                }
            }
            co_await park(ctx);
        });
    w.sys.run();
    EXPECT_FALSE(w.transferring());
    return pr;
}

/** The model checker's CPU: the same script, synchronously. */
os::Process &
runModel(World &w)
{
    os::Kernel &k = w.kernel();
    os::Process &pr = k.spawn(
        "model", [&w](os::UserContext &ctx) -> sim::ProcTask {
            co_await setUp(ctx, w);
            co_await park(ctx);
        });
    w.sys.run();
    k.modelSwitchTo(pr);
    for (const Step &s : script) {
        const Addr va = w.addr(s.target);
        Tick lat = 0;
        switch (s.op) {
          case Op::Store:
            EXPECT_TRUE(k.performUserAccess(pr, va, true, s.value).ok);
            break;
          case Op::Load: {
            auto r = k.performUserAccess(pr, va, false);
            EXPECT_TRUE(r.ok);
            w.results.push_back(r.value);
            break;
          }
          case Op::Clean:
            w.results.push_back(k.cleanPage(pr, va, lat));
            break;
          case Op::Evict:
            w.results.push_back(k.evictPage(pr, va, lat));
            break;
          case Op::Drain: {
            sim::EventQueue &eq = w.sys.nodeEq(0);
            eq.runUntil([&w] { return !w.transferring(); },
                        eq.now() + tickSec);
            break;
          }
        }
    }
    EXPECT_FALSE(w.transferring());
    return pr;
}

/** Everything the two runs must agree on, one fact per line. */
std::string
snapshot(World &w, os::Process &pr)
{
    os::Kernel &k = w.kernel();
    const vm::AddressLayout &layout = k.layout();
    std::ostringstream os;
    os << std::hex;

    os << "results";
    for (auto v : w.results)
        os << ' ' << v;
    os << '\n';

    os << "state " << int(pr.state()) << " killed " << pr.killed()
       << '\n';
    auto pteBits = [](const vm::Pte &pte) {
        return std::uint64_t(pte.valid) | std::uint64_t(pte.writable) << 1
               | std::uint64_t(pte.user) << 2
               | std::uint64_t(pte.dirty) << 3
               | std::uint64_t(pte.referenced) << 4;
    };
    std::vector<std::uint8_t> page(layout.pageBytes());
    pr.pageTable().forEach([&](std::uint64_t vpn, vm::Pte &pte) {
        os << "pte " << vpn << " frame " << pte.frameAddr << " bits "
           << pteBits(pte);
        if (pte.valid
                && layout.decode(pte.frameAddr).space
                       == vm::Space::Memory) {
            k.memory().readBytes(pte.frameAddr, page.data(), page.size());
            std::uint64_t h = 1469598103934665603ull;
            for (std::uint8_t b : page)
                h = (h ^ b) * 1099511628211ull;
            os << " data " << h;
        }
        os << '\n';
    });

    const std::uint64_t frames = layout.memBytes() / layout.pageBytes();
    for (std::uint64_t f = 0; f < frames; ++f) {
        const auto &fi = k.frameInfo(f);
        if (fi.used)
            os << "frame " << f << " pid " << fi.pid << " vpn " << fi.vpn
               << " pins " << fi.pinCount << '\n';
    }
    os << "free " << k.freeFrames() << " clock " << k.clockHand()
       << '\n';

    const auto &tc = k.proxyTcache();
    tc.forEach([&](const os::ProxyTranslationCache::Entry &e) {
        os << "tcache pid " << e.pid << " vpn " << e.vpn << " frame "
           << e.pte->frameAddr << " bits " << pteBits(*e.pte) << '\n';
    });
    os << "tcache hits " << tc.hits() << " misses " << tc.misses()
       << '\n';

    for (const auto *c : k.controllers()) {
        Addr dest = 0;
        const bool latched = c->destLoadedPage(dest);
        os << "ctrl " << c->deviceIndex() << " state " << int(c->state())
           << " latched " << latched << ' ' << dest << " owner "
           << c->latchOwnerPid() << " started " << c->transfersStarted()
           << " invals " << c->invalsApplied() << " status-loads "
           << c->statusLoads() << " busy " << c->busyPages().size()
           << '\n';
    }

    os << "pageFaults " << k.pageFaults() << " proxyFaults "
       << k.proxyFaults() << " proxyWriteUpgrades "
       << k.proxyWriteUpgrades() << " i1Invals " << k.i1Invals()
       << " i2Shootdowns " << k.i2Shootdowns() << " i3DirtyFaults "
       << k.i3DirtyFaults() << " evictionI4Skips "
       << k.evictionI4Skips() << " evictions " << k.evictions()
       << " contextSwitches " << k.contextSwitches() << " killed "
       << k.processesKilled() << '\n';
    return os.str();
}

} // namespace

TEST(EntryPoints, TimedAndModelCpusAgreeOnTheScript)
{
    World timed;
    const std::string a = snapshot(timed, runTimed(timed));
    World model;
    const std::string b = snapshot(model, runModel(model));
    EXPECT_EQ(a, b);

    // The script reaches every mechanism it names.
    os::Kernel &k = model.kernel();
    EXPECT_GE(k.pageFaults(), 3u);      // two demand-zero, one swap-in
    EXPECT_GE(k.proxyFaults(), 3u);
    EXPECT_EQ(k.proxyWriteUpgrades(), 1u);
    EXPECT_GE(k.i2Shootdowns(), 1u);
    EXPECT_EQ(k.evictions(), 1u);
    EXPECT_EQ(k.controllers().at(0)->transfersStarted(), 2u);
    EXPECT_GE(k.controllers().at(0)->invalsApplied(), 1u)
        << "evictPage must Inval the destination latched on bufB";
    ASSERT_EQ(model.results.size(), 7u);
    EXPECT_EQ(model.results[0], 0x1111u);
    EXPECT_EQ(model.results[2], 1u) << "cleanPage refused";
    EXPECT_EQ(model.results[4], 1u) << "evictPage refused";
    EXPECT_EQ(model.results[5], 0x2222u) << "swap-in lost the data";
}
