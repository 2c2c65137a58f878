/**
 * @file
 * Cost of invariant I1's context-switch Inval.
 *
 * The kernel invalidates any partially-initiated (STORE-without-LOAD)
 * sequence on every context switch with a single STORE; a victimized
 * process simply retries (paper Sections 5/6, and the comparison with
 * Bershad's restartable atomic sequences in Section 9). This bench
 * runs a sender alongside compute-bound competitors while shrinking
 * the scheduler quantum, and reports the sender's achieved message
 * throughput, the number of context switches, hardware Invals applied,
 * and the messages delivered. Protection is preserved at every point;
 * only throughput degrades, down to a livelock once the quantum is
 * shorter than the initiation sequence. Each row is bounded in
 * simulated time, and the bench exits 1 if a row whose quantum is
 * longer than the initiation fails to deliver every message.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/system.hh"
#include "core/udma_lib.hh"

using namespace shrimp;
using namespace shrimp::core;

namespace
{

/** Simulated time each row may take: a row whose sender has not
 *  finished by then is livelocked (see the reading below). */
constexpr Tick rowLimit = tickSec / 10;

struct RunResult
{
    bool senderDone = false;
    double wall_us = 0;
    std::uint64_t switches = 0;
    std::uint64_t invals = 0;
    std::uint64_t transfers = 0;
    std::uint64_t delivered = 0;
    std::uint64_t initiations = 0; ///< user-level attempts
};

RunResult
run(double quantum_us, unsigned hogs, unsigned messages)
{
    sim::MachineParams params;
    params.quantumUs = quantum_us;

    SystemConfig cfg;
    cfg.nodes = 2;
    cfg.params = params;
    cfg.node.memBytes = 4 << 20;
    cfg.node.devices.push_back(DeviceConfig{});
    System sys(cfg);

    RunResult out;
    const std::uint32_t pb = params.pageBytes;

    struct Shared
    {
        std::vector<Addr> rxPages;
        bool exported = false;
        std::uint64_t delivered = 0;
    } shared;

    auto &recv = sys.node(1);
    recv.kernel().spawn(
        "receiver", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(pb);
            shared.rxPages = co_await sysExportRange(ctx, buf, pb);
            shared.exported = true;
        });
    recv.ni()->setDeliveryCallback(
        [&](const net::Delivery &) { ++shared.delivered; });

    auto &send = sys.node(0);
    bool sender_done = false;
    send.kernel().spawn(
        "sender", [&](os::UserContext &ctx) -> sim::ProcTask {
            Addr buf = co_await ctx.sysAllocMemory(pb);
            co_await ctx.store(buf, 1);
            while (!shared.exported)
                co_await ctx.compute(500);
            Addr proxy = co_await sysMapRemoteRange(
                ctx, 0, *send.ni(), recv.id(), shared.rxPages);
            co_await ctx.load(ctx.proxyAddr(buf, 0));
            Tick t0 = ctx.kernel().eq().now();
            for (unsigned m = 0; m < messages; ++m) {
                co_await udmaTransfer(ctx, 0, proxy, buf, pb, true);
            }
            out.wall_us = ticksToUs(ctx.kernel().eq().now() - t0);
            sender_done = true;
        });

    // Compute-bound competitors sharing the sender's CPU.
    for (unsigned h = 0; h < hogs; ++h) {
        send.kernel().spawn(
            "hog", [&](os::UserContext &ctx) -> sim::ProcTask {
                while (!sender_done)
                    co_await ctx.compute(2000);
            });
    }

    // The hogs spin until the sender is done, so a livelocked sender
    // keeps every process alive: both the run and the drain of
    // in-flight deliveries stop at the row's limit.
    sys.runUntilAllDone(rowLimit);
    sys.run(rowLimit);

    auto *ctrl = send.controller(0);
    out.senderDone = sender_done;
    out.delivered = shared.delivered;
    out.switches = send.kernel().contextSwitches();
    out.invals = ctrl->invalsApplied();
    out.transfers = ctrl->transfersStarted();
    // Each user-level initiation attempt performs exactly one LOAD;
    // completion/wait polling also LOADs, so report attempts as the
    // paper's retry discussion frames them: transfers vs. Invals.
    out.initiations = ctrl->statusLoads();
    bench::captureSystem(sys);
    if (auto *r = bench::BenchReport::active())
        r->recordLatencyUs(out.wall_us / (messages ? messages : 1));
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    auto opts = parseRunOptions(argc, argv);
    if (!opts.ok)
        return 2;
    bench::BenchReport report("ablation_ctxswitch", opts);

    constexpr unsigned messages = 16;
    std::printf("# I1 ablation: sender + 3 compute hogs on one node, "
                "%u x 4 KB messages, each row bounded at %.1f s "
                "simulated\n",
                messages, ticksToUs(rowLimit) / 1e6);
    std::printf("%12s %12s %10s %10s %10s %10s %12s\n", "quantum_us",
                "wall_us", "switches", "invals", "transfers",
                "delivered", "status_lds");
    // The last quanta are adversarial: at or below the 2.8 us
    // two-reference initiation sequence (Section 8) itself, so
    // switches land *between* the STORE and the LOAD and the I1 Inval
    // visibly fires.
    constexpr double initiationUs = 2.8;
    double shortest_complete = 0;
    unsigned failed = 0;
    for (double q : {10000.0, 2000.0, 500.0, 200.0, 100.0, 50.0, 5.0,
                     4.0, 3.0, 2.0}) {
        auto r = run(q, 3, messages);
        const bool complete = r.senderDone && r.delivered == messages;
        if (complete)
            shortest_complete = q;
        else if (q > initiationUs)
            ++failed;
        char wall[32] = "-";
        if (r.senderDone)
            std::snprintf(wall, sizeof wall, "%.0f", r.wall_us);
        char delivered[32];
        std::snprintf(delivered, sizeof delivered, "%llu/%u",
                      (unsigned long long)r.delivered, messages);
        std::printf("%12g %12s %10llu %10llu %10llu %10s %12llu\n", q,
                    wall, (unsigned long long)r.switches,
                    (unsigned long long)r.invals,
                    (unsigned long long)r.transfers, delivered,
                    (unsigned long long)r.initiations);
    }
    std::printf("\n# Reading: every message is delivered at quanta down "
                "to %g us (wall_us \"-\": the sender did not finish "
                "within the limit). While the quantum is longer than the "
                "%.1f us initiation, a switch rarely splits a STORE/LOAD "
                "pair, so the blanket Inval on every switch costs no "
                "retries: Section 9's argument against Bershad-style "
                "PC-range checks. Below it, every initiation is split "
                "and Invalidated and the sender livelocks; that is where "
                "the argument stops holding. Wall time is not monotone "
                "in the quantum: the sender's DMA transfers overlap the "
                "hogs' compute while it is descheduled.\n",
                shortest_complete, initiationUs);
    report.setParam("messages", double(messages));
    report.setParam("hogs", 3.0);
    report.write();
    if (failed) {
        std::printf("FAIL: %u row(s) with a quantum above the initiation "
                    "did not deliver every message\n",
                    failed);
        return 1;
    }
    return 0;
}
