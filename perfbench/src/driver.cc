/**
 * @file
 * The benchmark driver: runs one workload for a fixed host-time
 * budget and writes everything it measured as one JSON document.
 * `perfbench/run.py` builds this program, invokes it, checks its
 * output and prints the metrics; see perfbench/README.md.
 *
 *   perfbench_driver --workload=NAME --seed=N --seconds=S --trace=0|1
 *                    --out=FILE [--trace-file=FILE] [--stats-file=FILE]
 *
 * It builds each core::System itself through the library's public
 * API and times every phase from outside: construction, the channel
 * rendezvous under runSetup, the data phase, and destruction. Every
 * record's payload carries the sender's simulated send time and its
 * (source, sequence) id, so the receiver measures per-record
 * simulated latency and checks exactly-once, in-order delivery
 * without any help from the library.
 *
 * Workloads are closed loops: each user process waits for channel
 * credits (or, in the sweep, for completion) before its next send.
 * Inputs derive from --seed alone. One iteration is a whole
 * experiment; iterations repeat until --seconds of host time have
 * passed, and every iteration of a run must reproduce the first
 * one's simulated digest exactly.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/system.hh"
#include "core/udma_lib.hh"
#include "loglin_hist.hh"
#include "msg/channel.hh"
#include "shrimp/fault.hh"
#include "sim/json.hh"
#include "sim/params.hh"
#include "sim/profiler.hh"
#include "sim/trace_sink.hh"

using namespace shrimp;
using perfbench::LogLinHist;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

// ------------------------------------------------------------ inputs
//
// The benchmark keeps its own generator and hash rather than the
// library's, so its inputs and pinned digests never move when the
// library changes.

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** One pseudo-random word per (seed, stream, index). */
std::uint64_t
draw(std::uint64_t seed, std::uint64_t stream, std::uint64_t index)
{
    return splitmix(splitmix(seed ^ (stream << 40)) ^ index);
}

/** FNV-1a over 64-bit words. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    mix(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

/**
 * Record geometry of the channel workloads: 4032-4080 bytes, a
 * multiple of 8, so every record fills most of a 4 KB channel slot
 * and the seed still changes the simulated timing a little.
 */
std::uint32_t
recordLen(std::uint64_t seed, unsigned link, std::uint64_t seq)
{
    return 4080 - 8 * std::uint32_t(draw(seed, 1 + link, seq) % 7);
}

std::uint64_t
recordWord(std::uint64_t seed, unsigned link, std::uint64_t seq)
{
    return draw(seed, 1000 + link, seq);
}

std::uint64_t
recordId(unsigned src, std::uint64_t seq)
{
    return (std::uint64_t(src) << 32) | seq;
}

// ------------------------------------------------------------ output

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

// ------------------------------------------------------- measurement

/** Host wall time of one System's life, split by phase. */
struct HostPhases
{
    double ctor = 0;       ///< core::System constructor
    double rendezvous = 0; ///< spawning + runSetup channel setup
    double run = 0;        ///< runUntilAllDone + trailing drain
    double collect = 0;    ///< the benchmark reading results
    double dtor = 0;       ///< core::System destructor
    double outer = 0;      ///< separately clocked whole interval

    double total() const { return ctor + rendezvous + run + dtor; }

    void
    add(const HostPhases &o)
    {
        ctor += o.ctor;
        rendezvous += o.rendezvous;
        run += o.run;
        collect += o.collect;
        dtor += o.dtor;
        outer += o.outer;
    }
};

/** A simulated-time span around one record's send or receive. */
struct SimSpan
{
    const char *name = "";
    unsigned node = 0;
    std::uint64_t id = 0; ///< recordId(src, seq): shared by both ends
    Tick start = 0;
    Tick end = 0;
};

/** The engine's time budget for one traced data phase. */
struct ProfileOut
{
    double executeFrac = 0;
    double idleFrac = 0;
    double planFrac = 0;
    double drainFrac = 0;
    double accountedFrac = 0;
    double imbalance = 0;
    std::uint64_t spinWakes = 0;
    std::uint64_t futexSleeps = 0;
};

/** Everything one iteration produced. */
struct IterOut
{
    HostPhases host;
    bool traced = false;

    // Simulated results: identical for every iteration of one seed.
    Tick simTicks = 0;
    std::uint64_t simEvents = 0;
    std::uint64_t digest = 0;
    std::uint64_t dataDigest = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t payloadBytes = 0;
    double goodputMbS = 0;
    LogLinHist latency;
    LogLinHist sendTime;
    std::uint64_t windows = 0;
    std::uint64_t crossPosts = 0;
    std::vector<std::string> problems;

    // Traced iterations only. Host phase spans go on the trace's
    // wall-clock track 0 (the calling thread, which is shard 0),
    // per-record spans on one simulated-time track per node.
    std::unique_ptr<sim::TraceSink> trace;
    double hostSpanSum = 0; ///< seconds covered by host phase spans
    std::vector<std::string> statsDocs;

    /// Runs with several workers only.
    std::optional<ProfileOut> profile;
};

const Clock::time_point g_origin = Clock::now();

std::uint64_t
nsSinceOrigin(Clock::time_point t)
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_origin)
            .count());
}

/** Record one simulated-time span on @p s's node track. */
void
addSimSpan(sim::TraceSink &trace, const SimSpan &s)
{
    trace.simSlice("node" + std::to_string(s.node) + ".msg", s.name, s.start,
                   s.end, "src", s.id >> 32, "seq", s.id & 0xffffffffu);
}

/**
 * Clocks the phases of one System. Each phase is bracketed by its
 * own pair of clock reads, and the whole life by a separate outer
 * pair, so the traced run can check that the phases tile it.
 */
class PhaseClock
{
  public:
    explicit PhaseClock(IterOut &out) : out_(out), outer0_(Clock::now()) {}

    void begin() { t0_ = Clock::now(); }

    void
    end(double HostPhases::*slot, const char *name)
    {
        const auto t1 = Clock::now();
        const double s = secondsSince(t0_, t1);
        phases_.*slot += s;
        if (out_.trace) {
            out_.trace->workerSlice(0, name, nsSinceOrigin(t0_),
                                    nsSinceOrigin(t1));
            out_.hostSpanSum += s;
        }
    }

    /** Close the outer interval and fold into the iteration. */
    void
    finish()
    {
        phases_.outer = secondsSince(outer0_, Clock::now());
        out_.host.add(phases_);
    }

  private:
    IterOut &out_;
    Clock::time_point outer0_;
    Clock::time_point t0_;
    HostPhases phases_;
};

std::string
statsJson(core::System &sys)
{
    std::ostringstream os;
    sys.dumpStatsJson(os);
    return os.str();
}

ProfileOut
summarize(const sim::ShardProfiler &prof)
{
    ProfileOut p;
    const auto tot = prof.totals();
    const double acc = double(tot.accountedNs());
    if (acc > 0) {
        p.executeFrac = double(tot.executeNs) / acc;
        p.idleFrac = double(tot.idleNs) / acc;
        p.planFrac = double(tot.planNs + tot.syncNs) / acc;
        p.drainFrac = double(tot.drainNs) / acc;
    }
    p.accountedFrac = prof.accountedFraction();
    double sum = 0;
    double mx = 0;
    for (unsigned s = 0; s < prof.shards(); ++s) {
        const double e = double(prof.slot(s).executeNs);
        sum += e;
        mx = std::max(mx, e);
    }
    p.imbalance = sum > 0 ? mx / (sum / prof.shards()) : 0;
    p.spinWakes = prof.barrierSpinWakes();
    p.futexSleeps = prof.barrierFutexSleeps();
    return p;
}

// ------------------------------------------------- channel workloads

/** One streaming workload over user-level channels. */
struct StreamSpec
{
    unsigned nodes = 0;
    bool hotspot = false; ///< every node streams to node 0
    unsigned records = 0; ///< per link
    unsigned shards = 0;  ///< SystemConfig::shards
    sim::TopologyConfig topology;
    net::FaultConfig faults;
};

/** Per-link state, split so sender and receiver shards never share
 *  a cache line. */
struct alignas(64) SenderSide
{
    Tick started = 0;
    LogLinHist sendTime;
    std::vector<SimSpan> spans;
};

struct alignas(64) ReceiverSide
{
    Tick done = 0;
    std::uint64_t received = 0;
    std::uint64_t bad = 0;
    Fnv data;
    LogLinHist latency;
    std::vector<SimSpan> spans;
};

IterOut
runStream(const StreamSpec &spec, std::uint64_t seed, bool traced)
{
    IterOut out;
    out.traced = traced;
    if (traced)
        out.trace = std::make_unique<sim::TraceSink>(1);
    const Tick limit = Tick(300) * tickSec;

    core::SystemConfig cfg;
    cfg.nodes = spec.nodes;
    cfg.shards = spec.shards;
    cfg.node.memBytes = std::uint64_t(8) << 20;
    cfg.params.quantumUs = 200.0;
    cfg.node.devices.push_back(core::DeviceConfig{});
    cfg.topology = spec.topology;
    cfg.topology.specified = true;
    cfg.faults = spec.faults;
    cfg.faults.specified = true;

    struct Link
    {
        unsigned src;
        unsigned dst;
    };
    std::vector<Link> links;
    for (unsigned n = spec.hotspot ? 1 : 0; n < spec.nodes; ++n)
        links.push_back(Link{n, spec.hotspot ? 0 : (n + 1) % spec.nodes});
    const unsigned nlinks = unsigned(links.size());
    std::vector<msg::ChannelRendezvous> rv(nlinks);
    std::vector<SenderSide> tx(nlinks);
    std::vector<ReceiverSide> rx(nlinks);
    unsigned ready = 0; // written only under runSetup (sequential)
    const unsigned records = spec.records;

    PhaseClock clock(out);
    clock.begin();
    auto sys = std::make_unique<core::System>(cfg);
    clock.end(&HostPhases::ctor, "core.ctor");

    // Only a run with several workers has a time budget worth the
    // profiler: windows, barrier plan and wake-ups.
    std::unique_ptr<sim::ShardProfiler> prof;
    if (spec.shards > 1 && sys->engine()) {
        prof = std::make_unique<sim::ShardProfiler>(
            std::min(spec.shards, spec.nodes));
        sys->engine()->setProfiler(prof.get());
    }

    clock.begin();
    for (unsigned li = 0; li < nlinks; ++li) {
        core::Node *src_node = &sys->node(links[li].src);
        core::Node *dst_node = &sys->node(links[li].dst);
        const NodeId src_id = links[li].src;
        const NodeId dst_id = links[li].dst;

        dst_node->kernel().spawn(
            "recv" + std::to_string(li),
            [&, dst_node, src_id, li](os::UserContext &ctx)
                -> sim::ProcTask {
                ReceiverSide &me = rx[li];
                msg::ReceiverChannel ch(ctx, 0, *dst_node->ni(), src_id);
                if (!co_await ch.bind(rv[li]))
                    fatal("bind failed on link ", li);
                ++ready;
                for (std::uint64_t r = 0; r < records; ++r) {
                    const Tick r0 = ctx.kernel().eq().now();
                    std::uint32_t len = 0;
                    const Addr slot = co_await ch.recvZeroCopy(len);
                    const Tick stamp = co_await ctx.load(slot);
                    const std::uint64_t id = co_await ctx.load(slot + 8);
                    const std::uint64_t word =
                        len >= 24 ? co_await ctx.load(slot + len - 8) : 0;
                    const Tick r1 = ctx.kernel().eq().now();
                    co_await ch.ackLast();
                    if (len != recordLen(seed, li, r)
                        || id != recordId(src_id, r)
                        || word != recordWord(seed, li, r) || stamp > r1)
                        ++me.bad;
                    else
                        me.latency.record(r1 - stamp);
                    me.data.mix(id);
                    me.data.mix(len);
                    me.data.mix(word);
                    ++me.received;
                    if (traced) {
                        me.spans.push_back(SimSpan{"msg.recv", dst_node->id(),
                                                   recordId(src_id, r), r0, r1});
                    }
                }
                me.done = ctx.kernel().eq().now();
            });

        src_node->kernel().spawn(
            "send" + std::to_string(li),
            [&, src_node, src_id, dst_id, li](os::UserContext &ctx)
                -> sim::ProcTask {
                SenderSide &me = tx[li];
                msg::SenderChannel ch(ctx, 0, *src_node->ni(), dst_id);
                if (!co_await ch.connect(rv[li]))
                    fatal("connect failed on link ", li);
                const Addr buf = co_await ctx.sysAllocMemory(4096);
                co_await ctx.store(buf, 0);
                ++ready;
                me.started = ctx.kernel().eq().now();
                for (std::uint64_t r = 0; r < records; ++r) {
                    const std::uint32_t len = recordLen(seed, li, r);
                    co_await ctx.store(buf + 8, recordId(src_id, r));
                    co_await ctx.store(buf + len - 8, recordWord(seed, li, r));
                    const Tick t0 = ctx.kernel().eq().now();
                    co_await ctx.store(buf, t0);
                    if (!co_await ch.send(buf, len))
                        fatal("send refused on link ", li);
                    const Tick t1 = ctx.kernel().eq().now();
                    me.sendTime.record(t1 - t0);
                    if (traced) {
                        me.spans.push_back(SimSpan{"msg.send", src_node->id(),
                                                   recordId(src_id, r), t0, t1});
                    }
                }
            });
    }
    sys->runSetup([&] { return ready == 2 * nlinks; }, limit);
    clock.end(&HostPhases::rendezvous, "msg.rendezvous");

    clock.begin();
    if (prof)
        prof->beginRun();
    sys->runUntilAllDone(limit);
    sys->run(limit); // drain trailing credit and ack events
    if (prof)
        prof->endRun();
    clock.end(&HostPhases::run, "sim.run");

    clock.begin();
    out.simTicks = sys->simNow();
    out.simEvents = sys->simEvents();
    if (auto *eng = sys->engine()) {
        out.windows = eng->windows();
        out.crossPosts = eng->crossPosts();
    }
    Fnv sim;
    sim.mix(out.simTicks);
    sim.mix(out.simEvents);
    sim.mix(sys->net().bytesRouted());
    for (unsigned n = 0; n < spec.nodes; ++n) {
        auto &node = sys->node(n);
        auto *ni = node.ni();
        sim.mix(node.kernel().contextSwitches());
        sim.mix(ni->messagesSent());
        sim.mix(ni->messagesDelivered());
        sim.mix(ni->bytesDelivered());
        sim.mix(ni->lastDeliveryTick());
        sim.mix(ni->retransmits());
        sim.mix(ni->timeouts());
        sim.mix(ni->acksSent());
    }
    Fnv data;
    Tick first_start = maxTick;
    Tick last_done = 0;
    for (unsigned li = 0; li < nlinks; ++li) {
        for (std::uint64_t r = 0; r < records; ++r)
            out.payloadBytes += recordLen(seed, li, r);
        data.mix(rx[li].data.h);
        sim.mix(tx[li].started);
        sim.mix(rx[li].done);
        sim.mix(rx[li].latency.sum());
        sim.mix(tx[li].sendTime.sum());
        out.attempted += records;
        const std::uint64_t missing =
            records > rx[li].received ? records - rx[li].received : 0;
        out.failed += rx[li].bad + missing;
        if (rx[li].bad + missing) {
            out.problems.push_back(
                "link " + std::to_string(links[li].src) + "->"
                + std::to_string(links[li].dst) + ": "
                + std::to_string(rx[li].bad) + " bad, "
                + std::to_string(missing) + " missing records");
        }
        out.latency.merge(rx[li].latency);
        out.sendTime.merge(tx[li].sendTime);
        first_start = std::min(first_start, tx[li].started);
        last_done = std::max(last_done, rx[li].done);
        if (traced) {
            for (const SimSpan &span : tx[li].spans)
                addSimSpan(*out.trace, span);
            for (const SimSpan &span : rx[li].spans)
                addSimSpan(*out.trace, span);
        }
    }
    out.digest = sim.h;
    out.dataDigest = data.h;
    if (last_done > first_start) {
        out.goodputMbS = double(out.payloadBytes)
                         / ticksToSeconds(last_done - first_start)
                         / double(1 << 20);
    }
    if (traced)
        out.statsDocs.push_back(statsJson(*sys));
    if (prof)
        out.profile = summarize(*prof);
    clock.end(&HostPhases::collect, "bench.collect");

    clock.begin();
    sys.reset();
    clock.end(&HostPhases::dtor, "core.dtor");
    clock.finish();
    return out;
}

// ------------------------------------------------------ paper sweep

/** Figure 8's message sizes (bench/fig8_bandwidth uses the same). */
const std::vector<std::uint32_t> kFig8Sizes = {
    64,   128,  256,  512,  768,  1024, 1536, 2048,  3072,
    4096, 4160, 4608, 5120, 6144, 7168, 8192, 12288, 16384,
    24576, 32768, 65536,
};

/** Sized variants per Figure 8 point: the exact size plus jittered
 *  neighbours, so the sweep carries enough latency samples. */
constexpr unsigned kSweepVariants = 4;

/** One message of @p bytes between two nodes, timed as the paper
 *  does: user-level send start to last byte visible at the receiver. */
struct MessageResult
{
    Tick sendStart = 0;
    Tick sendEnd = 0;
    Tick delivered = 0;
    std::uint64_t transfers = 0;
    bool dataOk = false;
};

MessageResult
timeMessage(std::uint32_t bytes, std::uint64_t id, std::uint64_t word,
            IterOut &out)
{
    core::SystemConfig cfg;
    cfg.nodes = 2;
    cfg.node.memBytes = 4 << 20;
    cfg.node.devices.push_back(core::DeviceConfig{});
    cfg.topology.specified = true;
    cfg.faults.specified = true;

    MessageResult res;
    const std::uint32_t pb = cfg.params.pageBytes;
    const std::uint64_t pages = (bytes + pb - 1) / pb;
    std::vector<Addr> rx_pages;
    bool exported = false;

    PhaseClock clock(out);
    clock.begin();
    auto sys = std::make_unique<core::System>(cfg);
    clock.end(&HostPhases::ctor, "core.ctor");

    clock.begin();
    auto &recv = sys->node(1);
    auto &send = sys->node(0);
    recv.kernel().spawn("receiver", [&](os::UserContext &ctx) -> sim::ProcTask {
        const Addr buf = co_await ctx.sysAllocMemory(pages * pb);
        rx_pages = co_await core::sysExportRange(ctx, buf, pages * pb);
        exported = true;
    });
    recv.ni()->setDeliveryCallback(
        [&](const net::Delivery &d) { res.delivered = d.deliveredTick; });
    bool mapped = false;
    send.kernel().spawn("sender", [&](os::UserContext &ctx) -> sim::ProcTask {
        const Addr buf = co_await ctx.sysAllocMemory(pages * pb);
        // Dirty every source page, then place the id and the check
        // word at the message's two ends.
        for (std::uint64_t p = 0; p < pages; ++p)
            co_await ctx.store(buf + p * pb, 0x1234);
        co_await ctx.store(buf, id);
        co_await ctx.store(buf + bytes - 8, word);
        while (!exported)
            co_await ctx.compute(500);
        const Addr proxy = co_await core::sysMapRemoteRange(
            ctx, 0, *send.ni(), recv.id(), rx_pages);
        // Warm the source proxy mappings: the paper measures the
        // steady state, not first-touch proxy faults.
        for (std::uint64_t p = 0; p < pages; ++p)
            co_await ctx.load(ctx.proxyAddr(buf + p * pb, 0));
        mapped = true;
        res.sendStart = ctx.kernel().eq().now();
        res.transfers = co_await core::udmaTransfer(ctx, 0, proxy, buf, bytes,
                                                    /*wait_completion=*/true);
        res.sendEnd = ctx.kernel().eq().now();
    });
    sys->runSetup([&] { return mapped; }, Tick(60) * tickSec);
    clock.end(&HostPhases::rendezvous, "msg.rendezvous");

    clock.begin();
    sys->runUntilAllDone(Tick(60) * tickSec);
    sys->run(); // drain trailing delivery events
    clock.end(&HostPhases::run, "sim.run");

    clock.begin();
    out.simEvents += sys->simEvents();
    out.simTicks += sys->simNow();
    auto word_at = [&](std::uint64_t off) {
        return recv.memory().read<std::uint64_t>(rx_pages.at(off / pb)
                                                 + off % pb);
    };
    res.dataOk = res.delivered > res.sendStart && word_at(0) == id
                 && word_at(bytes - 8) == word;
    if (out.traced)
        out.statsDocs.push_back(statsJson(*sys));
    clock.end(&HostPhases::collect, "bench.collect");

    clock.begin();
    sys.reset();
    clock.end(&HostPhases::dtor, "core.dtor");
    clock.finish();
    return res;
}

/** Section 8 initiation table: UDMA initiation and completion check
 *  against a local stream device, in the steady state. */
struct InitiationResult
{
    double initiateUs = 0;
    double statusCheckUs = 0;
};

InitiationResult
timeInitiation(IterOut &out)
{
    core::SystemConfig cfg;
    cfg.nodes = 1;
    cfg.node.memBytes = 4 << 20;
    core::DeviceConfig d;
    d.kind = core::DeviceKind::StreamSink;
    cfg.node.devices.push_back(d);
    cfg.topology.specified = true;
    cfg.faults.specified = true;

    InitiationResult res;
    PhaseClock clock(out);
    clock.begin();
    auto sys = std::make_unique<core::System>(cfg);
    clock.end(&HostPhases::ctor, "core.ctor");

    clock.begin();
    sys->node(0).kernel().spawn("udma", [&](os::UserContext &ctx) -> sim::ProcTask {
        const Addr buf = co_await ctx.sysAllocMemory(4096);
        co_await ctx.store(buf, 1);
        const Addr sinkva = co_await ctx.sysMapDeviceProxy(0, 0, 1, true);
        const Addr proxy = ctx.proxyAddr(buf, 0);
        co_await ctx.load(proxy);
        co_await ctx.load(sinkva);
        const Tick t0 = ctx.kernel().eq().now();
        co_await core::udmaInitiate(ctx, sinkva, proxy, 64);
        const Tick t1 = ctx.kernel().eq().now();
        co_await ctx.load(proxy);
        const Tick t2 = ctx.kernel().eq().now();
        res.initiateUs = ticksToUs(t1 - t0);
        res.statusCheckUs = ticksToUs(t2 - t1);
    });
    clock.end(&HostPhases::rendezvous, "msg.rendezvous");

    clock.begin();
    sys->runUntilAllDone();
    clock.end(&HostPhases::run, "sim.run");

    clock.begin();
    out.simEvents += sys->simEvents();
    out.simTicks += sys->simNow();
    if (out.traced)
        out.statsDocs.push_back(statsJson(*sys));
    clock.end(&HostPhases::collect, "bench.collect");

    clock.begin();
    sys.reset();
    clock.end(&HostPhases::dtor, "core.dtor");
    clock.finish();
    return res;
}

/** The paper's three quantitative anchors, as this model reproduces
 *  them. */
struct Anchors
{
    double initiateUs = 0;
    double pct512 = 0;  ///< % of max bandwidth at 512 B (paper: >50)
    double pct4096 = 0; ///< % of max bandwidth at 4 KB (paper: ~94)
    double maxMbS = 0;

    /** Largest relative error against 2.8 us, 50% and 94%, in %. */
    double
    errPct() const
    {
        return 100.0 * std::max({std::abs(initiateUs - 2.8) / 2.8,
                                 std::abs(pct512 - 50.0) / 50.0,
                                 std::abs(pct4096 - 94.0) / 94.0});
    }

    /** What "about 2.8 us", "exceeds 50%" and "~94%" admit. */
    bool
    pass() const
    {
        return std::abs(initiateUs - 2.8) <= 0.14 && pct512 > 50.0
               && std::abs(pct4096 - 94.0) <= 3.0;
    }
};

double
bandwidth(std::uint32_t bytes, const MessageResult &m)
{
    return double(bytes) / ticksToUs(m.delivered - m.sendStart);
}

Anchors
measureAnchors()
{
    IterOut scratch;
    Anchors a;
    a.initiateUs = timeInitiation(scratch).initiateUs;
    const double max_bw = bandwidth(65536, timeMessage(65536, 1, 2, scratch));
    a.maxMbS = max_bw * 1e6 / double(1 << 20);
    a.pct512 = 100.0 * bandwidth(512, timeMessage(512, 1, 2, scratch)) / max_bw;
    a.pct4096 =
        100.0 * bandwidth(4096, timeMessage(4096, 1, 2, scratch)) / max_bw;
    return a;
}

IterOut
runSweep(std::uint64_t seed, bool traced)
{
    IterOut out;
    out.traced = traced;
    if (traced)
        out.trace = std::make_unique<sim::TraceSink>(1);
    const auto outer0 = Clock::now();
    Fnv sim;
    Fnv data;
    double bytes_total = 0;
    double us_total = 0;

    // The seed fixes the jitter of each variant and the order in
    // which the sizes run (each System is independent, so order must
    // not matter).
    struct Item
    {
        std::uint32_t bytes;
        std::uint64_t id;
    };
    std::vector<Item> items;
    for (unsigned v = 0; v < kSweepVariants; ++v) {
        for (std::size_t i = 0; i < kFig8Sizes.size(); ++i) {
            const std::uint32_t base = kFig8Sizes[i];
            const std::uint64_t id = items.size();
            const std::uint32_t jitter =
                v == 0 ? 0
                       : 8 * std::uint32_t(draw(seed, 7, id) % (base / 256 + 2));
            items.push_back(Item{base + jitter, id});
        }
    }
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[draw(seed, 8, i) % i]);

    for (const Item &it : items) {
        const std::uint64_t word = draw(seed, 9, it.id);
        const MessageResult m = timeMessage(it.bytes, it.id, word, out);
        ++out.attempted;
        data.mix(it.id);
        data.mix(m.dataOk ? word : ~word);
        if (!m.dataOk) {
            ++out.failed;
            out.problems.push_back("message " + std::to_string(it.id) + " of "
                                   + std::to_string(it.bytes)
                                   + " bytes not delivered intact");
            continue;
        }
        const Tick lat = m.delivered - m.sendStart;
        out.latency.record(lat);
        out.sendTime.record(m.sendEnd - m.sendStart);
        out.payloadBytes += it.bytes;
        bytes_total += it.bytes;
        us_total += ticksToUs(lat);
        sim.mix(it.bytes);
        sim.mix(lat);
        sim.mix(m.sendEnd - m.sendStart);
        sim.mix(m.transfers);
        if (traced) {
            addSimSpan(*out.trace, SimSpan{"msg.send", 0, recordId(0, it.id),
                                           m.sendStart, m.sendEnd});
            addSimSpan(*out.trace, SimSpan{"ni.deliver", 1, recordId(0, it.id),
                                           m.sendStart, m.delivered});
        }
    }
    const InitiationResult init = timeInitiation(out);
    sim.mix(std::uint64_t(init.initiateUs * 1e6));
    sim.mix(std::uint64_t(init.statusCheckUs * 1e6));
    sim.mix(out.simEvents);
    out.digest = sim.h;
    out.dataDigest = data.h;
    out.goodputMbS = us_total > 0 ? bytes_total / us_total * 1e6 / (1 << 20) : 0;
    // Per-System clocks tile each System; the loop around them is the
    // benchmark's own bookkeeping.
    out.host.outer = secondsSince(outer0, Clock::now());
    return out;
}

// ------------------------------------------------------------ main

/** Longest timed phase a run may ask for. perfbench/run.py allows
 *  this plus a fixed margin for the work outside the timed phase. */
constexpr double kMaxSeconds = 60;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string out;
    std::string traceFile;
    std::string statsFile;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench_driver: " << why << "\n"
              << "usage: perfbench_driver --workload=NAME --seed=N "
                 "--seconds=S --trace=0|1 --out=FILE [--trace-file=FILE] "
                 "[--stats-file=FILE]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
            usage("bad argument '" + arg + "'");
        const std::string k = arg.substr(2, eq - 2);
        const std::string v = arg.substr(eq + 1);
        try {
            std::size_t used = 0;
            if (k == "workload") {
                a.workload = v;
            } else if (k == "seed") {
                a.seed = std::stoull(v, &used);
            } else if (k == "seconds") {
                a.seconds = std::stod(v, &used);
            } else if (k == "trace") {
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1");
                a.trace = v == "1";
            } else if (k == "out") {
                a.out = v;
            } else if (k == "trace-file") {
                a.traceFile = v;
            } else if (k == "stats-file") {
                a.statsFile = v;
            } else {
                usage("unknown option --" + k);
            }
            if (used != 0 && used != v.size())
                usage("bad number in '" + arg + "'");
        } catch (const std::logic_error &) {
            usage("bad number in '" + arg + "'");
        }
    }
    if (a.out.empty())
        usage("--out is required");
    if (!(a.seconds > 0 && a.seconds <= kMaxSeconds))
        usage("--seconds must be in (0, " + std::to_string(int(kMaxSeconds))
              + "]");
    return a;
}

void
writeHist(sim::JsonWriter &w, std::string_view key, const LogLinHist &h,
          double wanted_tail)
{
    const double tail = h.supportedPercentile(wanted_tail);
    w.key(key);
    w.beginObject();
    w.field("count", h.count());
    w.field("mean_us", h.mean() / double(tickUs));
    w.field("p50_us", h.percentile(50) / double(tickUs));
    w.field("tail_pct", tail);
    w.field("tail_us", h.percentile(tail) / double(tickUs));
    w.field("max_us", double(h.max()) / double(tickUs));
    w.endObject();
}

void
writeIter(sim::JsonWriter &w, const IterOut &it)
{
    w.beginObject();
    w.field("traced", it.traced);
    w.field("ctor_s", it.host.ctor);
    w.field("rendezvous_s", it.host.rendezvous);
    w.field("run_s", it.host.run);
    w.field("collect_s", it.host.collect);
    w.field("dtor_s", it.host.dtor);
    w.field("total_s", it.host.total());
    w.field("outer_s", it.host.outer);
    w.field("digest", hex(it.digest));
    w.endObject();
}

/** A parallel reference run: its host time, digest, engine counters
 *  and, when profiled, the engine's time budget. */
void
writeParallel(sim::JsonWriter &w, const IterOut &it, unsigned shards)
{
    w.beginObject();
    w.field("shards", shards);
    w.field("run_s", it.host.run);
    w.field("digest", hex(it.digest));
    w.field("windows", it.windows);
    w.field("cross_posts", it.crossPosts);
    if (it.profile) {
        const ProfileOut &p = *it.profile;
        w.field("execute_frac", p.executeFrac);
        w.field("idle_frac", p.idleFrac);
        w.field("barrier_plan_frac", p.planFrac);
        w.field("drain_frac", p.drainFrac);
        w.field("accounted_frac", p.accountedFrac);
        w.field("shard_imbalance", p.imbalance);
        w.field("spin_wakes", p.spinWakes);
        w.field("futex_sleeps", p.futexSleeps);
    }
    w.endObject();
}

/** The dumpStatsJson documents of one traced iteration, one per
 *  System, as a JSON array. */
void
writeStatsDocs(const std::string &path, const std::vector<std::string> &docs)
{
    std::ofstream f(path);
    f << "[\n";
    for (std::size_t i = 0; i < docs.size(); ++i)
        f << (i ? ",\n" : "") << docs[i];
    f << "]\n";
    if (!f)
        fatal("cannot write ", path);
}

/**
 * Spreads a single-threaded workload's iterations over every CPU the
 * process may use, one CPU per iteration in turn. On a shared host a
 * CPU's speed depends on what runs beside it; left to the scheduler,
 * one run can sit on a slow CPU throughout and the next on a fast
 * one. Taking turns gives every run the same mix. Threads inherit the
 * caller's mask, so a run with several workers must not be pinned.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed_))
                cpus_.push_back(c);
    }

    ~CpuRotation() { unpin(); }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void
    pin(std::size_t turn)
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[turn % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

    /** Back to every CPU the process started with. */
    void unpin() { sched_setaffinity(0, sizeof allowed_, &allowed_); }

  private:
    cpu_set_t allowed_{};
    std::vector<int> cpus_;
};

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    // A fixed mmap threshold: glibc otherwise raises it after the
    // first large free, so node memories of the first System come
    // from fresh pages and later ones from a recycled heap, and
    // construction time would depend on how many Systems the process
    // built before. Every System now starts from fresh pages, as it
    // does in a simulator process that builds one.
    mallopt(M_MMAP_THRESHOLD, 1 << 20);

    // The default engine is whatever the library defaults to. The
    // mesh workload times the sharded engine at one worker: with more,
    // nearly every window ends in a futex wake-up of a halted vCPU,
    // and on a shared host that wake-up latency alone moved run_s
    // 1.2-4.7 s from minute to minute. Its parallel run (half the
    // CPUs, at least 2, at most 4) is made once per invocation
    // outside the timed iterations, as the shard-invariance reference
    // and for the traced run's multi-worker figures.
    const unsigned default_shards = core::SystemConfig{}.shards;
    const unsigned par_shards =
        std::min(4u, std::max(2u, core::hostCoreCount() / 2));

    std::optional<StreamSpec> stream;
    if (args.workload == "ring64_seq" || args.workload == "mesh64_sharded") {
        stream = StreamSpec{};
        stream->nodes = 64;
        stream->records = 48;
        stream->shards = default_shards;
        if (args.workload == "mesh64_sharded") {
            stream->shards = 1;
            std::ostringstream err;
            if (!sim::parseTopologySpec("mesh:8x8", stream->topology, &err))
                fatal("mesh spec: ", err.str());
        }
    } else if (args.workload == "hotspot16_lossy") {
        stream = StreamSpec{};
        stream->nodes = 16;
        stream->hotspot = true;
        stream->records = 64;
        stream->shards = default_shards;
        std::ostringstream err;
        if (!net::parseFaultSpec("drop=0.05,corrupt=0.02,seed="
                                     + std::to_string(args.seed),
                                 stream->faults, &err))
            fatal("fault spec: ", err.str());
    } else if (args.workload != "paper_sweep") {
        usage("unknown workload '" + args.workload + "'");
    }

    auto iterate = [&](bool traced) {
        return stream ? runStream(*stream, args.seed, traced)
                      : runSweep(args.seed, traced);
    };

    try {
        // Timed iterations. A traced run alternates untraced and
        // traced iterations so it can state its own overhead.
        std::vector<IterOut> iters;
        const bool sequential = !stream || stream->shards <= 1;
        CpuRotation rotation;
        const auto t0 = Clock::now();
        while (iters.size() < (args.trace ? 2u : 1u)
               || secondsSince(t0, Clock::now()) < args.seconds) {
            const bool traced = args.trace && iters.size() % 2 == 1;
            if (traced) {
                // Keep only the last traced iteration's bulky parts.
                for (IterOut &prev : iters) {
                    prev.statsDocs.clear();
                    prev.trace.reset();
                }
            }
            // A traced run keeps each untraced/traced pair on one CPU.
            if (sequential)
                rotation.pin(args.trace ? iters.size() / 2 : iters.size());
            iters.push_back(iterate(traced));
        }
        const double measured_s = secondsSince(t0, Clock::now());
        // Read before any reference run, so the figure is the
        // workload's own.
        const double peak_rss_mb = peakRssMb();
        rotation.unpin();

        // Everything below runs outside the timed iterations.
        const Anchors anchors = measureAnchors();
        // References: a parallel run's simulated digest must equal the
        // one-worker run's; a traced run takes its speedup against the
        // faster of the one-worker median and the default engine.
        std::optional<IterOut> par_ref;
        std::optional<IterOut> default_ref;
        if (args.workload == "mesh64_sharded") {
            StreamSpec par = *stream;
            par.shards = par_shards;
            par_ref = runStream(par, args.seed, false);
            if (args.trace) {
                StreamSpec dflt = *stream;
                dflt.shards = default_shards;
                default_ref = runStream(dflt, args.seed, false);
            }
        }

        const IterOut &first = iters.front();
        const IterOut *last_traced = nullptr;
        for (const IterOut &it : iters)
            if (it.traced)
                last_traced = &it;

        struct Check
        {
            std::string name;
            bool ok;
            std::string detail;
        };
        std::vector<Check> checks;
        std::uint64_t attempted = 0;
        std::uint64_t failed = 0;
        bool deterministic = true;
        for (const IterOut &it : iters) {
            attempted += it.attempted;
            failed += it.failed;
            if (it.digest != first.digest)
                deterministic = false;
        }
        std::string problems;
        for (const auto &p : first.problems)
            problems += (problems.empty() ? "" : "; ") + p;
        checks.push_back({"exactly_once", failed == 0,
                          failed == 0
                              ? "every record delivered once, in order, intact"
                              : problems});
        checks.push_back({"deterministic", deterministic,
                          "every iteration reproduced the first one's "
                          "simulated digest"});
        checks.push_back({"paper_anchors", anchors.pass(),
                          "initiation ~2.8 us, >50% of max at 512 B, ~94% at "
                          "4 KB"});
        if (par_ref) {
            checks.push_back({"parallel_digest", par_ref->digest == first.digest,
                              std::to_string(par_shards)
                                  + "-shard run's simulated digest equals the "
                                    "one-shard run's"});
        }
        if (last_traced) {
            const double cover = last_traced->hostSpanSum / last_traced->host.outer;
            checks.push_back({"host_spans_tile_total",
                              cover >= 0.99 && cover <= 1.0 + 1e-9,
                              "host phase spans cover " + std::to_string(cover)
                                  + " of the iteration's wall time"});
            if (par_ref) {
                const double acc =
                    par_ref->profile ? par_ref->profile->accountedFrac : 0;
                checks.push_back({"profiler_accounted", acc >= 0.95,
                                  "profiler buckets account for "
                                      + std::to_string(acc)
                                      + " of the parallel run's wall time"});
            }
        }

        std::ofstream f(args.out);
        sim::JsonWriter w(f);
        w.beginObject();
        w.field("workload", args.workload);
        w.field("seed", args.seed);
        w.field("trace", args.trace);
        w.field("shards", stream ? stream->shards : default_shards);
        w.field("default_shards", default_shards);
        w.field("host_cores", core::hostCoreCount());
        w.field("compiler", PERFBENCH_COMPILER);
        w.field("build_type", PERFBENCH_BUILD_TYPE);
        w.field("measured_s", measured_s);
        w.field("peak_rss_mb", peak_rss_mb);
        w.field("attempted", attempted);
        w.field("failed", failed);
        w.key("sim");
        w.beginObject();
        w.field("ticks", first.simTicks);
        w.field("events", first.simEvents);
        w.field("digest", hex(first.digest));
        w.field("data_digest", hex(first.dataDigest));
        w.field("payload_bytes", first.payloadBytes);
        w.field("goodput_mb_s", first.goodputMbS);
        w.field("windows", first.windows);
        w.field("cross_posts", first.crossPosts);
        writeHist(w, "latency", first.latency, 99);
        writeHist(w, "send", first.sendTime, 99);
        w.endObject();
        w.key("anchors");
        w.beginObject();
        w.field("initiate_us", anchors.initiateUs);
        w.field("pct_512", anchors.pct512);
        w.field("pct_4096", anchors.pct4096);
        w.field("max_mb_s", anchors.maxMbS);
        w.field("err_pct", anchors.errPct());
        w.endObject();
        w.key("references");
        w.beginObject();
        if (par_ref) {
            w.key("parallel");
            writeParallel(w, *par_ref, par_shards);
        }
        if (default_ref)
            w.field("default_run_s", default_ref->host.run);
        w.endObject();
        w.key("checks");
        w.beginArray();
        for (const Check &c : checks) {
            w.beginObject();
            w.field("name", c.name);
            w.field("ok", c.ok);
            w.field("detail", c.detail);
            w.endObject();
        }
        w.endArray();
        w.key("iterations");
        w.beginArray();
        for (const IterOut &it : iters)
            writeIter(w, it);
        w.endArray();
        w.endObject();
        w.finish();
        if (!f)
            fatal("cannot write ", args.out);

        if (last_traced && !args.statsFile.empty())
            writeStatsDocs(args.statsFile, last_traced->statsDocs);
        if (last_traced && !args.traceFile.empty()
            && !last_traced->trace->writeFile(args.traceFile))
            fatal("cannot write ", args.traceFile);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_driver: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
