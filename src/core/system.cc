#include "core/system.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <ostream>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

#include "check/monitor.hh"
#include "sim/flight_recorder.hh"
#include "sim/json.hh"
#include "sim/span.hh"
#include "sim/trace.hh"

namespace shrimp::core
{

namespace
{

/**
 * The `--faults=` / `--topo=` / `--audit=` texts parseRunOptions saw,
 * awaiting the next System construction (every main parses its
 * options before it builds one).
 */
RunOptions g_pendingFlags;

/**
 * The one precedence rule of a run spec: a filled config field
 * (@p specified) wins and yields no text; otherwise the environment
 * variable @p env, when set and non-empty, beats the @p flag text.
 */
std::string
specText(bool specified, const char *env, const std::string &flag)
{
    if (specified)
        return {};
    const char *v = std::getenv(env);
    return v && *v ? std::string(v) : flag;
}

/**
 * Honour SHRIMP_TRACE=dma,vm,os,ni,bus,xfer (or "all"): enable those
 * trace categories on stderr. Lets every example and bench be traced
 * without recompilation.
 */
void
applyTraceEnv()
{
    const char *env = std::getenv("SHRIMP_TRACE");
    if (!env || !*env)
        return;
    if (!trace::applySpec(env, &std::cerr))
        std::cerr << "SHRIMP_TRACE: unknown category in '" << env
                  << "' (want dma,vm,os,ni,bus,xfer,net.fault or "
                     "all)\n";
}

} // namespace

Node::Node(System &sys, NodeId id, const SystemConfig &cfg,
           sim::EventQueue &eq)
    : id_(id)
{
    const auto &params = sys.params();
    const auto &layout = sys.layout();

    memory_ = std::make_unique<mem::PhysicalMemory>(
        cfg.node.memBytes, params.pageBytes);
    ioBus_ = std::make_unique<bus::IoBus>(eq, params);
    mmu_ = std::make_unique<vm::Mmu>(layout);
    kernel_ = std::make_unique<os::Kernel>(eq, params, layout,
                                           *memory_, *ioBus_, *mmu_);

    for (unsigned slot = 0; slot < cfg.node.devices.size(); ++slot) {
        const DeviceConfig &dc = cfg.node.devices[slot];
        slotKinds_.push_back(dc.kind);
        controllers_.emplace_back(nullptr);
        drivers_.emplace_back(nullptr);

        if (dc.kind == DeviceKind::FifoNic) {
            devices_.emplace_back(nullptr);
            fifoNic_ = std::make_unique<baseline::FifoNic>(
                eq, params, id, *ioBus_, sys.fifoFabric(), *sys.engine(),
                slot, params.pageBytes);
            kernel_->registerDeviceWindow(
                slot, fifoNic_->proxyExtentBytes());
            continue;
        }

        std::unique_ptr<dma::UdmaDevice> udev;
        switch (dc.kind) {
          case DeviceKind::ShrimpNi: {
            auto ni = std::make_unique<net::NetworkInterface>(
                eq, params, id, *memory_, *ioBus_, sys.net(),
                *sys.engine(), params.pageBytes);
            ni_ = ni.get();
            udev = std::move(ni);
            break;
          }
          case DeviceKind::FrameBuffer: {
            auto fb = std::make_unique<dev::FrameBuffer>(dc.fbWidth,
                                                         dc.fbHeight);
            fb_ = fb.get();
            udev = std::move(fb);
            break;
          }
          case DeviceKind::Disk: {
            auto disk =
                std::make_unique<dev::Disk>(params, dc.diskBytes);
            disk_ = disk.get();
            udev = std::move(disk);
            break;
          }
          case DeviceKind::StreamSink: {
            auto sink = std::make_unique<dev::StreamSink>(dc.sinkBytes);
            sink_ = sink.get();
            udev = std::move(sink);
            break;
          }
          case DeviceKind::FifoNic:
            break; // handled above
        }

        if (dc.driver == DriverKind::Udma) {
            controllers_[slot] = std::make_unique<dma::UdmaController>(
                eq, params, layout, *memory_, *ioBus_, *udev, slot,
                dc.queueDepth);
            kernel_->attachController(controllers_[slot].get());
            if (cfg.nodes > 1) {
                // Per-node span timelines (and Perfetto tracks).
                controllers_[slot]->setSpanOwner(
                    "node" + std::to_string(id) + ".udma"
                    + std::to_string(slot));
            }
        } else {
            drivers_[slot] =
                std::make_unique<baseline::TraditionalDmaDriver>(
                    eq, params, *memory_, *ioBus_, *udev);
        }
        devices_.push_back(std::move(udev));
    }

    // The SHRIMP board snoops the memory bus for automatic update.
    if (ni_) {
        auto *ni = ni_;
        kernel_->addStoreSnooper([ni](Addr paddr, std::uint64_t value) {
            return ni->snoopStore(paddr, value);
        });
    }
}

Node::~Node() = default;

dma::UdmaController *
Node::controller(unsigned device)
{
    return device < controllers_.size() ? controllers_[device].get()
                                        : nullptr;
}

baseline::TraditionalDmaDriver *
Node::tradDriver(unsigned device)
{
    return device < drivers_.size() ? drivers_[device].get() : nullptr;
}

int
Node::deviceIndexOf(DeviceKind kind) const
{
    for (unsigned i = 0; i < slotKinds_.size(); ++i) {
        if (slotKinds_[i] == kind)
            return int(i);
    }
    return -1;
}

RunSpecs
resolveRunSpecs(const SystemConfig &cfg, const RunOptions &flags,
                std::ostream *err)
{
    RunSpecs specs;
    specs.faults = cfg.faults;
    specs.topology = cfg.topology;
    const std::string faults =
        specText(cfg.faults.specified, "SHRIMP_FAULTS", flags.faultSpec);
    if (!faults.empty() && !net::parseFaultSpec(faults, specs.faults, err))
        specs.ok = false;
    const std::string topo =
        specText(cfg.topology.specified, "SHRIMP_TOPO", flags.topoSpec);
    if (!topo.empty()
        && !sim::parseTopologySpec(topo, specs.topology, err))
        specs.ok = false;
    specs.audit = specText(false, "SHRIMP_AUDIT", flags.auditSpec);
    return specs;
}

System::System(const SystemConfig &cfg)
    : cfg_(cfg), specs_(resolveRunSpecs(cfg, g_pendingFlags, &std::cerr)),
      layout_(cfg.node.memBytes, cfg.params.pageBytes,
              std::max<unsigned>(1, unsigned(cfg.node.devices.size()))),
      net_(cfg_.params, specs_.topology),
      fifoFabric_(cfg_.params, specs_.topology)
{
    if (cfg.nodes == 0)
        fatal("a system needs at least one node");
    if (cfg.shards < 1)
        fatal("SystemConfig::shards must be at least 1 (got 0)");
    // A non-flat grid that does not match the node count is a
    // configuration error, not something to silently pad: routing
    // math indexes the grid.
    const sim::TopologyConfig &topo = specs_.topology;
    if (!topo.flat() && topo.gridNodes() != cfg.nodes) {
        fatal("topology ", topo.describe(), " wires ", topo.gridNodes(),
              " nodes but the system has ", cfg.nodes);
    }
    applyTraceEnv();

    // The synchronization horizon comes from the fabrics: nothing
    // crosses nodes faster than the smallest packet's injection
    // serialization plus the route (DESIGN.md §10, §14); the engine
    // folds these per-pair floors into its shard-pair lookahead
    // matrix. A FIFO NIC's one-word packet undercuts the SHRIMP
    // header, so its floor joins only when one is configured.
    const bool fifo = std::any_of(
        cfg.node.devices.begin(), cfg.node.devices.end(),
        [](const DeviceConfig &dc) {
            return dc.kind == DeviceKind::FifoNic;
        });
    engine_ = std::make_unique<sim::ShardedEngine>(
        cfg.nodes, std::min(cfg.shards, cfg.nodes),
        sim::ShardedEngine::PairLookahead([this, fifo](NodeId s, NodeId d) {
            const Tick l = net_.minDeliveryLatency(s, d);
            return fifo ? std::min(l, fifoFabric_.minDeliveryLatency(s, d))
                        : l;
        }));

    for (unsigned i = 0; i < cfg.nodes; ++i)
        nodes_.push_back(
            std::make_unique<Node>(*this, i, cfg_, nodeEq(i)));

    if (specs_.faults.specified)
        net_.setFaults(specs_.faults);

    if (!specs_.audit.empty() && !enableAudit(specs_.audit)) {
        std::cerr << "audit: unknown mode '" << specs_.audit
                  << "' (want every-event, on-switch, at-barrier or "
                     "off)\n";
    }
}

System::~System() = default;

bool
System::enableAudit(const std::string &spec, bool fail_fast)
{
    audit::Mode mode;
    if (!audit::parseMode(spec, mode))
        return false;
    engine_->setBarrierHook({});
    auditor_.reset();
    if (mode == audit::Mode::Off)
        return true;
    // Per-event hooks on several workers would fire concurrently and
    // read other shards' state mid-window; audit where the world is
    // quiescent instead. One worker runs every hook on the calling
    // thread, so each mode is honoured as asked.
    if (engine_->shardCount() > 1)
        mode = audit::Mode::AtBarrier;
    auditor_ = std::make_unique<audit::Monitor>(*this, mode, fail_fast);
    if (mode == audit::Mode::AtBarrier) {
        engine_->setBarrierHook(
            [this] { auditor_->auditNow("window-barrier"); });
    }
    return true;
}

void
System::dumpStats(std::ostream &os)
{
    os << "sim.ticks " << simNow() << "\n";
    os << "sim.events " << simEvents() << "\n";
    os << "sim.events_dispatched " << simEventsDispatched() << "\n";
    os << "net.topology " << specs_.topology.describe() << "\n";
    os << "net.bytesRouted " << net_.bytesRouted() << "\n";
    {
        net::FaultCounters f = net_.faults().totals();
        os << "net.fault.decisions " << f.decisions << "\n";
        os << "net.fault.dropped " << f.dropped << "\n";
        os << "net.fault.corrupted " << f.corrupted << "\n";
        os << "net.fault.duplicated " << f.duplicated << "\n";
        os << "net.fault.delayed " << f.delayed << "\n";
        os << "net.fault.downDropped " << f.downDropped << "\n";
    }
    for (auto &np : nodes_) {
        Node &n = *np;
        std::string p = "node" + std::to_string(n.id()) + ".";
        auto &k = n.kernel();
        k.statGroup().dump(os, p);
        os << p << "swap.pageWrites "
           << k.backingStore().pageWrites() << "\n";
        os << p << "swap.pageReads " << k.backingStore().pageReads()
           << "\n";
        n.ioBus().statGroup().dump(os, p);
        os << p << "tlb.hits " << n.mmu().tlb().hits() << "\n";
        os << p << "tlb.misses " << n.mmu().tlb().misses() << "\n";
        for (auto *c : k.controllers()) {
            c->statGroup().dump(os, p);
            c->engineStatGroup().dump(
                os, p + c->statGroup().name() + ".");
        }
        if (auto *ni = n.ni())
            ni->statGroup().dump(os, p);
    }
}

void
System::dumpStatsJson(std::ostream &os)
{
    sim::JsonWriter w(os);
    w.beginObject();
    w.key("sim");
    w.beginObject();
    w.field("ticks", simNow());
    w.field("events", simEvents());
    w.field("events_dispatched", simEventsDispatched());
    w.endObject();
    w.key("net");
    w.beginObject();
    w.field("topology", specs_.topology.describe());
    w.field("bytesRouted", net_.bytesRouted());
    {
        net::FaultCounters f = net_.faults().totals();
        w.key("fault");
        w.beginObject();
        w.field("decisions", f.decisions);
        w.field("dropped", f.dropped);
        w.field("corrupted", f.corrupted);
        w.field("duplicated", f.duplicated);
        w.field("delayed", f.delayed);
        w.field("downDropped", f.downDropped);
        w.endObject();
    }
    w.endObject();
    w.key("nodes");
    w.beginArray();
    for (auto &np : nodes_) {
        Node &n = *np;
        auto &k = n.kernel();
        w.beginObject();
        w.field("id", std::uint64_t(n.id()));
        stats::JsonDumper d(w);
        k.statGroup().accept(d);
        w.key("swap");
        w.beginObject();
        w.field("pageWrites", k.backingStore().pageWrites());
        w.field("pageReads", k.backingStore().pageReads());
        w.endObject();
        n.ioBus().statGroup().accept(d);
        w.key("tlb");
        w.beginObject();
        w.field("hits", n.mmu().tlb().hits());
        w.field("misses", n.mmu().tlb().misses());
        w.endObject();
        for (auto *c : k.controllers()) {
            c->statGroup().accept(d);
            c->engineStatGroup().accept(d, c->statGroup().name() + ".");
        }
        if (auto *ni = n.ni())
            ni->statGroup().accept(d);
        w.endObject();
    }
    w.endArray();
    w.key("spans");
    span::registry().dumpJson(w, /*includeSpans=*/false);
    w.endObject();
    w.finish();
}

RunOptions
parseRunOptions(int &argc, char **argv)
{
    RunOptions opts;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--stats-json=", 0) == 0) {
            opts.statsJsonPath = arg.substr(std::strlen("--stats-json="));
            if (opts.statsJsonPath.empty()) {
                std::cerr << "--stats-json: empty path\n";
                opts.ok = false;
            }
            continue;
        }
        if (arg.rfind("--trace=", 0) == 0) {
            opts.traceSpec = arg.substr(std::strlen("--trace="));
            if (!trace::applySpec(opts.traceSpec, &std::cerr)) {
                std::cerr << "--trace: unknown category in '"
                          << opts.traceSpec
                          << "' (want dma,vm,os,ni,bus,xfer,net.fault "
                             "or all)\n";
                opts.ok = false;
            }
            continue;
        }
        if (arg.rfind("--faults=", 0) == 0) {
            opts.faultSpec = arg.substr(std::strlen("--faults="));
            if (!net::parseFaultSpec(opts.faultSpec, opts.faults,
                                     &std::cerr)) {
                opts.ok = false;
            } else {
                g_pendingFlags.faultSpec = opts.faultSpec;
            }
            continue;
        }
        if (arg.rfind("--topo=", 0) == 0) {
            opts.topoSpec = arg.substr(std::strlen("--topo="));
            if (!sim::parseTopologySpec(opts.topoSpec, opts.topology,
                                        &std::cerr)) {
                opts.ok = false;
            } else {
                g_pendingFlags.topoSpec = opts.topoSpec;
            }
            continue;
        }
        if (arg.rfind("--audit=", 0) == 0) {
            opts.auditSpec = arg.substr(std::strlen("--audit="));
            audit::Mode mode;
            if (!audit::parseMode(opts.auditSpec, mode)) {
                std::cerr << "--audit: unknown mode '" << opts.auditSpec
                          << "' (want every-event, on-switch, "
                             "at-barrier or off)\n";
                opts.ok = false;
            } else {
                g_pendingFlags.auditSpec = opts.auditSpec;
            }
            continue;
        }
        if (arg.rfind("--profile=", 0) == 0) {
            opts.profilePath = arg.substr(std::strlen("--profile="));
            if (opts.profilePath.empty()) {
                std::cerr << "--profile: empty path\n";
                opts.ok = false;
            } else {
                // A profiled run is a diagnostic run: make failures
                // produce their flight-recorder post-mortem too.
                sim::FlightRecorder::setDumpOnPanic(true);
            }
            continue;
        }
        if (arg.rfind("--shards=", 0) == 0) {
            std::string spec = arg.substr(std::strlen("--shards="));
            char *end = nullptr;
            const unsigned long n =
                std::strtoul(spec.c_str(), &end, 10);
            if (spec == "auto") {
                opts.shardsAuto = true;
            } else if (spec.empty()
                       || !std::isdigit((unsigned char)spec[0]) || *end
                       || n == 0 || n > 0xffffffffUL) {
                std::cerr << "--shards: want N >= 1 or 'auto', got '"
                          << spec << "'\n";
                opts.ok = false;
            } else {
                opts.shards = unsigned(n);
            }
            continue;
        }
        argv[out++] = argv[i];
    }
    argc = out;
    // SHRIMP_TOPO has to resolve *here* too, not only in the System:
    // workloads that pin their SystemConfig topology from these
    // options (ring.cc sets specified=true so a default-constructed
    // config stays crossbar regardless of the environment) would
    // otherwise never see it. A --topo= already filled opts.topology,
    // so here the flag wins; faults are marked filled so only the
    // topology is resolved.
    SystemConfig pinned;
    pinned.topology = opts.topology;
    pinned.faults.specified = true;
    const RunSpecs env = resolveRunSpecs(pinned, RunOptions{}, &std::cerr);
    opts.topology = env.topology;
    opts.ok = opts.ok && env.ok;
    return opts;
}

unsigned
hostCoreCount()
{
#ifdef __linux__
    cpu_set_t mask;
    if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
        const int n = CPU_COUNT(&mask);
        if (n > 0)
            return unsigned(n);
    }
#endif
    return std::max(1u, std::thread::hardware_concurrency());
}

unsigned
resolveShards(const RunOptions &opts, unsigned nodes)
{
    if (opts.shardsAuto)
        return std::min(nodes, hostCoreCount());
    return std::min(opts.shards, nodes);
}

void
writeStatsJson(System &sys, const RunOptions &opts)
{
    if (opts.statsJsonPath.empty())
        return;
    std::ofstream out(opts.statsJsonPath);
    if (!out) {
        std::cerr << "cannot write " << opts.statsJsonPath << "\n";
        return;
    }
    sys.dumpStatsJson(out);
}

Tick
System::runUntilAllDone(Tick limit)
{
    auto all_done = [this] {
        for (auto &n : nodes_) {
            if (!n->kernel().allProcessesDone())
                return false;
        }
        return true;
    };
    Tick t = runUntil(all_done, limit);
    for (auto &n : nodes_)
        n->kernel().rethrowProcessFailures();
    return t;
}

} // namespace shrimp::core
