/**
 * @file
 * A memory-mapped FIFO network interface: the Section 9 baseline
 * ("the controller has no DMA capability. Instead, the host processor
 * communicates with the network interface by reading or writing
 * special memory locations that correspond to the FIFOs").
 *
 * The device window (protected by the ordinary VM system, exactly as
 * in the paper's related work) exposes:
 *
 *   page 0: control/status registers
 *     0x00  W  DEST_NODE     destination of subsequent TX words
 *     0x08  R  TX_SPACE      words free in the outgoing FIFO
 *     0x10  R  RX_AVAIL      words available in the incoming FIFO
 *     0x18  R  RX_DATA       pop one word (0 if empty)
 *   page 1+: TX data window — every STORE enqueues one word
 *
 * Each reference is an uncached I/O-bus transaction, so long messages
 * pay one bus word-cycle per word — which is why the DMA-based
 * controller wins for long messages (burst mode), the paper's point.
 *
 * Words are 64-bit (we model the PIO datapath as matching the CPU's
 * widest uncached store); the DMA-vs-PIO crossover is insensitive to
 * this choice since burst mode is several times faster either way.
 */

#ifndef SHRIMP_BASELINE_FIFO_NIC_HH
#define SHRIMP_BASELINE_FIFO_NIC_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "bus/io_bus.hh"
#include "sim/event_queue.hh"
#include "sim/params.hh"
#include "sim/sharded.hh"
#include "sim/stats.hh"
#include "vm/layout.hh"

namespace shrimp::baseline
{

class FifoNic;

/**
 * The fabric connecting FifoNics (same link model as SHRIMP's
 * Interconnect: per-source injection serialization plus routing
 * latency). On a mesh/torus wiring the routing latency scales with
 * the dimension-order hop count; the whole route's latency is charged
 * at injection instead of modelling per-hop link arbitration.
 *
 * Per-node state (the NIC table and the injection-link horizons)
 * lives in dense vectors sized only in attach(), which runs during
 * single-threaded System construction; during a run each link slot
 * is touched only by the worker executing its owner.
 */
class FifoFabric
{
  public:
    FifoFabric(const sim::MachineParams &params,
               sim::TopologyConfig topo = {})
        : params_(params), topo_(topo)
    {}

    void
    attach(NodeId node, FifoNic *nic)
    {
        if (node >= nics_.size()) {
            nics_.resize(node + 1, nullptr);
            linkFreeAt_.resize(node + 1, 0);
        }
        SHRIMP_ASSERT(!nics_[node], "node already attached");
        nics_[node] = nic;
    }

    FifoNic *
    nic(NodeId node) const
    {
        SHRIMP_ASSERT(node < nics_.size() && nics_[node],
                      "no FIFO NIC for node ", node);
        return nics_[node];
    }

    /** Occupy @p src's injection link for @p bytes from @p now on;
     *  returns the tick the last byte leaves. Only the worker
     *  executing @p src may call this. */
    Tick
    acquireLink(NodeId src, std::uint64_t bytes, Tick now)
    {
        Tick &free_at = linkFreeAt_[src];
        free_at = std::max(now, free_at) + params_.linkTransfer(bytes);
        return free_at;
    }

    /** Routing latency of the whole src -> dst route (all hops). */
    Tick
    routeLatency(NodeId src, NodeId dst) const
    {
        return topo_.hops(src, dst) * params_.linkLatency();
    }

    /** Lower bound on any delivery from @p src to @p dst: one word
     *  serialized onto the injection link plus the route. Every
     *  cross-node post a FifoNic makes lands at least this far in
     *  its poster's future (the engine's lookahead contract). */
    Tick
    minDeliveryLatency(NodeId src, NodeId dst) const
    {
        return params_.linkTransfer(8) + routeLatency(src, dst);
    }

  private:
    const sim::MachineParams &params_;
    const sim::TopologyConfig topo_;
    std::vector<FifoNic *> nics_;
    std::vector<Tick> linkFreeAt_;
};

/**
 * One node's memory-mapped FIFO NIC.
 *
 * Flow control is by credits, never by reading a peer: a sender may
 * have at most one receive FIFO's worth of words outstanding toward
 * each destination, and the receiver returns a word's credit by post
 * when software pops it. Words travel as posted deliveries that run
 * on the receiver's own queue; words that find the FIFO full (several
 * senders converging) wait at the receiver's ejection port and enter
 * the FIFO as software drains it.
 */
class FifoNic : public bus::ProxyClient
{
  public:
    static constexpr Addr regDestNode = 0x00;
    static constexpr Addr regTxSpace = 0x08;
    static constexpr Addr regRxAvail = 0x10;
    static constexpr Addr regRxData = 0x18;

    FifoNic(sim::EventQueue &eq, const sim::MachineParams &params,
            NodeId node, bus::IoBus &io_bus, FifoFabric &fabric,
            sim::NodeRouter &router, unsigned device_index,
            std::uint32_t page_bytes);

    NodeId node() const { return node_; }
    unsigned deviceIndex() const { return deviceIndex_; }

    /** Window size to register with the kernel (control + TX pages). */
    std::uint64_t proxyExtentBytes() const { return 16 * pageBytes_; }

    // ProxyClient interface.
    std::uint64_t proxyLoad(const vm::Decoded &decoded,
                            Addr paddr) override;
    void proxyStore(const vm::Decoded &decoded, Addr paddr,
                    std::int64_t value) override;

    std::uint64_t wordsSent() const
    {
        return std::uint64_t(txWordsStat_.value());
    }
    std::uint64_t wordsReceived() const
    {
        return std::uint64_t(rxWordsStat_.value());
    }

  private:
    /** A received word and the node whose credit it holds. */
    struct RxWord
    {
        std::uint64_t word;
        NodeId src;
    };

    void pump();

    /** Receiver side: words from @p src reach the ejection port. */
    void rxDeliver(NodeId src, const std::vector<std::uint64_t> &words);

    /** Sender side: @p dst freed one word of its receive FIFO. */
    void creditReturned(NodeId dst);

    /** Words sent toward @p dst whose credit has not come back. */
    std::uint32_t &outstanding(NodeId dst);

    std::uint32_t fifoWords() const
    {
        return params_.niFifoBytes / 8;
    }

    sim::EventQueue &eq_;
    const sim::MachineParams &params_;
    NodeId node_;
    FifoFabric &fabric_;
    sim::NodeRouter &router_;
    unsigned deviceIndex_;
    std::uint32_t pageBytes_;

    NodeId destNode_ = 0;
    std::deque<std::uint64_t> txFifo_;
    std::deque<RxWord> rxFifo_;
    /** Arrived words waiting for room in rxFifo_. */
    std::deque<RxWord> ejectionPort_;
    /** Indexed by destination; grown by this NIC's own worker. */
    std::vector<std::uint32_t> outstanding_;
    bool pumpBusy_ = false;

    stats::Scalar txWordsStat_;
    stats::Scalar rxWordsStat_;
    stats::Scalar txOverflows_;
};

} // namespace shrimp::baseline

#endif // SHRIMP_BASELINE_FIFO_NIC_HH
