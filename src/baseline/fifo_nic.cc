#include "baseline/fifo_nic.hh"

namespace shrimp::baseline
{

FifoNic::FifoNic(sim::EventQueue &eq, const sim::MachineParams &params,
                 NodeId node, bus::IoBus &io_bus, FifoFabric &fabric,
                 sim::NodeRouter &router, unsigned device_index,
                 std::uint32_t page_bytes)
    : eq_(eq), params_(params), node_(node), fabric_(fabric),
      router_(router), deviceIndex_(device_index), pageBytes_(page_bytes)
{
    io_bus.attach(device_index, this);
    fabric.attach(node, this);
}

std::uint64_t
FifoNic::proxyLoad(const vm::Decoded &decoded, Addr paddr)
{
    (void)paddr;
    if (decoded.space != vm::Space::DevProxy)
        return 0; // the FIFO NIC has no memory proxy semantics
    if (decoded.offset >= pageBytes_)
        return 0; // loads from the TX window are meaningless

    switch (decoded.offset) {
      case regTxSpace:
        return fifoWords() - txFifo_.size();
      case regRxAvail:
        return rxFifo_.size();
      case regRxData: {
        if (rxFifo_.empty())
            return 0;
        const RxWord w = rxFifo_.front();
        rxFifo_.pop_front();
        ++rxWordsStat_;
        if (!ejectionPort_.empty()) {
            rxFifo_.push_back(ejectionPort_.front());
            ejectionPort_.pop_front();
        }
        // The freed slot's credit travels back like any packet.
        router_.post(node_, w.src,
                     eq_.now() + fabric_.minDeliveryLatency(node_, w.src),
                     "fifonic.credit",
                     [peer = fabric_.nic(w.src), me = node_] {
                         peer->creditReturned(me);
                     },
                     sim::EventPriority::DeviceCompletion);
        return w.word;
      }
      default:
        return 0;
    }
}

void
FifoNic::proxyStore(const vm::Decoded &decoded, Addr paddr,
                    std::int64_t value)
{
    (void)paddr;
    if (decoded.space != vm::Space::DevProxy)
        return;
    if (decoded.offset < pageBytes_) {
        // Control page.
        if (decoded.offset == regDestNode)
            destNode_ = NodeId(value);
        return;
    }
    // TX data window: enqueue one word. A store into a full FIFO is
    // dropped (and counted); correct software checks TX_SPACE first.
    if (txFifo_.size() >= fifoWords()) {
        ++txOverflows_;
        return;
    }
    txFifo_.push_back(std::uint64_t(value));
    ++txWordsStat_;
    pump();
}

std::uint32_t &
FifoNic::outstanding(NodeId dst)
{
    if (dst >= outstanding_.size())
        outstanding_.resize(dst + 1, 0);
    return outstanding_[dst];
}

void
FifoNic::rxDeliver(NodeId src, const std::vector<std::uint64_t> &words)
{
    for (std::uint64_t w : words) {
        if (rxFifo_.size() < fifoWords() && ejectionPort_.empty())
            rxFifo_.push_back(RxWord{w, src});
        else
            ejectionPort_.push_back(RxWord{w, src});
    }
}

void
FifoNic::creditReturned(NodeId dst)
{
    --outstanding(dst);
    // A pump stalled on credits resumes; a busy one picks the credit
    // up when its wire transaction ends.
    if (!pumpBusy_)
        pump();
}

void
FifoNic::pump()
{
    if (pumpBusy_ || txFifo_.empty())
        return;
    const NodeId dest = destNode_;
    FifoNic *peer = fabric_.nic(dest);
    std::uint32_t &out = outstanding(dest);
    // Drain up to 8 words per wire transaction, within the credits.
    const std::uint32_t n = std::uint32_t(std::min<std::size_t>(
        {txFifo_.size(), 8, fifoWords() - out}));
    if (n == 0)
        return; // out of credits: creditReturned() resumes the pump
    out += n;
    std::vector<std::uint64_t> words(txFifo_.begin(),
                                     txFifo_.begin() + n);
    txFifo_.erase(txFifo_.begin(), txFifo_.begin() + n);
    const Tick injected = fabric_.acquireLink(node_, n * 8ull, eq_.now());
    pumpBusy_ = true;
    router_.post(node_, dest, injected + fabric_.routeLatency(node_, dest),
                 "fifonic.deliver",
                 [peer, src = node_, words = std::move(words)] {
                     peer->rxDeliver(src, words);
                 },
                 sim::EventPriority::DeviceCompletion);
    eq_.schedule(injected, "fifonic.pump", [this] {
        pumpBusy_ = false;
        pump();
    });
}

} // namespace shrimp::baseline
