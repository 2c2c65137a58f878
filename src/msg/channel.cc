#include "msg/channel.hh"

#include "core/udma_lib.hh"
#include "os/kernel.hh"

namespace shrimp::msg
{

// --------------------------------------------------------------------
// SenderChannel
// --------------------------------------------------------------------

sim::Task<bool>
SenderChannel::connect(ChannelRendezvous &rv)
{
    slotBytes_ = rv.slotBytes;
    slots_ = rv.slots;

    // Export the credit word's page so the receiver can bind it for
    // automatic update; initialize it to "nothing consumed".
    creditVa_ = co_await ctx_.sysAllocMemory(ctx_.pageBytes());
    co_await ctx_.store(creditVa_, 0);
    auto pages =
        co_await core::sysExportRange(ctx_, creditVa_, 8);
    rv.creditPagePaddr = pages.front();
    rv.creditExported = true;

    // A small staging buffer for the 16-byte slot header.
    headerBuf_ = co_await ctx_.sysAllocMemory(ctx_.pageBytes());
    co_await ctx_.store(headerBuf_, 0);

    // Wait for the receiver's ring, then map it through the NIPT.
    while (!rv.dataExported)
        co_await ctx_.compute(500);
    std::vector<Addr> ring_pages = rv.dataPages;
    ringProxy_ = co_await core::sysMapRemoteRange(
        ctx_, dev_, ni_, peer_, std::move(ring_pages));
    co_return ringProxy_ != 0;
}

sim::Task<std::uint64_t>
SenderChannel::unacked()
{
    std::uint64_t consumed = co_await ctx_.load(creditVa_);
    co_return seq_ - consumed;
}

sim::Task<bool>
SenderChannel::send(Addr src_va, std::uint32_t len)
{
    if (len > slotBytes_ - 16 || ringProxy_ == 0)
        co_return false;

    // Flow control: spin on the credit word the receiver keeps
    // updated via automatic update (ordinary local loads).
    co_await ctx_.pollUntil(creditVa_, [this](std::uint64_t consumed) {
        return seq_ - consumed < slots_;
    });

    Addr slot = ringProxy_ + (seq_ % slots_) * slotBytes_;

    // Payload first...
    if (len > 0) {
        co_await core::udmaTransfer(ctx_, dev_, slot, src_va, len,
                                    /*wait_completion=*/true);
    }
    // ...then the header, whose trailing seq word is the receiver's
    // arrival signal. Written via a 16-byte deliberate update from
    // the staging buffer.
    co_await ctx_.store(headerBuf_, len);
    co_await ctx_.store(headerBuf_ + 8, seq_ + 1);
    co_await core::udmaTransfer(ctx_, dev_,
                                slot + slotBytes_ - 16, headerBuf_,
                                16, /*wait_completion=*/true);
    ++seq_;
    co_return true;
}

// --------------------------------------------------------------------
// ReceiverChannel
// --------------------------------------------------------------------

sim::Task<bool>
ReceiverChannel::bind(ChannelRendezvous &rv)
{
    slotBytes_ = rv.slotBytes;
    slots_ = rv.slots;

    // The ring itself, exported for the sender's deliberate updates.
    ringVa_ = co_await ctx_.sysAllocMemory(rv.ringBytes());
    rv.dataPages =
        co_await core::sysExportRange(ctx_, ringVa_, rv.ringBytes());
    rv.dataExported = true;

    // The acknowledgment path: a local mirror page whose stores the
    // NI snoops and propagates into the sender's credit word.
    creditMirror_ = co_await ctx_.sysAllocMemory(ctx_.pageBytes());
    while (!rv.creditExported)
        co_await ctx_.compute(500);
    bool ok = co_await core::sysMapAutoUpdate(
        ctx_, ni_, creditMirror_, peer_, rv.creditPagePaddr);
    co_return ok;
}

sim::Task<Addr>
ReceiverChannel::recvZeroCopy(std::uint32_t &len_out)
{
    Addr slot = ringVa_ + (rseq_ % slots_) * slotBytes_;
    // Wait for this slot's sequence number.
    co_await core::pollWord(ctx_, slot + slotBytes_ - 8, rseq_ + 1);
    len_out =
        std::uint32_t(co_await ctx_.load(slot + slotBytes_ - 16));
    co_return slot;
}

sim::Task<std::uint64_t>
ReceiverChannel::ackLast()
{
    ++rseq_;
    // One ordinary store; the automatic-update snooper does the rest.
    co_await ctx_.store(creditMirror_, rseq_);
    co_return rseq_;
}

sim::Task<std::uint32_t>
ReceiverChannel::recv(Addr dst_va, std::uint32_t max_len)
{
    std::uint32_t len = 0;
    Addr slot = co_await recvZeroCopy(len);
    std::uint32_t n = std::min(len, max_len);
    // Word-by-word copy out of the ring (user-level loads/stores).
    for (std::uint32_t off = 0; off < n; off += 8) {
        std::uint64_t w = co_await ctx_.load(slot + off);
        co_await ctx_.store(dst_va + off, w);
    }
    co_await ackLast();
    co_return len;
}

} // namespace shrimp::msg
