/**
 * @file
 * Unit tests for the SHRIMP network interface: device-interface
 * semantics, packetization, flow control, and receive-side DMA.
 */

#include <gtest/gtest.h>

#include "../support/one_queue_router.hh"
#include "bus/io_bus.hh"
#include "mem/physical_memory.hh"
#include "shrimp/network_interface.hh"

using namespace shrimp;
using namespace shrimp::net;

namespace
{

struct NiPair : ::testing::Test
{
    sim::EventQueue eq;
    sim::MachineParams params;
    Interconnect net{params};
    mem::PhysicalMemory memA{1 << 20, 4096};
    mem::PhysicalMemory memB{1 << 20, 4096};
    bus::IoBus busA{eq, params};
    bus::IoBus busB{eq, params};
    testsupport::OneQueueRouter router{eq};
    NetworkInterface niA{eq, params, 0, memA, busA, net, router, 4096};
    NetworkInterface niB{eq, params, 1, memB, busB, net, router, 4096};

    /** Drive niA as the engine would: start a transfer and push. */
    void
    sendMessage(std::size_t nipt_idx, std::uint32_t bytes,
                std::uint8_t seed)
    {
        Addr dev_off = nipt_idx * 4096;
        ASSERT_EQ(niA.validateTransfer(true, dev_off, bytes), 0);
        niA.transferStarting(true, dev_off, bytes);
        std::vector<std::uint8_t> data(bytes);
        for (std::uint32_t i = 0; i < bytes; ++i)
            data[i] = std::uint8_t(seed + i);
        std::uint32_t pushed = 0;
        while (pushed < bytes) {
            std::uint32_t cap =
                niA.pushCapacity(dev_off + pushed, bytes - pushed);
            if (cap == 0) {
                ASSERT_TRUE(eq.step()) << "deadlock while pushing";
                continue;
            }
            niA.devicePush(dev_off + pushed, data.data() + pushed,
                           cap);
            pushed += cap;
        }
        niA.transferFinished(true, dev_off, bytes);
    }
};

} // namespace

TEST_F(NiPair, ValidatesDirectionAlignmentAndNipt)
{
    niA.nipt().set(0, 1, 16);
    EXPECT_EQ(niA.validateTransfer(true, 0, 256), 0);
    EXPECT_EQ(niA.validateTransfer(false, 0, 256),
              dma::device_error::direction)
        << "deliberate update is memory-to-device only";
    EXPECT_EQ(niA.validateTransfer(true, 2, 256),
              dma::device_error::alignment);
    EXPECT_EQ(niA.validateTransfer(true, 0, 255),
              dma::device_error::alignment);
    EXPECT_EQ(niA.validateTransfer(true, 4096, 256),
              dma::device_error::range)
        << "NIPT entry 1 is not programmed";
}

TEST_F(NiPair, BoundaryIsTheProxyPage)
{
    EXPECT_EQ(niA.deviceBoundary(0), 4096u);
    EXPECT_EQ(niA.deviceBoundary(100), 3996u);
    EXPECT_EQ(niA.deviceBoundary(4095), 1u);
}

TEST_F(NiPair, ExtentCovers32kPages)
{
    EXPECT_EQ(niA.proxyExtentBytes(), 32768ull * 4096);
}

TEST_F(NiPair, AllowProxyMapRequiresProgrammedEntries)
{
    niA.nipt().set(3, 1, 7);
    EXPECT_TRUE(niA.allowProxyMap(3, 1, true));
    EXPECT_FALSE(niA.allowProxyMap(3, 2, true));
}

TEST_F(NiPair, DeliversMessageIntoRemotePhysicalMemory)
{
    niA.nipt().set(0, /*node=*/1, /*page=*/16); // B's page 16
    sendMessage(0, 1024, 7);
    eq.run();
    for (std::uint32_t i = 0; i < 1024; ++i) {
        ASSERT_EQ(memB.read<std::uint8_t>(16 * 4096 + i),
                  std::uint8_t(7 + i));
    }
    EXPECT_EQ(niA.messagesSent(), 1u);
    EXPECT_EQ(niB.messagesDelivered(), 1u);
    EXPECT_EQ(niB.bytesDelivered(), 1024u);
}

TEST_F(NiPair, OffsetWithinPageIsPreserved)
{
    niA.nipt().set(0, 1, 16);
    Addr dev_off = 512; // offset 512 into NIPT page 0
    niA.transferStarting(true, dev_off, 8);
    std::uint8_t data[8] = {9, 8, 7, 6, 5, 4, 3, 2};
    niA.devicePush(dev_off, data, 8);
    niA.transferFinished(true, dev_off, 8);
    eq.run();
    EXPECT_EQ(memB.read<std::uint8_t>(16 * 4096 + 512), 9);
    EXPECT_EQ(memB.read<std::uint8_t>(16 * 4096 + 519), 2);
}

TEST_F(NiPair, MultipleMessagesArriveInOrder)
{
    niA.nipt().set(0, 1, 16);
    niA.nipt().set(1, 1, 17);
    sendMessage(0, 256, 1);
    sendMessage(1, 256, 101);
    eq.run();
    EXPECT_EQ(memB.read<std::uint8_t>(16 * 4096), 1);
    EXPECT_EQ(memB.read<std::uint8_t>(17 * 4096), 101);
    EXPECT_EQ(niB.messagesDelivered(), 2u);
}

TEST_F(NiPair, DeliveryCallbackCarriesTimestamps)
{
    niA.nipt().set(0, 1, 16);
    Delivery seen;
    niB.setDeliveryCallback([&](const Delivery &d) { seen = d; });
    Tick before = eq.now();
    sendMessage(0, 512, 3);
    eq.run();
    EXPECT_EQ(seen.srcNode, 0u);
    EXPECT_GT(seen.deliveredTick, before);
    EXPECT_GE(seen.deliveredTick, seen.senderStartTick);
}

TEST_F(NiPair, EndToEndLatencyIncludesPipelineStages)
{
    niA.nipt().set(0, 1, 16);
    Tick delivered = 0;
    niB.setDeliveryCallback(
        [&](const Delivery &d) { delivered = d.deliveredTick; });
    sendMessage(0, 256, 3);
    eq.run();
    // At least: link transfer + hop latency + rx dma start + rx burst
    // + completion visibility.
    Tick floor = params.linkTransfer(256) + params.linkLatency()
                 + params.rxDmaStart() + params.eisaBurst(256)
                 + params.rxCompletion();
    EXPECT_GE(delivered, floor);
}

TEST_F(NiPair, TxFifoBackpressuresWhenReceiverStalls)
{
    // Shrink the FIFOs so a 4 KB message cannot fit at once.
    // pushCapacity must clamp, and progress resumes as the pump
    // drains.
    niA.nipt().set(0, 1, 16);
    std::uint32_t cap0 = niA.pushCapacity(0, 1 << 20);
    EXPECT_EQ(cap0, params.niFifoBytes) << "empty FIFO accepts its size";
    niA.transferStarting(true, 0, 2 * params.niFifoBytes);
    std::vector<std::uint8_t> chunk(params.niFifoBytes, 0xEE);
    niA.devicePush(0, chunk.data(), params.niFifoBytes);
    EXPECT_EQ(niA.pushCapacity(0, 1024), 0u) << "FIFO full";
    // Let the pump drain a little; capacity must reappear.
    while (niA.pushCapacity(0, 1024) == 0) {
        ASSERT_TRUE(eq.step()) << "pump made no progress";
    }
    SUCCEED();
}

TEST_F(NiPair, RxSideUsesReceiversBus)
{
    niA.nipt().set(0, 1, 16);
    std::uint64_t bursts_before = busB.burstCount();
    sendMessage(0, 1024, 5);
    eq.run();
    EXPECT_GT(busB.burstCount(), bursts_before)
        << "receive-side EISA DMA shares the receiver's I/O bus";
    EXPECT_EQ(busA.burstCount(), 0u)
        << "this test bypassed A's engine, so A's bus stays quiet";
}
