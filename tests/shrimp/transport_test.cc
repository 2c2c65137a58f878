/**
 * @file
 * Unit tests for the selective-repeat transport primitives
 * (shrimp/transport.hh) and for the recovery behaviour they drive in
 * the NI: SACK bitmap round-trips, the Jacobson RTT estimator
 * converging onto a steady path, the AIMD slow-start/halving state
 * machine, and — on a real two-NI world — a dropped chunk being
 * repaired by dup-ack fast retransmit before the retransmit timer
 * ever fires (and by the timer once fast retransmit is mutated away).
 */

#include <gtest/gtest.h>

#include <vector>

#include "../support/one_queue_router.hh"
#include "bus/io_bus.hh"
#include "mem/physical_memory.hh"
#include "shrimp/fault.hh"
#include "shrimp/network_interface.hh"
#include "shrimp/transport.hh"

using namespace shrimp;
using namespace shrimp::net;

// ------------------------------------------------------------- SACK

TEST(Sack, EncodeDecodeRoundTrip)
{
    // cum = 10; 10..12 accepted in order, 15 and 40 buffered OOO.
    std::uint64_t bits = sackEncode(10, 13, {15, 40});
    std::vector<std::uint64_t> seqs = sackDecode(10, bits);
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{10, 11, 12, 15, 40}));
}

TEST(Sack, EmptyWindowEncodesToZero)
{
    EXPECT_EQ(sackEncode(7, 7, {}), 0u);
    EXPECT_TRUE(sackDecode(7, 0).empty());
}

TEST(Sack, SeqsOutsideTheWindowAreDropped)
{
    // 9 is below cum, 10+64 is past the bitmap: neither survives.
    std::uint64_t bits = sackEncode(10, 10, {9, 10 + sackWindow, 11});
    EXPECT_EQ(sackDecode(10, bits),
              (std::vector<std::uint64_t>{11}));
}

TEST(Sack, FullWindowRoundTrips)
{
    std::vector<std::uint64_t> all;
    for (unsigned i = 0; i < sackWindow; ++i)
        all.push_back(100 + i);
    std::uint64_t bits = sackEncode(100, 100, all);
    EXPECT_EQ(bits, ~std::uint64_t(0));
    EXPECT_EQ(sackDecode(100, bits), all);
}

// ----------------------------------------------------- RTT estimator

TEST(RttEstimator, FirstSampleSeedsSrttAndRttvar)
{
    RttEstimator e;
    EXPECT_FALSE(e.valid);
    e.sample(800);
    EXPECT_TRUE(e.valid);
    EXPECT_EQ(e.srtt, 800u);
    EXPECT_EQ(e.rttvar, 400u);
}

TEST(RttEstimator, ConvergesOntoASteadyPath)
{
    RttEstimator e;
    e.sample(4000); // wildly wrong first impression
    for (int i = 0; i < 100; ++i)
        e.sample(500);
    // srtt decays geometrically toward the true 500-tick path and
    // rttvar toward zero, so the implied RTO approaches the floor.
    EXPECT_NEAR(double(e.srtt), 500.0, 25.0);
    EXPECT_LT(e.rttvar, 50u);
    EXPECT_LT(e.rto(0, 1000000), 700u);
}

TEST(RttEstimator, RtoTracksVariance)
{
    RttEstimator jittery, steady;
    for (int i = 0; i < 50; ++i) {
        steady.sample(1000);
        jittery.sample(i % 2 ? 1800 : 200); // same mean, huge swings
    }
    EXPECT_GT(jittery.rto(0, 1u << 30), steady.rto(0, 1u << 30))
        << "srtt + 4 rttvar must widen with path variance";
}

TEST(RttEstimator, RtoClampsIntoTheConfiguredBand)
{
    RttEstimator e;
    e.sample(10);
    EXPECT_EQ(e.rto(5000, 320000), 5000u) << "floor applies";
    RttEstimator slow;
    slow.sample(1000000);
    EXPECT_EQ(slow.rto(5000, 320000), 320000u) << "ceiling applies";
}

// ------------------------------------------------- congestion window

TEST(CongestionWindow, OpensAtTheFullCreditWindow)
{
    CongestionWindow w;
    w.init(256, 8192);
    EXPECT_EQ(w.cwnd, 8192u);
    EXPECT_EQ(w.ssthresh, 8192u);
    EXPECT_FALSE(w.inSlowStart())
        << "a healthy flow starts wide open, not in slow start";
}

TEST(CongestionWindow, LossHalvesFlightWithAFloor)
{
    CongestionWindow w;
    w.init(256, 8192);
    w.onLoss(8192);
    EXPECT_EQ(w.cwnd, 4096u);
    EXPECT_EQ(w.ssthresh, 4096u);
    w.onLoss(600); // half of a tiny flight would be under the floor
    EXPECT_EQ(w.cwnd, 512u) << "floor is two chunks";
    EXPECT_EQ(w.ssthresh, 512u);
}

TEST(CongestionWindow, RtoCollapsesToTwoChunks)
{
    CongestionWindow w;
    w.init(256, 8192);
    w.onRto(8192);
    EXPECT_EQ(w.cwnd, 512u)
        << "two chunks, so the scoreboard keeps a dup-ack source";
    EXPECT_EQ(w.ssthresh, 4096u);
    EXPECT_TRUE(w.inSlowStart());
}

TEST(CongestionWindow, SlowStartDoublesThenTurnsLinear)
{
    CongestionWindow w;
    w.init(256, 8192);
    w.onRto(8192); // cwnd 512, ssthresh 4096
    // Slow start: byte-counting growth, one acked byte = one byte of
    // window, until ssthresh.
    w.onAck(512);
    EXPECT_EQ(w.cwnd, 1024u);
    w.onAck(1024);
    EXPECT_EQ(w.cwnd, 2048u);
    w.onAck(2048);
    EXPECT_EQ(w.cwnd, 4096u);
    EXPECT_FALSE(w.inSlowStart());
    // Congestion avoidance: about one chunk per cwnd of acked bytes.
    w.onAck(4096);
    EXPECT_EQ(w.cwnd, 4096u + 256u);
}

TEST(CongestionWindow, NeverGrowsPastTheCreditCap)
{
    CongestionWindow w;
    w.init(256, 8192);
    w.onLoss(8192);
    for (int i = 0; i < 1000; ++i)
        w.onAck(8192);
    EXPECT_EQ(w.cwnd, 8192u)
        << "credits bound the flight; cwnd above them is meaningless";
}

// ------------------------------------- recovery on a two-NI world

namespace
{

/**
 * Two NIs on a backplane whose node0 -> node1 direction is dead for
 * the first few microseconds of the run: the head of the message is
 * dropped on the wire, everything behind it arrives out of order,
 * and the sender's scoreboard has to repair the hole.
 */
struct TransportPair : ::testing::Test
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

    void
    installDownWindow(bool disable_fast_retransmit)
    {
        FaultConfig cfg;
        ASSERT_TRUE(parseFaultSpec("down=0-1@0-3", cfg, nullptr));
        cfg.disableFastRetransmit = disable_fast_retransmit;
        net.setFaults(cfg);
    }

    /** Stream one deliberate update through niA as the engine would. */
    void
    sendMessage(std::uint32_t bytes)
    {
        niA.nipt().set(0, 1, 16);
        ASSERT_EQ(niA.validateTransfer(true, 0, bytes), 0);
        niA.transferStarting(true, 0, bytes);
        std::vector<std::uint8_t> data(bytes);
        for (std::uint32_t i = 0; i < bytes; ++i)
            data[i] = std::uint8_t(i * 7 + 3);
        std::uint32_t pushed = 0;
        while (pushed < bytes) {
            std::uint32_t cap =
                niA.pushCapacity(pushed, bytes - pushed);
            if (cap == 0) {
                ASSERT_TRUE(eq.step()) << "deadlock while pushing";
                continue;
            }
            niA.devicePush(pushed, data.data() + pushed, cap);
            pushed += cap;
        }
        niA.transferFinished(true, 0, bytes);
        eq.run();
        for (std::uint32_t i = 0; i < bytes; ++i) {
            ASSERT_EQ(memB.read<std::uint8_t>(16 * 4096 + i),
                      std::uint8_t(i * 7 + 3))
                << "payload byte " << i << " corrupted or lost";
        }
        EXPECT_EQ(niB.messagesDelivered(), 1u);
    }
};

} // namespace

TEST_F(TransportPair, DupAcksRepairTheHoleBeforeTheTimer)
{
    installDownWindow(/*disable_fast_retransmit=*/false);
    sendMessage(4096);
    EXPECT_GT(net.faults().totals().downDropped, 0u)
        << "the window never hit traffic; the test proves nothing";
    EXPECT_GT(niB.rxOutOfOrderBuffered(), 0u)
        << "chunks behind the hole must be buffered, not dropped";
    EXPECT_GE(niA.fastRetransmits(), 1u);
    EXPECT_EQ(niA.timeouts(), 0u)
        << "the scoreboard must beat the retransmit timer";

    // The new TxFlow state surfaces through the debug view.
    auto flows = niA.txFlowDebug();
    ASSERT_EQ(flows.size(), 1u);
    EXPECT_EQ(flows[0].dst, 1u);
    EXPECT_EQ(flows[0].unackedChunks, 0u);
    EXPECT_GT(flows[0].cwnd, 0u);
    EXPECT_GT(flows[0].srttUs, 0.0);
}

TEST_F(TransportPair, TimerStillRecoversWithFastRetransmitMutedAway)
{
    installDownWindow(/*disable_fast_retransmit=*/true);
    sendMessage(4096);
    EXPECT_GT(net.faults().totals().downDropped, 0u);
    EXPECT_EQ(niA.fastRetransmits(), 0u);
    EXPECT_GE(niA.timeouts(), 1u)
        << "with the scoreboard muted only the RTO can recover";
}

TEST_F(TransportPair, DelayReorderingDoesNotTriggerSpuriousRescues)
{
    // A heavily delay-faulted link reorders data chunks without losing
    // any: per-chunk extraDelay lets later chunks overtake earlier
    // ones on the same wire. The old rescue heuristic read "3 SACKs
    // after a resend while it stays unSACKed" as proof the resend was
    // lost — on a reordered link that proof is false and every false
    // positive is a wasted wire copy. The rescue guard must wait out
    // a round trip instead of trusting the serials alone.
    // delay-us stays under the 50 us RTO floor so the delayed acks
    // never read as flow silence — reordering is the only signal.
    FaultConfig cfg;
    ASSERT_TRUE(parseFaultSpec("delay=0.5,delay-us=30,seed=9", cfg,
                               nullptr));
    net.setFaults(cfg);
    sendMessage(4096);
    EXPECT_GT(net.faults().totals().delayed, 0u)
        << "no chunk was delayed; the test proves nothing";
    EXPECT_GT(niB.rxOutOfOrderBuffered(), 0u)
        << "delays that never reorder prove nothing either";
    EXPECT_EQ(niA.rescueSpurious(), 0u)
        << "reordering alone must not fire rescue retransmits";
    // First-round dup-ack false positives are inherent to reordering
    // (the scoreboard cannot tell late from lost), but each hole may
    // be charged at most once: a spurious fast retransmit must never
    // snowball into rescue resends of the same chunk.
    EXPECT_LE(niA.retransmits(), niA.fastRetransmits())
        << "only the scoreboard should have fired, never the timer";
    EXPECT_EQ(niA.timeouts(), 0u)
        << "acks kept flowing; the silence detector must not fire";
}
