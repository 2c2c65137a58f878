/**
 * @file
 * The user-level UDMA library: the exact software recipes Section 5
 * of the paper prescribes, written as awaitable helper routines for
 * simulated user programs.
 *
 *  - udmaInitiate: alignment-check code + the STORE/LOAD pair;
 *  - udmaStart:    initiate with retry on TRANSFERRING/INVALID (the
 *                  paper: "the user process may want to re-try its
 *                  two-instruction transfer initiation sequence");
 *  - udmaWait:     repeat the initiating LOAD until MATCH clears;
 *  - udmaTransfer: arbitrary-size transfers split at page boundaries
 *                  ("An additional transfer may be required if a page
 *                  boundary is crossed", Section 8);
 *
 * plus the SHRIMP mapping control plane (receiver-side page export,
 * sender-side NIPT programming) and small polling utilities.
 */

#ifndef SHRIMP_CORE_UDMA_LIB_HH
#define SHRIMP_CORE_UDMA_LIB_HH

#include <cstdint>
#include <vector>

#include "dma/status.hh"
#include "os/user_context.hh"
#include "shrimp/network_interface.hh"
#include "sim/coro.hh"

namespace shrimp::core
{

/**
 * One transfer-initiation attempt: the page/alignment check software,
 * then STORE nbytes TO destAddr; LOAD status FROM srcAddr.
 * @return the decoded status word of the LOAD.
 */
sim::Task<dma::Status> udmaInitiate(os::UserContext &ctx,
                                    Addr dest_proxy_va,
                                    Addr src_proxy_va,
                                    std::uint32_t nbytes);

/**
 * Initiate with retry. Retries while the hardware reports
 * TRANSFERRING or INVALID (e.g. a context-switch Inval landed between
 * our STORE and LOAD) or a full Section 7 queue; gives up and returns
 * the status on any other device error.
 *
 * On success, status.remainingBytes is the page-clamped byte count the
 * hardware actually accepted.
 */
sim::Task<dma::Status> udmaStart(os::UserContext &ctx,
                                 Addr dest_proxy_va, Addr src_proxy_va,
                                 std::uint32_t nbytes);

/**
 * Wait for completion by repeating the initiating LOAD until the MATCH
 * flag clears (Section 5's completion-check recipe).
 */
sim::Task<std::uint64_t> udmaWait(os::UserContext &ctx,
                                  Addr src_proxy_va);

/**
 * Move @p nbytes from user memory at @p src_va to the device window
 * position @p dest_proxy_va of device @p device, splitting at page
 * boundaries on both sides and optionally waiting for the last piece.
 * @return the number of hardware transfers used.
 * @throws FatalError on an unrecoverable device error.
 */
sim::Task<std::uint64_t> udmaTransfer(os::UserContext &ctx,
                                      unsigned device,
                                      Addr dest_proxy_va, Addr src_va,
                                      std::uint64_t nbytes,
                                      bool wait_completion = true,
                                      Addr *last_src_proxy_out =
                                          nullptr);

/**
 * Device-to-memory counterpart (e.g. a disk read): STOREs name the
 * memory destination via PROXY(dst_va), LOADs name the device source.
 */
sim::Task<std::uint64_t> udmaTransferFromDevice(
    os::UserContext &ctx, unsigned device, Addr dst_va,
    Addr src_dev_proxy_va, std::uint64_t nbytes,
    bool wait_completion = true);

/** One piece of a gather send. */
struct GatherPiece
{
    Addr va = 0;
    std::uint32_t len = 0;
};

/**
 * Gather-scatter (Section 7): send several separate user-memory
 * pieces back-to-back into a contiguous device-window span, waiting
 * only for the last transfer. With a queued controller each piece
 * costs the paper's "two instructions per page in the best case";
 * with the basic controller the retry loop serializes them.
 * @return total hardware transfers used.
 */
sim::Task<std::uint64_t> udmaGather(os::UserContext &ctx,
                                    unsigned device,
                                    Addr dest_proxy_va,
                                    std::vector<GatherPiece> pieces,
                                    bool wait_completion = true);

/** Spin on a memory word until it holds @p expected (one
 *  UserContext::pollUntil); returns the number of loads. */
sim::Task<std::uint64_t> pollWord(os::UserContext &ctx, Addr va,
                                  std::uint64_t expected);

// --------------------------------------------------------------------
// SHRIMP mapping control plane (out-of-band setup, not the data path)
// --------------------------------------------------------------------

/**
 * Receiver side: export every page of [va, va+bytes) for incoming
 * network DMA (fault in, pin, mark dirty). Returns the physical
 * address of each page in order.
 */
sim::Task<std::vector<Addr>> sysExportRange(os::UserContext &ctx,
                                            Addr va,
                                            std::uint64_t bytes);

/**
 * Sender side: allocate a run of NIPT entries naming the given remote
 * physical pages on @p dst_node, and map the corresponding device
 * proxy pages into the caller.
 * @return the virtual address of the first mapped proxy page, 0 on
 *         failure.
 */
sim::Task<Addr> sysMapRemoteRange(os::UserContext &ctx, unsigned device,
                                  net::NetworkInterface &ni,
                                  NodeId dst_node,
                                  std::vector<Addr> dst_phys_pages);

/**
 * Bind one local page for automatic update (Section 9's other SHRIMP
 * strategy): ordinary stores to [local_va's page] are snooped by the
 * NI board and propagated to the remote physical page. The binding is
 * fixed (the kernel pins the local page), exactly the restriction the
 * paper notes for automatic update.
 * @return true on success.
 */
sim::Task<bool> sysMapAutoUpdate(os::UserContext &ctx,
                                 net::NetworkInterface &ni,
                                 Addr local_va, NodeId dst_node,
                                 Addr dst_phys_page);

} // namespace shrimp::core

#endif // SHRIMP_CORE_UDMA_LIB_HH
