/**
 * @file
 * The API simulated user programs use: awaitable loads, stores,
 * computation, and syscalls, plus address helpers.
 *
 * A user program is written as:
 *
 *   sim::ProcTask program(os::UserContext &ctx) {
 *       co_await ctx.store(dest_proxy_va, nbytes);      // STORE
 *       auto st = co_await ctx.load(src_proxy_va);      // LOAD
 *       ...
 *   }
 *
 * — the two-reference UDMA initiation is literally two awaited memory
 * references, protection-checked by the simulated MMU.
 */

#ifndef SHRIMP_OS_USER_CONTEXT_HH
#define SHRIMP_OS_USER_CONTEXT_HH

#include <coroutine>
#include <cstdint>
#include <functional>
#include <utility>

#include "os/user_op.hh"
#include "sim/types.hh"

namespace shrimp::os
{

class Kernel;
class Process;

/** Awaitable wrapper around one UserOp. */
class OpAwaitable
{
  public:
    OpAwaitable(Process &proc, UserOp op)
        : proc_(proc), op_(std::move(op))
    {}

    bool await_ready() const noexcept { return false; }

    void await_suspend(std::coroutine_handle<> h);

    std::uint64_t await_resume() const { return op_.result.value; }

  protected:
    const OpResult &result() const { return op_.result; }

  private:
    Process &proc_;
    UserOp op_;
};

/** What a spin poll saw: the value that ended it and its load count. */
struct PollResult
{
    std::uint64_t value = 0;
    std::uint64_t polls = 0;
};

/** Awaitable wrapper around one Poll op. */
class PollAwaitable : public OpAwaitable
{
  public:
    using OpAwaitable::OpAwaitable;

    PollResult
    await_resume() const
    {
        return PollResult{result().value, result().polls};
    }
};

/** Per-process handle for issuing simulated operations. */
class UserContext
{
  public:
    UserContext(Kernel &kernel, Process &proc)
        : kernel_(kernel), proc_(proc)
    {}

    // ------------------------------------------------ basic operations
    /** 64-bit load; returns the loaded value (a status word for proxy
     *  addresses). */
    OpAwaitable
    load(Addr va)
    {
        UserOp op;
        op.kind = UserOp::Kind::Load;
        op.vaddr = va;
        return OpAwaitable(proc_, std::move(op));
    }

    /** 64-bit store. */
    OpAwaitable
    store(Addr va, std::uint64_t value)
    {
        UserOp op;
        op.kind = UserOp::Kind::Store;
        op.vaddr = va;
        op.value = value;
        return OpAwaitable(proc_, std::move(op));
    }

    /**
     * Spin on the 64-bit word at @p va: load it until @p until holds
     * for the loaded value. Performs exactly the loads, with exactly
     * the timing, of the loop
     *
     *   do { v = co_await load(va); ++polls; } while (!until(v));
     *
     * but on a memory word the kernel dispatches an event only when
     * the outcome can change (a write to the word, a preemption, a
     * change to the process's mappings); the loads in between are
     * elided and credited exactly. Proxy-space words are loaded one
     * op at a time. @p until must be a pure function of the value.
     */
    PollAwaitable
    pollUntil(Addr va, std::function<bool(std::uint64_t)> until)
    {
        UserOp op;
        op.kind = UserOp::Kind::Poll;
        op.vaddr = va;
        op.until = std::move(until);
        return PollAwaitable(proc_, std::move(op));
    }

    /** Retire @p instructions of (cached) computation. */
    OpAwaitable
    compute(std::uint64_t instructions)
    {
        UserOp op;
        op.kind = UserOp::Kind::Compute;
        op.value = instructions;
        return OpAwaitable(proc_, std::move(op));
    }

    /** Voluntarily yield the CPU. */
    OpAwaitable
    yield()
    {
        UserOp op;
        op.kind = UserOp::Kind::Yield;
        return OpAwaitable(proc_, std::move(op));
    }

    /** Trap into the kernel with an arbitrary service body. */
    OpAwaitable
    syscall(std::function<void(Kernel &, Process &, SyscallControl &)> fn)
    {
        UserOp op;
        op.kind = UserOp::Kind::Syscall;
        op.syscall = std::move(fn);
        return OpAwaitable(proc_, std::move(op));
    }

    // -------------------------------------------------- named syscalls
    /**
     * Allocate a demand-paged virtual memory region.
     * @return the region's base virtual address.
     */
    OpAwaitable sysAllocMemory(std::uint64_t bytes, bool writable = true);

    /**
     * Map @p n_pages of device @p device's proxy window, starting at
     * device proxy page @p first_page, into this process.
     * @return the virtual address of the first mapped proxy page
     *         (0 on refusal).
     */
    OpAwaitable sysMapDeviceProxy(unsigned device,
                                  std::uint64_t first_page,
                                  std::uint64_t n_pages, bool writable);

    // ------------------------------------------------- address helpers
    /** PROXY(): virtual address -> virtual memory-proxy address. */
    Addr proxyAddr(Addr va, unsigned device) const;

    /** Page size of the machine. */
    std::uint32_t pageBytes() const;

    Kernel &kernel() { return kernel_; }
    Process &process() { return proc_; }

  private:
    Kernel &kernel_;
    Process &proc_;
};

} // namespace shrimp::os

#endif // SHRIMP_OS_USER_CONTEXT_HH
