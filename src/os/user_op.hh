/**
 * @file
 * The operations a simulated user program can perform.
 *
 * Every operation is awaited from inside a process coroutine; the
 * suspension points are exactly where context switches may occur, so
 * the paper's atomicity concern (a switch between the initiating STORE
 * and LOAD) is directly expressible and testable.
 */

#ifndef SHRIMP_OS_USER_OP_HH
#define SHRIMP_OS_USER_OP_HH

#include <cstdint>
#include <functional>

#include "sim/types.hh"

namespace shrimp::os
{

class Kernel;
class Process;

/** Result handed back to the coroutine by await_resume. */
struct OpResult
{
    /** Loaded value (loads and some syscalls). */
    std::uint64_t value = 0;
    /** Loads a Poll performed, elided ones included. */
    std::uint64_t polls = 0;
};

/** Control block a syscall implementation fills in. */
struct SyscallControl
{
    /** Extra kernel-time latency beyond the trap cost. */
    Tick extraLatency = 0;
    /** Return value delivered to the user. */
    std::uint64_t result = 0;
    /** If true, the process blocks; a later wake() delivers result2. */
    bool blocks = false;
};

/** One user-level operation. */
struct UserOp
{
    enum class Kind
    {
        Load,    ///< 64-bit load from a virtual address
        Store,   ///< 64-bit store to a virtual address
        Compute, ///< retire N instructions (cached work)
        Yield,   ///< voluntarily give up the CPU
        Syscall, ///< trap into the kernel
        Poll,    ///< 64-bit loads from vaddr until `until` holds
    };

    Kind kind = Kind::Compute;
    Addr vaddr = 0;
    std::uint64_t value = 0; ///< store datum / instruction count
    /** Syscall body, run in kernel context at dispatch time. */
    std::function<void(Kernel &, Process &, SyscallControl &)> syscall;
    /** Poll exit condition, applied to each loaded value. */
    std::function<bool(std::uint64_t)> until;

    OpResult result;
};

} // namespace shrimp::os

#endif // SHRIMP_OS_USER_OP_HH
