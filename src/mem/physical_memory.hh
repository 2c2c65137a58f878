/**
 * @file
 * Simulated physical memory: a flat, frame-granular byte store.
 *
 * Every node owns one PhysicalMemory. The kernel's frame allocator and
 * the DMA engines address it with physical byte addresses in
 * [0, size()). Timing is charged by the callers (CPU, bus, DMA
 * engines); this class is purely functional state.
 */

#ifndef SHRIMP_MEM_PHYSICAL_MEMORY_HH
#define SHRIMP_MEM_PHYSICAL_MEMORY_HH

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace shrimp::mem
{

/** Flat simulated DRAM. */
class PhysicalMemory
{
  public:
    /**
     * @param bytes Total memory size; must be a multiple of @p
     *        page_bytes.
     * @param page_bytes Frame size (the VM page size).
     */
    PhysicalMemory(std::uint64_t bytes, std::uint32_t page_bytes)
        : pageBytes_(page_bytes), data_(bytes, 0)
    {
        if (page_bytes == 0 || bytes % page_bytes != 0)
            fatal("physical memory size ", bytes,
                  " is not a multiple of the page size ", page_bytes);
    }

    std::uint64_t size() const { return data_.size(); }
    std::uint32_t pageBytes() const { return pageBytes_; }
    std::uint64_t frames() const { return size() / pageBytes_; }

    /** Raw byte access for DMA engines and the CPU's data path. */
    void
    readBytes(Addr addr, void *dst, std::uint64_t len) const
    {
        checkRange(addr, len);
        std::memcpy(dst, data_.data() + addr, len);
    }

    void
    writeBytes(Addr addr, const void *src, std::uint64_t len)
    {
        checkRange(addr, len);
        std::memcpy(data_.data() + addr, src, len);
        noteWrite(addr, len);
    }

    /** Typed scalar access (little-endian host layout). */
    template <typename T>
    T
    read(Addr addr) const
    {
        T v;
        readBytes(addr, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    write(Addr addr, T v)
    {
        writeBytes(addr, &v, sizeof(T));
    }

    /** Zero one whole frame (used for demand-zero pages). */
    void
    zeroFrame(std::uint64_t frame)
    {
        SHRIMP_ASSERT(frame < frames(), "bad frame");
        std::memset(data_.data() + frame * pageBytes_, 0, pageBytes_);
        noteWrite(frameAddr(frame), pageBytes_);
    }

    /**
     * Watch one range: the first write that overlaps [addr, addr+len)
     * calls @p fn(@p ctx) after the bytes land, and the watch is gone.
     * One watch at a time (the kernel's elided spin-poll word).
     */
    void
    watch(Addr addr, std::uint64_t len, void (*fn)(void *), void *ctx)
    {
        SHRIMP_ASSERT(!watchFn_, "a write watch is already armed");
        watchBegin_ = addr;
        watchEnd_ = addr + len;
        watchFn_ = fn;
        watchCtx_ = ctx;
    }

    /** Drop the watch, if any. */
    void unwatch() { watchFn_ = nullptr; }

    /** Base physical address of a frame. */
    Addr frameAddr(std::uint64_t frame) const { return frame * pageBytes_; }

    /** Frame containing a physical address. */
    std::uint64_t frameOf(Addr addr) const { return addr / pageBytes_; }

  private:
    void
    noteWrite(Addr addr, std::uint64_t len)
    {
        if (watchFn_ && addr < watchEnd_ && watchBegin_ < addr + len)
            std::exchange(watchFn_, nullptr)(watchCtx_);
    }

    void
    checkRange(Addr addr, std::uint64_t len) const
    {
        if (addr > data_.size() || len > data_.size() - addr)
            panic("physical access out of range: addr=", addr,
                  " len=", len, " size=", data_.size());
    }

    std::uint32_t pageBytes_;
    std::vector<std::uint8_t> data_;
    Addr watchBegin_ = 0;
    Addr watchEnd_ = 0;
    void (*watchFn_)(void *) = nullptr;
    void *watchCtx_ = nullptr;
};

} // namespace shrimp::mem

#endif // SHRIMP_MEM_PHYSICAL_MEMORY_HH
