/**
 * @file
 * Unit tests for the flat physical memory.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mem/physical_memory.hh"

using namespace shrimp;
using namespace shrimp::mem;

TEST(PhysicalMemory, SizeAndFrames)
{
    PhysicalMemory m(64 << 10, 4096);
    EXPECT_EQ(m.size(), 64u << 10);
    EXPECT_EQ(m.frames(), 16u);
    EXPECT_EQ(m.pageBytes(), 4096u);
}

TEST(PhysicalMemory, RejectsUnalignedSize)
{
    EXPECT_THROW(PhysicalMemory(4097, 4096), FatalError);
    EXPECT_THROW(PhysicalMemory(4096, 0), FatalError);
}

TEST(PhysicalMemory, ByteRoundTrip)
{
    PhysicalMemory m(8192, 4096);
    std::vector<std::uint8_t> in{1, 2, 3, 4, 5};
    m.writeBytes(100, in.data(), in.size());
    std::vector<std::uint8_t> out(5);
    m.readBytes(100, out.data(), out.size());
    EXPECT_EQ(in, out);
}

TEST(PhysicalMemory, TypedRoundTrip)
{
    PhysicalMemory m(8192, 4096);
    m.write<std::uint64_t>(8, 0xDEADBEEF12345678ull);
    EXPECT_EQ(m.read<std::uint64_t>(8), 0xDEADBEEF12345678ull);
    m.write<std::uint16_t>(3, 0xABCD);
    EXPECT_EQ(m.read<std::uint16_t>(3), 0xABCD);
}

TEST(PhysicalMemory, ZeroInitialized)
{
    PhysicalMemory m(4096, 4096);
    EXPECT_EQ(m.read<std::uint64_t>(0), 0u);
    EXPECT_EQ(m.read<std::uint64_t>(4088), 0u);
}

TEST(PhysicalMemory, ZeroFrame)
{
    PhysicalMemory m(8192, 4096);
    m.write<std::uint64_t>(4096, ~0ull);
    m.write<std::uint64_t>(8184, ~0ull);
    m.zeroFrame(1);
    EXPECT_EQ(m.read<std::uint64_t>(4096), 0u);
    EXPECT_EQ(m.read<std::uint64_t>(8184), 0u);
}

TEST(PhysicalMemory, FrameAddressing)
{
    PhysicalMemory m(64 << 10, 4096);
    EXPECT_EQ(m.frameAddr(3), 3u * 4096);
    EXPECT_EQ(m.frameOf(3 * 4096 + 17), 3u);
}

TEST(PhysicalMemory, OutOfRangePanics)
{
    PhysicalMemory m(4096, 4096);
    std::uint8_t b[8] = {};
    EXPECT_THROW(m.readBytes(4096, b, 1), PanicError);
    EXPECT_THROW(m.writeBytes(4090, b, 8), PanicError);
    EXPECT_THROW(m.readBytes(~0ull, b, 1), PanicError);
}

TEST(PhysicalMemory, EdgeOfMemoryIsAccessible)
{
    PhysicalMemory m(4096, 4096);
    m.write<std::uint8_t>(4095, 0x7f);
    EXPECT_EQ(m.read<std::uint8_t>(4095), 0x7f);
}

TEST(PhysicalMemory, WatchFiresOnceOnTheFirstOverlappingWrite)
{
    PhysicalMemory mem(16 * 4096, 4096);
    struct Seen
    {
        PhysicalMemory *mem;
        int calls = 0;
        std::uint64_t value = 0;
    } seen{&mem};
    auto note = [](void *ctx) {
        auto *s = static_cast<Seen *>(ctx);
        ++s->calls;
        s->value = s->mem->read<std::uint64_t>(0x2008); // bytes landed
    };
    mem.watch(0x2008, 8, note, &seen);
    mem.write<std::uint64_t>(0x2000, 1);  // ends just before the word
    mem.write<std::uint64_t>(0x2010, 2);  // starts just after it
    EXPECT_EQ(seen.calls, 0);
    mem.write<std::uint32_t>(0x200C, 0xAB); // overlaps its high half
    EXPECT_EQ(seen.calls, 1);
    EXPECT_EQ(seen.value, std::uint64_t(0xAB) << 32);
    mem.write<std::uint64_t>(0x2008, 3); // the watch is gone
    EXPECT_EQ(seen.calls, 1);

    mem.watch(0x2008, 8, note, &seen);
    mem.zeroFrame(1); // another frame
    EXPECT_EQ(seen.calls, 1);
    mem.zeroFrame(2);
    EXPECT_EQ(seen.calls, 2);
    EXPECT_EQ(seen.value, 0u);

    mem.watch(0x2008, 8, note, &seen);
    mem.unwatch();
    mem.write<std::uint64_t>(0x2008, 4);
    EXPECT_EQ(seen.calls, 2);
}
