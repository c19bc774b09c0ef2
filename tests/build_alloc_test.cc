/**
 * @file
 * A timing-free work gate on building machines: this binary replaces
 * the global operator new with one that counts its calls, and bounds
 * the heap allocations of building a pod from its spec. A pod's nodes
 * hold no vectors and building it derives no index, so its
 * allocations grow with its hosts' directories, not with its nodes'
 * edges.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>

#include "sys/machines.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

void *
counted(std::size_t size, std::size_t align = 0)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    void *p = align > alignof(std::max_align_t)
                  ? std::aligned_alloc(align, (size + align - 1) / align * align)
                  : std::malloc(size);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t size) { return counted(size); }
void *operator new[](std::size_t size) { return counted(size); }
void *
operator new(std::size_t size, std::align_val_t align)
{
    return counted(size, static_cast<std::size_t>(align));
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return counted(size, static_cast<std::size_t>(align));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

/** Heap allocations of one systemFromSpec(spec) call. */
std::size_t
buildAllocations(const std::string &spec)
{
    mlps::sys::SystemConfig out;
    std::string error;
    const std::size_t before = g_allocations.load();
    const bool built = mlps::sys::systemFromSpec(spec, &out, &error);
    const std::size_t after = g_allocations.load();
    EXPECT_TRUE(built) << spec << ": " << error;
    return after - before;
}

TEST(PodBuild, AllocationsOf16x8Pod)
{
    // Once, so that the process's first-use state is in place.
    buildAllocations("pod(C4140 (M),1x1)");
    // 914 nodes and 1,696 edges; the build with a vector of incident
    // edges and one of neighbours per node made 6,492 allocations.
    const std::size_t allocations = buildAllocations("pod(C4140 (M),16x8)");
    EXPECT_GT(allocations, 0u); // the counting operator new is in use
    EXPECT_LE(allocations, 1200u);
    RecordProperty("allocations", static_cast<int>(allocations));
}

} // namespace
