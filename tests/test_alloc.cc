/**
 * @file
 * Zero-allocation proof for the steady-state tick loop (DESIGN §8).
 *
 * This binary replaces the global allocation functions with counting
 * wrappers; the counter is only live inside a measured window, so
 * gtest's own bookkeeping doesn't pollute it. After a warmup long
 * enough for every pooled structure to reach its high-water mark
 * (window rings, ready queues, completion heap), a busy simulation
 * must run thousands of cycles without a single heap allocation —
 * including the mispredict squash/replay path, whose re-fetches hit
 * the memoized program table.
 *
 * Lives in its own test binary (p5sim_alloc_tests): the operator
 * new/delete replacement is process-wide and has no business wrapping
 * the main suite.
 */

#include <gtest/gtest.h>

#include <execinfo.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/smt_core.hh"
#include "mem/lmq.hh"
#include "ubench/ubench.hh"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t size, std::size_t align)
{
    if (g_counting.load(std::memory_order_relaxed)) {
        // P5SIM_ALLOC_TRAP=1 dumps the call stack of every counted
        // allocation to stderr (backtrace_symbols_fd is malloc-free),
        // so offending call sites are identifiable without a debugger.
        static const bool trap = std::getenv("P5SIM_ALLOC_TRAP");
        if (trap) {
            void *frames[32];
            const int n = backtrace(frames, 32);
            backtrace_symbols_fd(frames, n, 2);
            write(2, "----\n", 5);
        }
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    }
    if (size == 0)
        size = 1;
    void *p = nullptr;
    if (align <= alignof(std::max_align_t)) {
        p = std::malloc(size);
    } else if (posix_memalign(&p, align, size) != 0) {
        p = nullptr;
    }
    return p;
}

} // namespace

void *
operator new(std::size_t size)
{
    if (void *p = countedAlloc(size, 0))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    if (void *p = countedAlloc(size, static_cast<std::size_t>(align)))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size, 0);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size, 0);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

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

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace p5 {
namespace {

/** Allocations performed by @p cycles of core.run() after @p warmup. */
std::uint64_t
allocationsDuring(SmtCore &core, Cycle warmup, Cycle cycles)
{
    core.run(warmup);
    g_allocs.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    core.run(cycles);
    g_counting.store(false, std::memory_order_relaxed);
    return g_allocs.load(std::memory_order_relaxed);
}

TEST(Alloc, SteadyStateBusyLoopIsAllocationFree)
{
    const SyntheticProgram prog = makeUbench(UbenchId::CpuInt);
    CoreParams params;
    SmtCore core(params);
    if (core.hasChecks())
        GTEST_SKIP() << "checked build: checkers allocate per cycle";
    core.attachThread(0, &prog, 4);
    core.attachThread(1, &prog, 4);
    EXPECT_EQ(allocationsDuring(core, 20000, 1000), 0u);
}

TEST(Alloc, MispredictReplayIsAllocationFree)
{
    // br_miss squashes and rewinds constantly: the squash path (epoch
    // bump, GCT truncation, rename rebuild, stream reposition) and the
    // memoized re-fetch must be as allocation-free as straight-line
    // decode.
    const SyntheticProgram prog = makeUbench(UbenchId::BrMiss);
    CoreParams params;
    SmtCore core(params);
    if (core.hasChecks())
        GTEST_SKIP() << "checked build: checkers allocate per cycle";
    core.attachThread(0, &prog, 4);
    core.attachThread(1, &prog, 4);
    EXPECT_EQ(allocationsDuring(core, 20000, 1000), 0u);
}

TEST(Alloc, MemoryBoundFastForwardIsAllocationFree)
{
    // The probe/skip machinery itself (gate replay, event search,
    // bulk counter advance) must not allocate either.
    const SyntheticProgram prog = makeUbench(UbenchId::LdintMem);
    CoreParams params;
    SmtCore core(params);
    if (core.hasChecks())
        GTEST_SKIP() << "checked build: checkers allocate per cycle";
    core.attachThread(0, &prog, 4);
    core.attachThread(1, &prog, 4);
    EXPECT_EQ(allocationsDuring(core, 20000, 5000), 0u);
}

TEST(Alloc, AttachAllocatesNoPerSlotBuffers)
{
    // Attaching sizes each window ring once, to the GCT bound, and no
    // window slot owns a heap buffer: a deeper GCT (and window) makes
    // the ring bigger but costs no further allocation.
    const SyntheticProgram prog = makeUbench(UbenchId::CpuInt);
    const auto attach_allocs = [&prog](int gct_groups) {
        CoreParams params;
        params.gctGroups = gct_groups;
        SmtCore core(params);
        g_allocs.store(0, std::memory_order_relaxed);
        g_counting.store(true, std::memory_order_relaxed);
        core.attachThread(0, &prog, 4);
        core.attachThread(1, &prog, 4);
        g_counting.store(false, std::memory_order_relaxed);
        return g_allocs.load(std::memory_order_relaxed);
    };
    EXPECT_EQ(attach_allocs(20), attach_allocs(40));
}

TEST(Alloc, QueuedLmqWindowsFitTheConstructionReservation)
{
    // Three times the entries, all queued behind one another: the
    // window store was sized for this when the queue was built.
    Lmq q(8);
    g_allocs.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    for (int k = 0; k < 3 * q.capacity(); ++k) {
        const Cycle start = q.reserve(k % 2, 0, 0, 100);
        q.updateLastRelease(start + 90);
    }
    for (Cycle now = 0; now <= 300; now += 10)
        q.advanceTo(now);
    g_counting.store(false, std::memory_order_relaxed);
    EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0u);
    EXPECT_EQ(q.queuedMisses(), 16u);
}

} // namespace
} // namespace p5
