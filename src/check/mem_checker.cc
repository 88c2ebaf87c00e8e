#include "check/checkers.hh"

#include <algorithm>

#include "core/smt_core.hh"

namespace p5::check {

void
MemChecker::onCycle(const SmtCore &core, Cycle cycle)
{
    // LMQ occupancy, recounted by brute force: scan the stored windows
    // at the queue's synced cycle, which the core keeps equal to its
    // own. The event-driven busy counts and next edge must match the
    // scan, busy entries never exceed the queue, and no released window
    // stays stored.
    const Lmq &lmq = core.lmq();
    const Cycle at = lmq.syncedCycle();
    if (at != core.cycle()) {
        fail(cycle, -1, "lmq-sync",
             "LMQ synced to cycle " + std::to_string(core.cycle()),
             std::to_string(at));
    }
    std::array<int, num_hw_threads> scanned{};
    Cycle next_edge = never_cycle;
    for (const Lmq::Edge &e : lmq.edges()) {
        const Lmq::Window &w = e.window;
        if (w.tid < 0 || w.tid >= num_hw_threads ||
            w.releaseCycle <= at) {
            fail(cycle, -1, "lmq-window",
                 "windows of threads 0.." +
                     std::to_string(num_hw_threads - 1) +
                     " releasing after cycle " + std::to_string(at),
                 "thread " + std::to_string(w.tid) + " releasing at " +
                     std::to_string(w.releaseCycle));
            continue;
        }
        const bool busy = w.startCycle <= at;
        if (busy)
            ++scanned[static_cast<std::size_t>(w.tid)];
        const Cycle edge = busy ? w.releaseCycle : w.startCycle;
        if (e.cycle != edge) {
            fail(cycle, w.tid, "lmq-edge",
                 "window filed under cycle " + std::to_string(edge),
                 std::to_string(e.cycle));
        }
        next_edge = std::min(next_edge, edge);
    }
    int busy = 0;
    for (ThreadId t = 0; t < num_hw_threads; ++t) {
        const int n = scanned[static_cast<std::size_t>(t)];
        busy += n;
        if (lmq.busyOfAt(t, at) != n) {
            fail(cycle, t, "lmq-busy-count",
                 std::to_string(n) + " busy windows (scan)",
                 std::to_string(lmq.busyOfAt(t, at)));
        }
    }
    if (busy > lmq.capacity()) {
        fail(cycle, -1, "lmq-capacity",
             "0.." + std::to_string(lmq.capacity()) + " busy entries",
             std::to_string(busy));
    }
    if (lmq.nextEventCycle(at) != next_edge) {
        fail(cycle, -1, "lmq-next-edge",
             "next edge at " + std::to_string(next_edge) + " (scan)",
             std::to_string(lmq.nextEventCycle(at)));
    }

    const Cache &l1 = core.hierarchy().l1d();
    const std::uint64_t l1_hits = l1.hits();
    const std::uint64_t l1_misses = l1.misses();
    const std::uint64_t l1_ins = l1.insertions();
    const std::uint64_t l1_evict = l1.evictions();
    const std::uint64_t lmq_allocs = lmq.allocations();
    const std::uint64_t lmq_queued = lmq.queuedMisses();

    std::array<std::uint64_t, num_hw_threads> t_l1miss{};
    std::array<std::uint64_t, num_hw_threads> t_beyond{};
    std::array<std::uint64_t, num_hw_threads> t_loads{};
    for (ThreadId t = 0; t < num_hw_threads; ++t) {
        const auto ti = static_cast<std::size_t>(t);
        t_l1miss[ti] = core.hierarchy().l1MissesOf(t);
        t_beyond[ti] = core.hierarchy().beyondL2Of(t);
        t_loads[ti] = core.lsu().loadsOf(t);
    }
    // Loads by service level, through the stats layer (this doubles as
    // a check that the LSU's stats registration stays intact).
    std::uint64_t level_loads = 0;
    bool have_levels = true;
    for (const char *stat : {"lsu.loads.l1", "lsu.loads.l2",
                             "lsu.loads.l3", "lsu.loads.mem"}) {
        if (!core.stats().has(stat)) {
            fail(cycle, -1, "stats-registration",
                 std::string("statistic '") + stat + "' registered",
                 "missing");
            have_levels = false;
            break;
        }
        level_loads +=
            static_cast<std::uint64_t>(core.stats().value(stat));
    }

    if (primed_) {
        const bool monotonic =
            l1_hits >= prevL1Hits_ && l1_misses >= prevL1Misses_ &&
            l1_ins >= prevL1Insertions_ && l1_evict >= prevL1Evictions_ &&
            lmq_allocs >= prevLmqAllocations_ &&
            lmq_queued >= prevLmqQueuedMisses_;
        if (!monotonic) {
            fail(cycle, -1, "counter-monotonicity",
                 "L1/LMQ counters never decrease", "decreased");
        } else {
            const std::uint64_t miss_d = l1_misses - prevL1Misses_;
            const std::uint64_t ins_d = l1_ins - prevL1Insertions_;
            const std::uint64_t evict_d = l1_evict - prevL1Evictions_;
            const std::uint64_t alloc_d = lmq_allocs - prevLmqAllocations_;
            if (ins_d > miss_d) {
                fail(cycle, -1, "l1-insert-without-miss",
                     "at most " + std::to_string(miss_d) +
                         " L1 fills (one per miss)",
                     std::to_string(ins_d));
            }
            if (evict_d > ins_d) {
                fail(cycle, -1, "l1-evict-without-insert",
                     "at most " + std::to_string(ins_d) + " evictions",
                     std::to_string(evict_d));
            }
            if (alloc_d > miss_d) {
                fail(cycle, -1, "lmq-alloc-without-miss",
                     "at most " + std::to_string(miss_d) +
                         " LMQ allocations (one per L1 load miss)",
                     std::to_string(alloc_d));
            }
            std::uint64_t t_miss_d = 0;
            for (ThreadId t = 0; t < num_hw_threads; ++t) {
                const auto ti = static_cast<std::size_t>(t);
                if (t_l1miss[ti] < prevThreadL1Misses_[ti] ||
                    t_beyond[ti] < prevBeyondL2_[ti] ||
                    t_loads[ti] < prevLoads_[ti]) {
                    fail(cycle, t, "counter-monotonicity",
                         "per-thread memory counters never decrease",
                         "decreased");
                    continue;
                }
                t_miss_d += t_l1miss[ti] - prevThreadL1Misses_[ti];
                if (t_beyond[ti] - prevBeyondL2_[ti] >
                    t_l1miss[ti] - prevThreadL1Misses_[ti]) {
                    fail(cycle, t, "beyond-l2-attribution",
                         "beyond-L2 count bounded by L1 misses",
                         std::to_string(t_beyond[ti] -
                                        prevBeyondL2_[ti]));
                }
            }
            if (t_miss_d != miss_d) {
                fail(cycle, -1, "l1-miss-attribution",
                     std::to_string(miss_d) +
                         " L1 misses attributed to threads",
                     std::to_string(t_miss_d));
            }
            if (have_levels) {
                const std::uint64_t loads_d =
                    (t_loads[0] - prevLoads_[0]) +
                    (t_loads[1] - prevLoads_[1]);
                if (level_loads - prevLevelLoads_ != loads_d) {
                    fail(cycle, -1, "load-level-conservation",
                         std::to_string(loads_d) +
                             " loads serviced at some level",
                         std::to_string(level_loads - prevLevelLoads_));
                }
            }
        }
    }

    primed_ = true;
    prevL1Hits_ = l1_hits;
    prevL1Misses_ = l1_misses;
    prevL1Insertions_ = l1_ins;
    prevL1Evictions_ = l1_evict;
    prevLmqAllocations_ = lmq_allocs;
    prevLmqQueuedMisses_ = lmq_queued;
    prevThreadL1Misses_ = t_l1miss;
    prevBeyondL2_ = t_beyond;
    prevLoads_ = t_loads;
    prevLevelLoads_ = level_loads;
}

} // namespace p5::check
