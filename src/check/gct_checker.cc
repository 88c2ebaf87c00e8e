#include "check/checkers.hh"

#include "core/smt_core.hh"

namespace p5::check {

void
GctChecker::onCycle(const SmtCore &core, Cycle cycle)
{
    const Gct &gct = core.gct();

    // Occupancy conservation: per-thread occupancies sum to the total
    // and never exceed capacity. Recounted from the group lists rather
    // than trusting the occupancy accessors.
    int occ_sum = 0;
    for (ThreadId t = 0; t < num_hw_threads; ++t) {
        const int listed = static_cast<int>(gct.groupsOf(t).size());
        if (listed != gct.occupancyOf(t)) {
            fail(cycle, t, "occupancy-accessor",
                 std::to_string(listed) + " groups listed",
                 std::to_string(gct.occupancyOf(t)));
        }
        occ_sum += listed;
    }
    if (occ_sum != gct.occupancy()) {
        fail(cycle, -1, "occupancy-sum",
             std::to_string(occ_sum) + " (thread occupancies)",
             std::to_string(gct.occupancy()));
    }
    if (occ_sum > gct.capacity()) {
        fail(cycle, -1, "capacity",
             "occupancy <= " + std::to_string(gct.capacity()),
             std::to_string(occ_sum));
    }

    // Allocation accounting: groups can leave the GCT by retirement or
    // squash only, so live groups never exceed allocated - retired, and
    // at most one group is dispatched per cycle.
    const std::uint64_t allocated = gct.allocated();
    const std::uint64_t retired = gct.retired();
    if (allocated < retired + static_cast<std::uint64_t>(occ_sum)) {
        fail(cycle, -1, "allocation-accounting",
             "allocated >= retired + live (" + std::to_string(retired) +
                 " + " + std::to_string(occ_sum) + ")",
             std::to_string(allocated));
    }
    if (primed_) {
        if (allocated < prevAllocated_ ||
            allocated - prevAllocated_ > 1) {
            fail(cycle, -1, "allocation-rate",
                 "at most one group allocated per cycle",
                 std::to_string(allocated) + " after " +
                     std::to_string(prevAllocated_));
        }
        if (retired < prevRetired_ ||
            retired - prevRetired_ >
                static_cast<std::uint64_t>(num_hw_threads)) {
            fail(cycle, -1, "retire-rate",
                 "at most one group retired per thread per cycle",
                 std::to_string(retired) + " after " +
                     std::to_string(prevRetired_));
        }
    }
    prevAllocated_ = allocated;
    prevRetired_ = retired;
    primed_ = true;

    for (ThreadId t = 0; t < num_hw_threads; ++t) {
        const auto ti = static_cast<std::size_t>(t);
        const auto &groups = gct.groupsOf(t);
        const auto &win = core.thread(t).window;

        // Group shape: positive counts, contiguous seq ranges, oldest
        // first.
        std::uint64_t instrs = 0;
        bool shape_ok = true;
        SeqNum next_seq = 0;
        bool first = true;
        for (const GctGroup &g : groups) {
            if (g.count <= 0) {
                fail(cycle, t, "group-count",
                     "positive instruction count",
                     std::to_string(g.count));
                shape_ok = false;
                break;
            }
            if (!first && g.startSeq != next_seq) {
                fail(cycle, t, "group-contiguity",
                     "group starts at seq " + std::to_string(next_seq),
                     std::to_string(g.startSeq));
                shape_ok = false;
                break;
            }
            first = false;
            next_seq = g.startSeq + static_cast<SeqNum>(g.count);
            instrs += static_cast<std::uint64_t>(g.count);
        }

        // Conservation against the in-flight window: the GCT tracks
        // exactly the dispatched-but-not-retired instructions.
        if (shape_ok && instrs != win.size()) {
            fail(cycle, t, "window-conservation",
                 std::to_string(win.size()) +
                     " in-flight instructions (window)",
                 std::to_string(instrs) + " (GCT groups)");
        }
        // Each group's unfinished count, recounted from its window
        // entries (the window holds the groups' instructions in order).
        if (shape_ok && instrs == win.size()) {
            std::size_t w = 0;
            for (const GctGroup &g : groups) {
                int unfinished = 0;
                for (int k = 0; k < g.count; ++k, ++w)
                    unfinished += win[w].phase != InstrPhase::Finished;
                if (g.unfinished != unfinished) {
                    fail(cycle, t, "group-unfinished",
                         std::to_string(unfinished) +
                             " unfinished in the group at seq " +
                             std::to_string(g.startSeq),
                         std::to_string(g.unfinished));
                }
            }
        }
        if (shape_ok && !groups.empty() && !win.empty()) {
            if (win.front().di.seq != groups.front().startSeq) {
                fail(cycle, t, "front-alignment",
                     "window head at seq " +
                         std::to_string(groups.front().startSeq),
                     std::to_string(win.front().di.seq));
            }
            if (win.back().di.seq != next_seq - 1) {
                fail(cycle, t, "back-alignment",
                     "window tail at seq " +
                         std::to_string(next_seq - 1),
                     std::to_string(win.back().di.seq));
            }
        }

        // Program-order retirement: the oldest live seq of a thread
        // never moves backwards while the same program is attached
        // (squashes only remove younger instructions).
        const bool attached = core.thread(t).attached();
        const std::uint64_t committed = core.committedOf(t);
        const bool rebase = !prevAttached_[ti] || !attached ||
                            committed < prevCommitted_[ti];
        if (!rebase && prevHadFront_[ti] && !groups.empty() &&
            groups.front().startSeq < prevFrontSeq_[ti]) {
            fail(cycle, t, "program-order",
                 "oldest seq >= " + std::to_string(prevFrontSeq_[ti]),
                 std::to_string(groups.front().startSeq));
        }
        prevAttached_[ti] = attached;
        prevCommitted_[ti] = committed;
        prevHadFront_[ti] = !groups.empty();
        if (!groups.empty())
            prevFrontSeq_[ti] = groups.front().startSeq;
    }
}

} // namespace p5::check
