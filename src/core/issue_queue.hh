/**
 * @file
 * Ready-instruction queues.
 *
 * Instructions whose operands are available wait here, one queue per
 * functional-unit class, ordered oldest-first by dispatch stamp across
 * both threads. Entries are (tid, seq, epoch) references validated by the
 * core at pop time, so squashed instructions simply evaporate.
 */

#ifndef P5SIM_CORE_ISSUE_QUEUE_HH
#define P5SIM_CORE_ISSUE_QUEUE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/annotate.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "isa/op_class.hh"

namespace p5 {

/** Reference to an in-flight instruction awaiting issue (32 bytes). */
struct ReadyRef
{
    std::uint64_t stamp = 0; ///< global dispatch order (issue priority)
    SeqNum seq = 0;
    std::uint64_t epoch = 0; ///< thread squash epoch at dispatch
    ThreadId tid = 0;
    std::uint32_t slot = 0; ///< window slot, for O(1) resolve
};
static_assert(sizeof(ReadyRef) == 32, "ReadyRef fields must pack");

/**
 * Per-FuClass oldest-first ready queues.
 *
 * Each queue is an array kept sorted by dispatch stamp, oldest at the
 * head: pop() takes the head in O(1) by advancing a cursor, and a push
 * carrying the newest stamp yet (every dispatch-time push) appends in
 * O(1); only a wakeup push of an older instruction binary-searches its
 * place. Stamps are unique, so the pop sequence — stale entries
 * included — is exactly that of a min-heap on the stamp. Observers
 * (the p5check flow checker) walk the live entries through entries().
 */
class IssueQueue
{
  public:
    IssueQueue();

    /** Enqueue a ready instruction for its unit class. */
    void
    push(FuClass fc, const ReadyRef &ref)
    {
        Ready &q = queues_[static_cast<int>(fc)];
        if (q.refs.size() == q.refs.capacity() && q.head > 0)
            q.compact();
        if (q.refs.empty() || q.refs.back().stamp < ref.stamp) {
            // Reserved in the constructor above the worst-case
            // high-water mark, and compacted above; push only spills
            // if that bound is wrong.
            P5_ALLOW(hot_path_no_alloc) q.refs.push_back(ref);
        } else {
            q.insertAged(ref);
        }
    }

    bool
    empty(FuClass fc) const
    {
        return queues_[static_cast<int>(fc)].refs.empty();
    }

    std::size_t
    size(FuClass fc) const
    {
        const Ready &q = queues_[static_cast<int>(fc)];
        return q.refs.size() - q.head;
    }

    /** Peek the oldest entry; queue must be non-empty. */
    const ReadyRef &
    top(FuClass fc) const
    {
        const Ready &q = queues_[static_cast<int>(fc)];
        if (q.refs.empty()) [[unlikely]]
            panic("IssueQueue::top on empty %s queue", fuClassName(fc));
        return q.refs[q.head];
    }

    /** Remove the oldest entry; queue must be non-empty. */
    ReadyRef
    pop(FuClass fc)
    {
        Ready &q = queues_[static_cast<int>(fc)];
        if (q.refs.empty()) [[unlikely]]
            panic("IssueQueue::pop on empty %s queue", fuClassName(fc));
        const ReadyRef ref = q.refs[q.head++];
        if (q.head == q.refs.size()) {
            q.refs.clear();
            q.head = 0;
        }
        return ref;
    }

    /** Drop everything (between runs). */
    void clear();

    /** Total entries across all classes. */
    std::size_t totalSize() const;

    /**
     * Live entries of @p fc, oldest first (observers only); the view
     * is valid until the next push(), pop() or clear().
     */
    std::span<const ReadyRef>
    entries(FuClass fc) const
    {
        const Ready &q = queues_[static_cast<int>(fc)];
        return std::span<const ReadyRef>(q.refs).subspan(q.head);
    }

    /**
     * Checkpoint body (ckpt_state.cc): each queue's live entries
     * oldest-first, which a restore takes as they are.
     */
    template <class Self, class Io> static void ckpt(Self &self, Io &io);

  private:
    /** One class's queue: live entries are refs[head..). */
    struct Ready
    {
        std::vector<ReadyRef> refs;
        std::size_t head = 0;

        /** Drop the popped prefix so refs[0] is the oldest entry. */
        void compact();

        /** Insert an entry older than the newest at its stamp rank. */
        void insertAged(const ReadyRef &ref);
    };

    Ready queues_[static_cast<int>(FuClass::NumFuClasses)];
};

} // namespace p5

#endif // P5SIM_CORE_ISSUE_QUEUE_HH
