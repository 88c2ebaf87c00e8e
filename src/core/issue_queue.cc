#include "core/issue_queue.hh"

#include <algorithm>

#include "common/annotate.hh"

namespace p5 {

IssueQueue::IssueQueue()
{
    // Above the worst-case high-water mark (both threads' windows are
    // GCT-bound, so ready entries of one class can't exceed the total
    // in-flight count), so pushes never reallocate on the busy path.
    for (Ready &q : queues_)
        q.refs.reserve(256);
}

void
IssueQueue::Ready::compact()
{
    refs.erase(refs.begin(),
               refs.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
}

void
IssueQueue::Ready::insertAged(const ReadyRef &ref)
{
    const auto pos = std::upper_bound(
        refs.begin() + static_cast<std::ptrdiff_t>(head), refs.end(),
        ref.stamp, [](std::uint64_t stamp, const ReadyRef &r) {
            return stamp < r.stamp;
        });
    // Same capacity argument as push()'s append.
    P5_ALLOW(hot_path_no_alloc) refs.insert(pos, ref);
}

void
IssueQueue::clear()
{
    for (Ready &q : queues_) {
        q.refs.clear();
        q.head = 0;
    }
}

std::size_t
IssueQueue::totalSize() const
{
    std::size_t n = 0;
    for (const Ready &q : queues_)
        n += q.refs.size() - q.head;
    return n;
}

} // namespace p5
