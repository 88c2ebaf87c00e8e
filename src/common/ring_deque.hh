/**
 * @file
 * Pooled power-of-two ring deque.
 *
 * std::deque allocates and frees 512-byte nodes as elements cycle
 * through it, which puts a steady trickle of heap traffic on the
 * simulator's per-cycle path (the in-flight window and the GCT group
 * lists both push at the tail and pop at the head every few cycles).
 * RingDeque replaces that with a power-of-two ring whose slots are
 * constructed once and then *reused*: popping never destroys, pushing
 * hands back the stale slot for the caller to overwrite field-wise.
 *
 * Slots also serve as stable handles: a live element never moves, so
 * `physIndexOf()` / `liveAtPhys()` give O(1) re-resolution of an
 * element by its physical slot (validated by the caller against
 * seq/epoch identity). Growth re-layouts the ring and so breaks every
 * handle; owners that hand out slots `reserve()` the population bound
 * once, before the first push, and never grow.
 */

#ifndef P5SIM_COMMON_RING_DEQUE_HH
#define P5SIM_COMMON_RING_DEQUE_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "common/annotate.hh"

namespace p5 {

/** FIFO-with-tail-pops ring over permanently constructed slots. */
template <typename T>
class RingDeque
{
  public:
    RingDeque() = default;

    explicit RingDeque(std::size_t capacity_hint)
    {
        reserve(capacity_hint);
    }

    /**
     * Grow the ring to at least @p capacity slots (rounded up to a
     * power of two). Re-layouts the ring: physical-slot handles taken
     * before a grow no longer name their elements.
     */
    // Spill path: runs at attach-time reservation and only again if
    // that reservation was undersized; steady-state pushSlot() reuses
    // the slots.
    P5_ALLOW(hot_path_no_alloc)
    void
    reserve(std::size_t capacity)
    {
        if (capacity <= slots_.size())
            return;
        std::size_t pow2 = slots_.empty() ? min_capacity : slots_.size();
        while (pow2 < capacity)
            pow2 *= 2;
        std::vector<T> fresh(pow2);
        for (std::size_t i = 0; i < size_; ++i)
            fresh[i] = std::move(slots_[(head_ + i) & mask_]);
        slots_ = std::move(fresh);
        mask_ = pow2 - 1;
        head_ = 0;
    }

    /**
     * Extend the deque by one at the tail and return the slot. The slot
     * holds whatever its previous occupant left behind — the caller
     * overwrites every live field.
     */
    T &
    pushSlot()
    {
        if (size_ > mask_ || slots_.empty())
            reserve(size_ + 1);
        T &slot = slots_[(head_ + size_) & mask_];
        ++size_;
        return slot;
    }

    void
    push_back(const T &value)
    {
        pushSlot() = value;
    }

    /** Pop the head; the slot's contents stay constructed for reuse. */
    void
    pop_front()
    {
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    /** Pop the tail; the slot's contents stay constructed for reuse. */
    void
    pop_back()
    {
        --size_;
    }

    /** Drop every element (slot contents remain pooled). */
    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return slots_.size(); }

    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }
    T &back() { return slots_[(head_ + size_ - 1) & mask_]; }
    const T &back() const { return slots_[(head_ + size_ - 1) & mask_]; }

    /** Logical index from the front (0 == oldest). */
    T &
    operator[](std::size_t i)
    {
        return slots_[(head_ + i) & mask_];
    }

    const T &
    operator[](std::size_t i) const
    {
        return slots_[(head_ + i) & mask_];
    }

    // --- checkpoint shape access --------------------------------------

    /** Physical index of the head slot (for checkpoint save). */
    std::size_t headIndex() const { return head_; }

    /**
     * Overwrite head/size without touching slot contents. Checkpoint
     * restore sets the saved shape and then writes the live elements
     * through operator[], which reproduces their physical slots, so
     * slot handles recorded elsewhere in the checkpoint stay valid.
     * @pre head < capacity() && size <= capacity()
     */
    void
    setShape(std::size_t head, std::size_t size)
    {
        head_ = head;
        size_ = size;
    }

    /** Direct access to physical slot @p phys, live or vacant. */
    T &slotAt(std::size_t phys) { return slots_[phys]; }
    const T &slotAt(std::size_t phys) const { return slots_[phys]; }

    // --- physical-slot handles ---------------------------------------

    /** Physical slot of a live element (for later re-resolution). */
    std::uint32_t
    physIndexOf(const T *element) const
    {
        return static_cast<std::uint32_t>(element - slots_.data());
    }

    /** Whether physical slot @p phys holds a live element. */
    bool
    livePhys(std::uint32_t phys) const
    {
        return phys <= mask_ && ((phys - head_) & mask_) < size_;
    }

    /**
     * The element occupying physical slot @p phys, or nullptr when the
     * slot is vacant or out of range. A non-null result still needs an
     * identity check by the caller: the slot may have been reused.
     */
    T *
    liveAtPhys(std::uint32_t phys)
    {
        return livePhys(phys) ? &slots_[phys] : nullptr;
    }

    // --- iteration (oldest first) ------------------------------------

    template <bool Const>
    class Iterator
    {
        using Container =
            std::conditional_t<Const, const RingDeque, RingDeque>;

      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = std::conditional_t<Const, const T *, T *>;
        using reference = std::conditional_t<Const, const T &, T &>;

        Iterator() = default;
        Iterator(Container *ring, std::size_t logical)
            : ring_(ring), logical_(logical)
        {
        }

        reference operator*() const { return (*ring_)[logical_]; }
        pointer operator->() const { return &(*ring_)[logical_]; }

        Iterator &
        operator++()
        {
            ++logical_;
            return *this;
        }

        Iterator
        operator++(int)
        {
            Iterator prev = *this;
            ++logical_;
            return prev;
        }

        bool
        operator==(const Iterator &other) const
        {
            return logical_ == other.logical_;
        }

        bool
        operator!=(const Iterator &other) const
        {
            return logical_ != other.logical_;
        }

      private:
        Container *ring_ = nullptr;
        std::size_t logical_ = 0;
    };

    using iterator = Iterator<false>;
    using const_iterator = Iterator<true>;

    iterator begin() { return iterator(this, 0); }
    iterator end() { return iterator(this, size_); }
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, size_); }

  private:
    static constexpr std::size_t min_capacity = 8;

    std::vector<T> slots_;
    std::size_t mask_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace p5

#endif // P5SIM_COMMON_RING_DEQUE_HH
