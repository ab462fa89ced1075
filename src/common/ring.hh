/**
 * @file
 * Fixed-capacity containers for the cycle-level core's in-flight µops.
 *
 * RingBuffer is a FIFO/LIFO ring whose slots are allocated exactly once
 * per run (reset()), so pushing and popping never touch the allocator.
 * The core keeps its ROB and fetch queue as rings of 32-bit SlotPool ids.
 *
 * SlotPool is a fixed set of T slots addressed by 32-bit ids plus a
 * LIFO free list. acquire() reinitializes a free slot in place (placement
 * new, no temporary) and returns its id; release() hands it back.
 * Several rings can share one pool, so moving a µop from one queue to
 * the next moves a 4-byte id instead of the record, and the most
 * recently freed slot (still hot in the cache) is the next one handed
 * out.
 *
 * Indexing into a RingBuffer is logical: operator[](0) is the oldest
 * element (front), operator[](size()-1) the youngest (back).
 */

#ifndef WISC_COMMON_RING_HH_
#define WISC_COMMON_RING_HH_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <vector>

#include "common/log.hh"

namespace wisc {

template <typename T>
class RingBuffer
{
  public:
    /** Drop all contents and (re)allocate for exactly 'capacity'
     *  elements. Called once per simulation run. */
    void
    reset(std::size_t capacity)
    {
        wisc_assert(capacity > 0, "ring buffer needs a capacity");
        slots_.assign(capacity, T{});
        head_ = 0;
        count_ = 0;
    }

    std::size_t size() const { return count_; }
    std::size_t capacity() const { return slots_.size(); }
    bool empty() const { return count_ == 0; }

    void
    push_back(const T &v)
    {
        wisc_assert(count_ < slots_.size(), "ring buffer overflow");
        slots_[wrap(head_ + count_)] = v;
        ++count_;
    }

    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }
    T &back() { return slots_[wrap(head_ + count_ - 1)]; }
    const T &back() const { return slots_[wrap(head_ + count_ - 1)]; }

    T &operator[](std::size_t i) { return slots_[wrap(head_ + i)]; }
    const T &operator[](std::size_t i) const
    {
        return slots_[wrap(head_ + i)];
    }

    void
    pop_front()
    {
        wisc_assert(count_ > 0, "pop_front on empty ring");
        head_ = wrap(head_ + 1);
        --count_;
    }

    void
    pop_back()
    {
        wisc_assert(count_ > 0, "pop_back on empty ring");
        --count_;
    }

    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

  private:
    std::size_t
    wrap(std::size_t i) const
    {
        // Capacity is rarely a power of two, so avoid '%': i is always
        // < 2 * capacity here.
        return i >= slots_.size() ? i - slots_.size() : i;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

template <typename T>
class SlotPool
{
  public:
    using Id = std::uint32_t;

    /** Allocate exactly 'capacity' slots, all free. Called once per
     *  simulation run. */
    void
    reset(std::size_t capacity)
    {
        wisc_assert(capacity > 0, "slot pool needs a capacity");
        wisc_assert(capacity <= std::numeric_limits<Id>::max(),
                    "slot pool capacity ", capacity, " exceeds 32-bit ids");
        slots_.assign(capacity, T{});
        free_.resize(capacity);
        // Hand out id 0 first.
        for (std::size_t i = 0; i < capacity; ++i)
            free_[i] = static_cast<Id>(capacity - 1 - i);
        nfree_ = capacity;
    }

    std::size_t capacity() const { return slots_.size(); }
    /** Slots not currently held by anyone. */
    std::size_t available() const { return nfree_; }

    /** Take a free slot, reinitialized in place to T(). */
    Id
    acquire()
    {
        const Id id = take();
        T *slot = &slots_[id];
        slot->~T();
        ::new (static_cast<void *>(slot)) T();
        return id;
    }

    /** Take a free slot holding a copy of slot 'src'. */
    Id
    acquireCopy(Id src)
    {
        const Id id = take();
        slots_[id] = slots_[src];
        return id;
    }

    /** Return a slot taken by acquire()/acquireCopy(). */
    void
    release(Id id)
    {
        wisc_assert(id < slots_.size() && nfree_ < slots_.size(),
                    "slot pool release overflows the pool");
        free_[nfree_++] = id;
    }

    T &operator[](Id id) { return slots_[id]; }
    const T &operator[](Id id) const { return slots_[id]; }

  private:
    Id
    take()
    {
        wisc_assert(nfree_ > 0, "slot pool exhausted (", slots_.size(),
                    " slots)");
        return free_[--nfree_];
    }

    std::vector<T> slots_;
    /** Free ids in free_[0, nfree_), most recently released last; sized
     *  once by reset(), so release() never reallocates. */
    std::vector<Id> free_;
    std::size_t nfree_ = 0;
};

} // namespace wisc

#endif // WISC_COMMON_RING_HH_
