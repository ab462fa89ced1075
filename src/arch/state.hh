/**
 * @file
 * Architectural state: integer registers, predicate registers, and a
 * sparse paged byte-addressable memory.
 *
 * The same state object backs both the reference functional emulator and
 * the timing core's execute-at-fetch model (with UndoLog-based rollback),
 * so the two are semantically identical by construction.
 */

#ifndef WISC_ARCH_STATE_HH_
#define WISC_ARCH_STATE_HH_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/bytes.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "isa/program.hh"

namespace wisc {

/**
 * Sparse paged memory; unwritten bytes read as zero.
 *
 * A one-entry hot-page cache sits in front of the page map: loads and
 * stores cluster on a few pages, so most accesses skip the map lookup.
 * It only ever names a page the map owns, and is dropped whenever the
 * map is replaced (clear(), restoreState(), moves).
 */
class Memory
{
  public:
    static constexpr Addr kPageBits = 12;
    static constexpr Addr kPageSize = Addr(1) << kPageBits;

    Memory() = default;
    Memory(Memory &&o) noexcept;
    Memory &operator=(Memory &&o) noexcept;

    std::uint8_t readByte(Addr a) const;
    void writeByte(Addr a, std::uint8_t v);

    /** Little-endian 64-bit word access; may straddle pages. */
    UWord readWord(Addr a) const;
    void writeWord(Addr a, UWord v);

    /** Order-independent content hash of all touched pages
     *  (all-zero pages hash the same as untouched ones). */
    std::uint64_t fingerprint() const;

    /** Number of distinct pages ever written. */
    std::size_t numPages() const { return pages_.size(); }

    /** Base addresses of every page ever written, ascending. Lets a
     *  state-diff walk memory word-by-word (arch/state_diff.hh) without
     *  exposing page internals; untouched addresses read as zero. */
    std::vector<Addr> touchedPages() const;

    /** Serialize every touched page (checkpointing). */
    void saveState(ByteWriter &w) const;
    /** Replace the entire contents with a saved image. */
    void restoreState(ByteReader &r);

    /** Drop every page: all of memory reads as zero again. */
    void clear();

    /** Whether the hot-page cache currently names a page (lets tests
     *  check its invalidation points). */
    bool hotPageValid() const { return hotPage_ != nullptr; }

  private:
    using Page = std::array<std::uint8_t, kPageSize>;

    const Page *
    find(Addr a) const
    {
        const Addr idx = a >> kPageBits;
        if (hotPage_ && idx == hotIdx_)
            return hotPage_;
        return findSlow(idx);
    }

    Page &
    findOrCreate(Addr a)
    {
        const Addr idx = a >> kPageBits;
        if (hotPage_ && idx == hotIdx_)
            return *hotPage_;
        return findOrCreateSlow(idx);
    }

    const Page *findSlow(Addr idx) const;
    Page &findOrCreateSlow(Addr idx);

    std::map<Addr, std::unique_ptr<Page>> pages_;
    /** Hot-page cache: the last page found, owned by pages_. */
    mutable Page *hotPage_ = nullptr;
    mutable Addr hotIdx_ = 0;
};

/** Full architectural state. */
class ArchState
{
  public:
    ArchState() { reset(); }

    void reset();

    /** Seed memory from a program's data segments. */
    void loadData(const Program &prog);

    Word
    readReg(RegIdx r) const
    {
        return r == kRegZero ? 0 : regs_[r];
    }

    void
    writeReg(RegIdx r, Word v)
    {
        if (r != kRegZero)
            regs_[r] = v;
    }

    bool
    readPred(PredIdx p) const
    {
        return p == 0 ? true : preds_[p];
    }

    void
    writePred(PredIdx p, bool v)
    {
        if (p != 0)
            preds_[p] = v;
    }

    Memory &mem() { return mem_; }
    const Memory &mem() const { return mem_; }

    /** Serialize registers, predicates, and memory (checkpointing). */
    void saveState(ByteWriter &w) const;
    void restoreState(ByteReader &r);

  private:
    std::array<Word, kNumIntRegs> regs_;
    std::array<bool, kNumPredRegs> preds_;
    Memory mem_;
};

/**
 * Log of architectural side effects, enabling precise rollback of
 * speculatively executed instructions. Entries are popped in LIFO order
 * (rollback) or dropped oldest-first (commit).
 *
 * Storage is a power-of-two ring indexed by absolute position, so marks
 * never move and commit is a pointer bump. The ring doubles only when
 * every slot holds a live entry; once it has grown to the machine's
 * in-flight window, recording never allocates.
 */
class UndoLog
{
  public:
    /** Absolute position marker: the count of entries ever recorded at
     *  some point in time. Remains valid across commits. */
    using Mark = std::uint64_t;

    Mark mark() const { return top_; }

    void
    recordReg(RegIdx r, Word old)
    {
        push(Kind::Reg, r, 0, static_cast<UWord>(old));
    }

    void recordPred(PredIdx p, bool old) { push(Kind::Pred, p, 0, old); }

    void
    recordMem(Addr a, std::uint8_t size, UWord old)
    {
        push(Kind::Mem, size, a, old);
    }

    /** Undo every effect recorded after the mark. */
    void rollbackTo(Mark m, ArchState &state);

    /** Drop entries older than the mark (they can no longer be undone).
     *  Called at retirement to bound memory. */
    void
    commitTo(Mark m)
    {
        wisc_assert(m <= top_, "bad commit mark");
        if (m > base_)
            base_ = m;
    }

    /** Drop every entry without undoing it (a new run starts). Marks
     *  keep counting from where they were. */
    void clear() { base_ = top_; }

    /** Live (recorded, uncommitted, not rolled back) entries. */
    std::size_t size() const { return static_cast<std::size_t>(top_ - base_); }
    /** Ring slots currently allocated (a power of two, or 0). */
    std::size_t capacity() const { return ring_.size(); }

  private:
    enum class Kind : std::uint8_t { Reg, Pred, Mem };

    struct Entry
    {
        Kind kind;
        std::uint8_t idxOrSize;
        Addr addr;
        UWord old;
    };

    void
    push(Kind k, std::uint8_t idxOrSize, Addr a, UWord old)
    {
        if (top_ - base_ == ring_.size())
            grow();
        ring_[static_cast<std::size_t>(top_) & mask_] = {k, idxOrSize, a,
                                                          old};
        ++top_;
    }

    /** Double the ring (first use: kInitialCapacity), keeping every
     *  live entry at its absolute position. */
    void grow();

    static constexpr std::size_t kInitialCapacity = 256;

    std::vector<Entry> ring_;
    std::size_t mask_ = 0; ///< ring_.size() - 1 once allocated
    Mark base_ = 0;        ///< absolute index of the oldest live entry
    Mark top_ = 0;         ///< absolute index one past the newest
};

} // namespace wisc

#endif // WISC_ARCH_STATE_HH_
