/**
 * @file
 * The per-µop storage containers and the run-to-run reset contract.
 *
 *  - UndoLog's power-of-two ring: growth while entries are live,
 *    rollback across the wrap point, commit, and the committed-state
 *    guard;
 *  - SlotPool: in-place reinitialization, copies, exhaustion guard, and
 *    slot conservation inside the core across flushes that squash both
 *    the ROB and the fetch queue (small windows, select-µop expansion,
 *    merge-point dynamic predication);
 *  - Memory's hot-page cache: dropped on restoreState, reset and moves,
 *    never serving a page the map no longer owns;
 *  - machine state never leaking from one run into the next: a reused
 *    Core or Emulator must match a fresh one exactly;
 *  - zero-capacity machines rejected up front with a FatalError that
 *    names the field.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <utility>

#include "arch/emulator.hh"
#include "arch/state.hh"
#include "common/bytes.hh"
#include "common/ring.hh"
#include "common/stats.hh"
#include "compiler/driver.hh"
#include "harness/runner.hh"
#include "uarch/core.hh"
#include "uarch/probe.hh"
#include "workloads/workload.hh"

namespace wisc {
namespace {

// ---------------------------------------------------------------------
// UndoLog ring
// ---------------------------------------------------------------------

/** Registers, predicates and a few memory words, for comparing states. */
struct Snapshot
{
    std::array<Word, kNumIntRegs> regs{};
    std::array<bool, kNumPredRegs> preds{};
    std::array<UWord, 4> words{};

    static constexpr Addr kBase = 0x10000;

    static Snapshot
    of(const ArchState &s)
    {
        Snapshot n;
        for (unsigned r = 0; r < kNumIntRegs; ++r)
            n.regs[r] = s.readReg(static_cast<RegIdx>(r));
        for (unsigned p = 0; p < kNumPredRegs; ++p)
            n.preds[p] = s.readPred(static_cast<PredIdx>(p));
        for (unsigned i = 0; i < n.words.size(); ++i)
            n.words[i] = s.mem().readWord(kBase + 8 * i);
        return n;
    }

    bool
    operator==(const Snapshot &o) const
    {
        return regs == o.regs && preds == o.preds && words == o.words;
    }
};

/** Make 'n' logged writes, cycling through registers, predicates and
 *  memory words, each to a value derived from 'salt'. */
void
loggedWrites(ArchState &s, UndoLog &log, unsigned n, unsigned salt)
{
    for (unsigned i = 0; i < n; ++i) {
        const unsigned k = salt + i;
        switch (k % 3) {
          case 0: {
            const RegIdx r = static_cast<RegIdx>(1 + k % (kNumIntRegs - 1));
            log.recordReg(r, s.readReg(r));
            s.writeReg(r, static_cast<Word>(k) * 7919);
            break;
          }
          case 1: {
            const PredIdx p =
                static_cast<PredIdx>(1 + k % (kNumPredRegs - 1));
            log.recordPred(p, s.readPred(p));
            s.writePred(p, (k & 4) != 0);
            break;
          }
          default: {
            const Addr a = Snapshot::kBase + 8 * (k % 4);
            log.recordMem(a, 8, s.mem().readWord(a));
            s.mem().writeWord(a, static_cast<UWord>(k) * 104729);
            break;
          }
        }
    }
}

TEST(UndoRing, GrowsWhileLiveRollsBackAcrossWrapAndCommits)
{
    ArchState s;
    UndoLog log;

    // Fill, then commit most of it so the live window sits near the end
    // of the first ring allocation.
    loggedWrites(s, log, 200, 0);
    const std::size_t firstCap = log.capacity();
    ASSERT_GE(firstCap, 200u);
    log.commitTo(log.mark() - 20);
    ASSERT_EQ(log.size(), 20u);

    // Cross the wrap point without growing...
    const UndoLog::Mark beforeWrap = log.mark();
    const Snapshot atBeforeWrap = Snapshot::of(s);
    loggedWrites(s, log, firstCap - 40, 1000);
    EXPECT_EQ(log.capacity(), firstCap) << "grew before the ring was full";
    EXPECT_GT(log.mark() % firstCap, 0u);
    EXPECT_LT(log.mark() % firstCap, beforeWrap % firstCap)
        << "the live window does not straddle the wrap point";

    // ...then overfill, so the ring doubles while entries straddle it.
    const UndoLog::Mark mid = log.mark();
    const Snapshot atMid = Snapshot::of(s);
    loggedWrites(s, log, firstCap, 5000);
    EXPECT_GT(log.capacity(), firstCap);
    EXPECT_EQ(log.size(), static_cast<std::size_t>(log.mark() - beforeWrap) +
                              20);

    // Rolling back across the (old and new) wrap points restores every
    // value exactly, newest-first.
    log.rollbackTo(mid, s);
    EXPECT_TRUE(Snapshot::of(s) == atMid);
    log.rollbackTo(beforeWrap, s);
    EXPECT_TRUE(Snapshot::of(s) == atBeforeWrap);
    EXPECT_EQ(log.mark(), beforeWrap);

    // Commit everything; the grown ring is kept (no further growth for
    // the same window size) and the log keeps working.
    loggedWrites(s, log, 50, 9000);
    const std::size_t grownCap = log.capacity();
    log.commitTo(log.mark());
    EXPECT_EQ(log.size(), 0u);
    const Snapshot committed = Snapshot::of(s);
    const UndoLog::Mark m = log.mark();
    loggedWrites(s, log, static_cast<unsigned>(grownCap), 12000);
    EXPECT_EQ(log.capacity(), grownCap);
    log.rollbackTo(m, s);
    EXPECT_TRUE(Snapshot::of(s) == committed);
}

TEST(UndoRingDeathTest, RollbackBelowCommittedMarkAsserts)
{
    ArchState s;
    UndoLog log;
    loggedWrites(s, log, 10, 0);
    const UndoLog::Mark early = log.mark() - 5;
    log.commitTo(log.mark() - 2);
    EXPECT_DEATH(log.rollbackTo(early, s), "rolling back committed state");
    EXPECT_DEATH(log.rollbackTo(log.mark() + 1, s), "bad undo mark");
    EXPECT_DEATH(log.commitTo(log.mark() + 1), "bad commit mark");
}

TEST(UndoRing, ClearDropsEntriesAndKeepsMarksMonotone)
{
    ArchState s;
    UndoLog log;
    loggedWrites(s, log, 30, 0);
    const UndoLog::Mark m = log.mark();
    log.clear();
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.mark(), m);
    const Snapshot now = Snapshot::of(s);
    log.rollbackTo(m, s); // nothing to undo
    EXPECT_TRUE(Snapshot::of(s) == now);
}

// ---------------------------------------------------------------------
// SlotPool
// ---------------------------------------------------------------------

struct Rec
{
    int a = 7;
    std::uint64_t b = 0;
};

TEST(SlotPool, AcquireReinitializesAndCopies)
{
    SlotPool<Rec> pool;
    pool.reset(3);
    EXPECT_EQ(pool.capacity(), 3u);
    EXPECT_EQ(pool.available(), 3u);

    const auto x = pool.acquire();
    pool[x].a = 1;
    pool[x].b = 99;
    const auto y = pool.acquireCopy(x);
    EXPECT_NE(x, y);
    EXPECT_EQ(pool[y].a, 1);
    EXPECT_EQ(pool[y].b, 99u);
    EXPECT_EQ(pool.available(), 1u);

    // The most recently released slot is handed out next, reinitialized.
    pool.release(x);
    const auto z = pool.acquire();
    EXPECT_EQ(z, x);
    EXPECT_EQ(pool[z].a, 7);
    EXPECT_EQ(pool[z].b, 0u);
}

TEST(SlotPoolDeathTest, ExhaustionAndOverReleaseAssert)
{
    SlotPool<Rec> pool;
    pool.reset(2);
    const auto a = pool.acquire();
    pool.acquire();
    EXPECT_DEATH(pool.acquire(), "slot pool exhausted");
    pool.release(a);
    pool.release(a == 0 ? 1 : 0);
    EXPECT_DEATH(pool.release(0), "overflows the pool");
}

/** Checks, at every cycle boundary, that each pool slot is free or held
 *  by exactly one queue entry, and counts flushes that squashed µops
 *  from both the fetch queue and the ROB. flushAfter() squashes the
 *  fetch queue first, so of the squashes after a flush probe the first
 *  fetch-queue-occupancy many are fetch-queue µops, the rest ROB µops. */
class SlotAuditSink : public ProbeSink
{
  public:
    explicit SlotAuditSink(const Core &core) : core_(core) {}

    void
    onFlush(const FlushProbe &) override
    {
        settle();
        pending_ = true;
        fqAtFlush_ = core_.fetchQueueOccupancy();
        squashes_ = 0;
    }

    void onSquash(const SquashProbe &) override { ++squashes_; }

    void
    onCycle(const CycleProbe &) override
    {
        settle();
        ++cycles;
        if (core_.freeSlots() + core_.robOccupancy() +
                core_.fetchQueueOccupancy() !=
            core_.slotCapacity())
            ++violations;
    }

    std::uint64_t cycles = 0;
    std::uint64_t violations = 0;
    std::uint64_t flushes = 0;
    std::uint64_t bothSquashed = 0;

  private:
    void
    settle()
    {
        if (!pending_)
            return;
        pending_ = false;
        ++flushes;
        if (fqAtFlush_ > 0 && squashes_ > fqAtFlush_)
            ++bothSquashed;
    }

    const Core &core_;
    bool pending_ = false;
    std::size_t fqAtFlush_ = 0;
    std::uint64_t squashes_ = 0;
};

TEST(SlotPool, CoreConservesSlotsAcrossFlushes)
{
    struct Machine
    {
        const char *name;
        unsigned rob;
        PredMechanism mech;
        DynPredMode dyn;
        BinaryVariant variant;
    };
    const Machine machines[] = {
        {"rob8", 8, PredMechanism::CStyle, DynPredMode::Off,
         BinaryVariant::WishJumpJoinLoop},
        {"rob16", 16, PredMechanism::CStyle, DynPredMode::Off,
         BinaryVariant::WishJumpJoinLoop},
        {"rob8-select-mergepoint", 8, PredMechanism::SelectUop,
         DynPredMode::MergePoint, BinaryVariant::BaseMax},
        {"rob16-select-mergepoint", 16, PredMechanism::SelectUop,
         DynPredMode::MergePoint, BinaryVariant::Normal},
        {"rob512-select-mergepoint", 512, PredMechanism::SelectUop,
         DynPredMode::MergePoint, BinaryVariant::Normal},
    };
    for (const char *kernel : {"gzip", "vpr"}) {
        CompiledWorkload w = compileWorkload(kernel);
        for (const Machine &m : machines) {
            SCOPED_TRACE(std::string(kernel) + " " + m.name);
            Program prog = programFor(w, m.variant, InputSet::A);
            SimParams p;
            p.robSize = m.rob;
            p.iqSize = m.rob;
            p.lsqSize = m.rob;
            p.predMech = m.mech;
            p.dynPred = m.dyn;
            if (m.dyn != DynPredMode::Off) {
                p.wishEnabled = false;
                p.oracle.perfectConfidence = true; // trigger heavily
            }
            StatSet stats;
            Core core(p, stats);
            SlotAuditSink audit(core);
            core.addSink(&audit);
            SimResult r = core.run(prog);
            ASSERT_TRUE(r.halted);
            EXPECT_GT(audit.cycles, 0u);
            EXPECT_EQ(audit.violations, 0u);
            EXPECT_GT(audit.bothSquashed, 0u)
                << "no flush squashed both the ROB and the fetch queue ("
                << audit.flushes << " flushes)";
            EXPECT_EQ(core.slotCapacity(),
                      p.robSize + (p.frontEndDelay() + 2) * p.fetchWidth);
            EXPECT_EQ(core.freeSlots() + core.robOccupancy() +
                          core.fetchQueueOccupancy(),
                      core.slotCapacity());
            // An 8-entry ROB caps regions at 4 µops, too short for
            // these kernels' hammocks; from 16 entries regions open.
            if (m.dyn != DynPredMode::Off && m.rob >= 16) {
                EXPECT_GT(stats.get("dyn.triggers"), 0u);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Memory hot page
// ---------------------------------------------------------------------

TEST(MemoryHotPage, InvalidatedByRestoreState)
{
    Memory m;
    m.writeWord(0x2000, 1);
    ByteWriter w;
    m.saveState(w);
    std::vector<std::uint8_t> image = w.take();

    m.writeWord(0x2000, 2); // the page is hot now
    EXPECT_TRUE(m.hotPageValid());
    ByteReader r(image);
    m.restoreState(r);
    EXPECT_FALSE(m.hotPageValid());
    // The restored image, not the freed page the cache used to name.
    EXPECT_EQ(m.readWord(0x2000), 1u);
    EXPECT_EQ(m.readByte(0x2000), 1u);
    m.writeByte(0x2001, 3);
    EXPECT_EQ(m.readWord(0x2000), 0x301u);
}

TEST(MemoryHotPage, InvalidatedByResetAndMoves)
{
    ArchState s;
    s.mem().writeWord(0x3008, 42);
    EXPECT_TRUE(s.mem().hotPageValid());
    s.reset();
    EXPECT_FALSE(s.mem().hotPageValid());
    EXPECT_EQ(s.mem().readWord(0x3008), 0u) << "reset kept memory";
    EXPECT_EQ(s.mem().numPages(), 0u);

    Memory a;
    a.writeWord(0x4000, 5);
    Memory b(std::move(a));
    EXPECT_FALSE(a.hotPageValid());
    EXPECT_EQ(b.readWord(0x4000), 5u);
    Memory c;
    c.writeWord(0x5000, 6);
    c = std::move(b);
    EXPECT_FALSE(b.hotPageValid());
    EXPECT_EQ(c.readWord(0x4000), 5u);
    EXPECT_EQ(c.readWord(0x5000), 0u);
}

TEST(MemoryHotPage, StraddlingAndUntouchedAccessesStayExact)
{
    Memory m;
    const Addr edge = 2 * Memory::kPageSize - 3; // word spans two pages
    m.writeWord(edge, 0x1122334455667788ull);
    EXPECT_EQ(m.readWord(edge), 0x1122334455667788ull);
    EXPECT_EQ(m.readByte(2 * Memory::kPageSize), 0x55u);
    EXPECT_EQ(m.readWord(40 * Memory::kPageSize), 0u); // never written
    EXPECT_EQ(m.numPages(), 2u);
}

// ---------------------------------------------------------------------
// Run-to-run reset
// ---------------------------------------------------------------------

/** Every statistic in 'fresh' equals its twin in 'reused', and any
 *  statistic only the reused set registered is zero. */
void
expectSameStats(const StatSet &fresh, const StatSet &reused)
{
    for (const std::string &n : reused.counterNames())
        EXPECT_EQ(reused.get(n), fresh.get(n)) << n;
    for (const std::string &n : fresh.counterNames())
        EXPECT_TRUE(reused.has(n)) << n;
    for (const std::string &n : reused.histogramNames()) {
        const Histogram &hr = reused.require<Histogram>(n);
        if (hr.count() == 0)
            continue;
        const Histogram &hf = fresh.require<Histogram>(n);
        ASSERT_EQ(hr.numBuckets(), hf.numBuckets()) << n;
        for (std::size_t i = 0; i < hr.numBuckets(); ++i)
            EXPECT_EQ(hr.bucket(i), hf.bucket(i)) << n << "[" << i << "]";
    }
}

void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.halted, b.halted);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.retiredUops, b.retiredUops);
    EXPECT_EQ(a.resultReg, b.resultReg);
    EXPECT_EQ(a.memFingerprint, b.memFingerprint);
}

TEST(RunReset, ReusedCoreMatchesFreshCore)
{
    CompiledWorkload gzip = compileWorkload("gzip");
    CompiledWorkload vpr = compileWorkload("vpr");
    const Program target =
        programFor(gzip, BinaryVariant::WishJumpJoin, InputSet::A);
    const Program other =
        programFor(vpr, BinaryVariant::WishJumpJoinLoop, InputSet::B);

    SimParams p;
    StatSet freshStats;
    SimResult fresh;
    {
        Core core(p, freshStats);
        fresh = core.run(target);
    }

    // Same program twice, then after an unrelated program: the warm
    // predictor, caches, wish engine and memory of the earlier run must
    // not reach the measured one.
    for (const Program *first : {&target, &other}) {
        StatSet stats;
        Core core(p, stats);
        core.run(*first);
        stats.resetAll();
        SimResult again = core.run(target);
        expectSameResult(again, fresh);
        expectSameStats(freshStats, stats);
    }
}

TEST(RunReset, ReusedEmulatorMatchesFreshEmulator)
{
    CompiledWorkload vpr = compileWorkload("vpr");
    const Program a = programFor(vpr, BinaryVariant::Normal, InputSet::A);
    const Program b = programFor(vpr, BinaryVariant::Normal, InputSet::B);

    for (EmuDispatch d : {EmuDispatch::Threaded, EmuDispatch::Switch}) {
        Emulator fresh;
        EmuResult want = fresh.run(b, nullptr, Emulator::kDefaultMaxSteps, d);

        Emulator reused;
        reused.run(a, nullptr, Emulator::kDefaultMaxSteps, d);
        EmuResult got = reused.run(b, nullptr, Emulator::kDefaultMaxSteps, d);
        EXPECT_EQ(got.memFingerprint, want.memFingerprint);
        EXPECT_EQ(got.resultReg, want.resultReg);
        EXPECT_EQ(got.dynInsts, want.dynInsts);
        EXPECT_EQ(reused.state().mem().numPages(),
                  fresh.state().mem().numPages());
    }
}

// ---------------------------------------------------------------------
// Zero-capacity machines
// ---------------------------------------------------------------------

TEST(ZeroCapacity, RejectedUpFrontNamingTheField)
{
    CompiledWorkload w = compileWorkload("gzip");
    struct Case
    {
        const char *field;
        void (*zero)(SimParams &);
    };
    const Case cases[] = {
        {"robSize", [](SimParams &p) { p.robSize = 0; }},
        {"iqSize", [](SimParams &p) { p.iqSize = 0; }},
        {"fetchWidth", [](SimParams &p) { p.fetchWidth = 0; }},
    };
    for (const Case &c : cases) {
        for (auto policy : {RunRequest::CachePolicy::Bypass,
                            RunRequest::CachePolicy::Default}) {
            RunRequest req(w, BinaryVariant::Normal, InputSet::A);
            c.zero(req.params);
            req.cache = policy;
            try {
                run(req);
                ADD_FAILURE() << c.field << " = 0 was accepted";
            } catch (const FatalError &e) {
                EXPECT_NE(std::string(e.what()).find(c.field),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

} // namespace
} // namespace wisc
