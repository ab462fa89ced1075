/**
 * @file
 * Tests for the run-memoization subsystem (ctest label: cache):
 * fingerprint stability and sensitivity, in-process dedup semantics,
 * persistent round-trips that are bit-identical to fresh simulations,
 * corruption fallback (truncation, bit flips, version skew), and
 * several processes sharing one cache directory.
 *
 * The concurrency hammer lives in run_cache_concurrency_test.cc inside
 * the tsan-labeled wisc_parallel_tests binary.
 *
 * This binary has a custom main: re-exec'd with --cache-share-child it
 * becomes one of the processes of the shared-directory test (fork+exec,
 * because fork alone is unsafe in a threaded gtest process).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/hash.hh"
#include "common/log.hh"
#include "golden_runs.hh"
#include "harness/experiments.hh"
#include "harness/run_cache.hh"
#include "harness/runner.hh"
#include "workloads/workload.hh"

namespace wisc {
namespace {

namespace fs = std::filesystem;

/** Fresh temp directory per test, removed on destruction. */
class TempDir
{
  public:
    TempDir()
    {
        dir_ = fs::temp_directory_path() /
               ("wisc_cache_test_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter_++));
        fs::create_directories(dir_);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }
    std::string path() const { return dir_.string(); }

  private:
    static inline int counter_ = 0;
    fs::path dir_;
};

/** Minimal halting program whose checksum register (r4) carries seed. */
Program
tinyProgram(Word seed)
{
    Program p;
    p.append({.op = Opcode::Li, .rd = 4, .imm = seed});
    p.append({.op = Opcode::AddI, .rd = 4, .rs1 = 4, .imm = 1});
    p.append({.op = Opcode::Halt});
    return p;
}

void
expectOutcomesIdentical(const RunOutcome &a, const RunOutcome &b)
{
    EXPECT_EQ(a.result.halted, b.result.halted);
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.retiredUops, b.result.retiredUops);
    EXPECT_EQ(a.result.resultReg, b.result.resultReg);
    EXPECT_EQ(a.result.memFingerprint, b.result.memFingerprint);
    EXPECT_EQ(a.stats, b.stats);
    ASSERT_EQ(a.hists.size(), b.hists.size());
    for (const auto &kv : a.hists) {
        auto it = b.hists.find(kv.first);
        ASSERT_NE(it, b.hists.end()) << kv.first;
        EXPECT_EQ(kv.second.count, it->second.count) << kv.first;
        EXPECT_EQ(kv.second.buckets, it->second.buckets) << kv.first;
    }
    ASSERT_EQ(a.tables.size(), b.tables.size());
    for (const auto &kv : a.tables) {
        auto it = b.tables.find(kv.first);
        ASSERT_NE(it, b.tables.end()) << kv.first;
        EXPECT_EQ(kv.second.columns, it->second.columns) << kv.first;
        EXPECT_EQ(kv.second.rows, it->second.rows) << kv.first;
    }
}

// ---- fingerprints -----------------------------------------------------

TEST(HashTest, StreamingMatchesOneShotAndChunking)
{
    const char data[] = "wish branches";
    Hasher whole;
    whole.bytes(data, sizeof(data));
    Hasher split;
    split.bytes(data, 5);
    split.bytes(data + 5, sizeof(data) - 5);
    EXPECT_EQ(whole.digest(), split.digest());
    EXPECT_EQ(whole.digest(), hashBytes(data, sizeof(data)));
    EXPECT_NE(whole.digest(), hashBytes(data, sizeof(data) - 1));
}

TEST(FingerprintTest, ProgramFingerprintIsStableAndContentAddressed)
{
    // Two structurally identical builds hash identically.
    EXPECT_EQ(tinyProgram(7).fingerprint(), tinyProgram(7).fingerprint());
    // Any content change lands in the digest.
    EXPECT_NE(tinyProgram(7).fingerprint(), tinyProgram(8).fingerprint());

    Program extraData = tinyProgram(7);
    extraData.addData(0x20000, {1, 2, 3});
    EXPECT_NE(extraData.fingerprint(), tinyProgram(7).fingerprint());

    // Labels are listing metadata: relabeling must not invalidate
    // cached runs.
    Program labeled = tinyProgram(7);
    labeled.defineLabel("epilogue");
    EXPECT_EQ(labeled.fingerprint(), tinyProgram(7).fingerprint());
}

TEST(FingerprintTest, CompiledWorkloadFingerprintsAreReproducible)
{
    CompiledWorkload a = compileWorkload("gzip");
    CompiledWorkload b = compileWorkload("gzip");
    for (BinaryVariant v : kAllVariants) {
        Program pa = programFor(a, v, InputSet::A);
        Program pb = programFor(b, v, InputSet::A);
        EXPECT_EQ(pa.fingerprint(), pb.fingerprint())
            << variantName(v);
        // Different input data, same code: different fingerprint.
        Program pc = programFor(a, v, InputSet::C);
        EXPECT_NE(pa.fingerprint(), pc.fingerprint())
            << variantName(v);
    }
}

/** Every SimParams field must perturb the fingerprint: a field that
 *  does not land in the digest would let the cache replay a stale
 *  result for a different machine. The sizeof static_assert in
 *  params.cc forces this list to grow with the struct. */
TEST(FingerprintTest, EverySimParamsFieldPerturbsTheHash)
{
    struct FieldPerturbation
    {
        const char *name;
        std::function<void(SimParams &)> perturb;
    };
    const std::vector<FieldPerturbation> fields = {
        {"fetchWidth", [](SimParams &p) { ++p.fetchWidth; }},
        {"decodeWidth", [](SimParams &p) { ++p.decodeWidth; }},
        {"issueWidth", [](SimParams &p) { ++p.issueWidth; }},
        {"retireWidth", [](SimParams &p) { ++p.retireWidth; }},
        {"maxCondBrPerFetch",
         [](SimParams &p) { ++p.maxCondBrPerFetch; }},
        {"memPortsPerCycle", [](SimParams &p) { ++p.memPortsPerCycle; }},
        {"robSize", [](SimParams &p) { ++p.robSize; }},
        {"iqSize", [](SimParams &p) { ++p.iqSize; }},
        {"lsqSize", [](SimParams &p) { ++p.lsqSize; }},
        {"pipelineStages", [](SimParams &p) { ++p.pipelineStages; }},
        {"il1.sizeBytes", [](SimParams &p) { p.il1.sizeBytes *= 2; }},
        {"il1.ways", [](SimParams &p) { ++p.il1.ways; }},
        {"il1.lineBytes", [](SimParams &p) { p.il1.lineBytes *= 2; }},
        {"il1.hitLatency", [](SimParams &p) { ++p.il1.hitLatency; }},
        {"dl1.sizeBytes", [](SimParams &p) { p.dl1.sizeBytes *= 2; }},
        {"dl1.ways", [](SimParams &p) { ++p.dl1.ways; }},
        {"dl1.lineBytes", [](SimParams &p) { p.dl1.lineBytes *= 2; }},
        {"dl1.hitLatency", [](SimParams &p) { ++p.dl1.hitLatency; }},
        {"l2.sizeBytes", [](SimParams &p) { p.l2.sizeBytes *= 2; }},
        {"l2.ways", [](SimParams &p) { ++p.l2.ways; }},
        {"l2.lineBytes", [](SimParams &p) { p.l2.lineBytes *= 2; }},
        {"l2.hitLatency", [](SimParams &p) { ++p.l2.hitLatency; }},
        {"memLatency", [](SimParams &p) { ++p.memLatency; }},
        {"maxOutstandingMisses",
         [](SimParams &p) { ++p.maxOutstandingMisses; }},
        {"gshareEntries", [](SimParams &p) { p.gshareEntries *= 2; }},
        {"pasHistEntries", [](SimParams &p) { p.pasHistEntries *= 2; }},
        {"pasPatternEntries",
         [](SimParams &p) { p.pasPatternEntries *= 2; }},
        {"pasHistBits", [](SimParams &p) { ++p.pasHistBits; }},
        {"selectorEntries",
         [](SimParams &p) { p.selectorEntries *= 2; }},
        {"btbSets", [](SimParams &p) { p.btbSets *= 2; }},
        {"btbWays", [](SimParams &p) { ++p.btbWays; }},
        {"rasEntries", [](SimParams &p) { ++p.rasEntries; }},
        {"indirectEntries",
         [](SimParams &p) { p.indirectEntries *= 2; }},
        {"indirectHistBits",
         [](SimParams &p) { ++p.indirectHistBits; }},
        {"predictor",
         [](SimParams &p) { p.predictor = PredictorKind::Tage; }},
        {"bimodalEntries",
         [](SimParams &p) { p.bimodalEntries *= 2; }},
        {"twoLevelEntries",
         [](SimParams &p) { p.twoLevelEntries *= 2; }},
        {"twoLevelHistBits",
         [](SimParams &p) { ++p.twoLevelHistBits; }},
        {"tageTables", [](SimParams &p) { ++p.tageTables; }},
        {"tageEntriesLog2", [](SimParams &p) { ++p.tageEntriesLog2; }},
        {"tageTagBits", [](SimParams &p) { ++p.tageTagBits; }},
        {"tageMinHist", [](SimParams &p) { ++p.tageMinHist; }},
        {"tageMaxHist", [](SimParams &p) { --p.tageMaxHist; }},
        {"tageBaseEntriesLog2",
         [](SimParams &p) { ++p.tageBaseEntriesLog2; }},
        {"tageUsefulBits", [](SimParams &p) { ++p.tageUsefulBits; }},
        {"tageResetPeriod",
         [](SimParams &p) { p.tageResetPeriod *= 2; }},
        {"confSets", [](SimParams &p) { p.confSets *= 2; }},
        {"confWays", [](SimParams &p) { ++p.confWays; }},
        {"confHistBits", [](SimParams &p) { ++p.confHistBits; }},
        {"confCtrBits", [](SimParams &p) { ++p.confCtrBits; }},
        {"confThreshold", [](SimParams &p) { ++p.confThreshold; }},
        {"confTagBits", [](SimParams &p) { ++p.confTagBits; }},
        {"confMissIsHigh",
         [](SimParams &p) { p.confMissIsHigh = !p.confMissIsHigh; }},
        {"confKind",
         [](SimParams &p) { p.confKind = ConfKind::UpDown; }},
        {"udConfEntries", [](SimParams &p) { p.udConfEntries *= 2; }},
        {"udConfHistBits", [](SimParams &p) { ++p.udConfHistBits; }},
        {"udConfMax", [](SimParams &p) { ++p.udConfMax; }},
        {"udConfThreshold", [](SimParams &p) { ++p.udConfThreshold; }},
        {"udConfDownStep", [](SimParams &p) { ++p.udConfDownStep; }},
        {"latAlu", [](SimParams &p) { ++p.latAlu; }},
        {"latMul", [](SimParams &p) { ++p.latMul; }},
        {"latDiv", [](SimParams &p) { ++p.latDiv; }},
        {"latBranch", [](SimParams &p) { ++p.latBranch; }},
        {"latStoreForward", [](SimParams &p) { ++p.latStoreForward; }},
        {"predMech",
         [](SimParams &p) { p.predMech = PredMechanism::SelectUop; }},
        {"wishEnabled",
         [](SimParams &p) { p.wishEnabled = !p.wishEnabled; }},
        {"wishLoopBias",
         [](SimParams &p) { p.wishLoopBias = !p.wishLoopBias; }},
        {"dynPred",
         [](SimParams &p) { p.dynPred = DynPredMode::MergePoint; }},
        {"dynFetchGateCycles",
         [](SimParams &p) { ++p.dynFetchGateCycles; }},
        {"dynMergeEntries", [](SimParams &p) { ++p.dynMergeEntries; }},
        {"dynMergeMinConf", [](SimParams &p) { ++p.dynMergeMinConf; }},
        {"dynMaxRegionUops",
         [](SimParams &p) { ++p.dynMaxRegionUops; }},
        {"dynMergeTrackUops",
         [](SimParams &p) { ++p.dynMergeTrackUops; }},
        {"oracle.noDepend",
         [](SimParams &p) { p.oracle.noDepend = true; }},
        {"oracle.noFetch", [](SimParams &p) { p.oracle.noFetch = true; }},
        {"oracle.perfectCBP",
         [](SimParams &p) { p.oracle.perfectCBP = true; }},
        {"oracle.perfectConfidence",
         [](SimParams &p) { p.oracle.perfectConfidence = true; }},
        {"sampling.enabled",
         [](SimParams &p) { p.sampling.enabled = true; }},
        {"sampling.periodUops",
         [](SimParams &p) { ++p.sampling.periodUops; }},
        {"sampling.warmupUops",
         [](SimParams &p) { ++p.sampling.warmupUops; }},
        {"sampling.measureUops",
         [](SimParams &p) { ++p.sampling.measureUops; }},
        {"sampling.prefixUops",
         [](SimParams &p) { ++p.sampling.prefixUops; }},
        {"maxCycles", [](SimParams &p) { --p.maxCycles; }},
        {"maxRetired", [](SimParams &p) { --p.maxRetired; }},
        {"checkFinalState",
         [](SimParams &p) { p.checkFinalState = !p.checkFinalState; }},
        {"collectAttribution",
         [](SimParams &p) { p.collectAttribution = true; }},
        {"collectBranchProfile",
         [](SimParams &p) { p.collectBranchProfile = true; }},
        {"pollScheduler",
         [](SimParams &p) { p.pollScheduler = !p.pollScheduler; }},
    };

    const std::uint64_t base = SimParams{}.fingerprint();
    EXPECT_EQ(base, SimParams{}.fingerprint()); // stable

    for (const FieldPerturbation &f : fields) {
        SimParams p;
        f.perturb(p);
        EXPECT_NE(p.fingerprint(), base)
            << "field '" << f.name
            << "' does not land in SimParams::fingerprint()";
    }
}

// ---- in-process dedup -------------------------------------------------

TEST(RunServiceTest, PassThroughServiceAlwaysSimulates)
{
    RunService svc; // default: no memo, no disk
    Program p = tinyProgram(1);
    RunOutcome a = svc.run(p, SimParams{});
    RunOutcome b = svc.run(p, SimParams{});
    expectOutcomesIdentical(a, b);
    EXPECT_EQ(svc.stats().misses, 2u);
    EXPECT_EQ(svc.stats().dedupHits, 0u);
}

TEST(RunServiceTest, MemoizationRunsEachDistinctSimulationOnce)
{
    RunService svc;
    svc.setMemoize(true);
    Program p1 = tinyProgram(1);
    Program p2 = tinyProgram(2);

    RunOutcome first = svc.run(p1, SimParams{});
    RunOutcome again = svc.run(p1, SimParams{});
    RunOutcome other = svc.run(p2, SimParams{});
    expectOutcomesIdentical(first, again);
    EXPECT_NE(first.result.resultReg, other.result.resultReg);

    RunCacheStats s = svc.stats();
    EXPECT_EQ(s.misses, 2u);    // p1 and p2, once each
    EXPECT_EQ(s.dedupHits, 1u); // the repeat of p1
    EXPECT_EQ(s.diskHits, 0u);
}

TEST(RunServiceTest, MemoizedOutcomeMatchesFreshSimulation)
{
    RunService svc;
    svc.setMemoize(true);
    for (const GoldenRunSpec &spec : goldenRuns()) {
        CompiledWorkload w = compileWorkload(spec.workload);
        Program prog = programFor(w, spec.variant, spec.input);
        RunOutcome cached = svc.run(prog, spec.params);
        RunOutcome fresh = captureRun(prog, spec.params);
        expectOutcomesIdentical(cached, fresh);
    }
}

// ---- persistent layer -------------------------------------------------

TEST(RunCacheDiskTest, EncodeDecodeRoundTripsExactly)
{
    Program prog = tinyProgram(3);
    RunOutcome out = captureRun(prog, SimParams{});
    const RunKey key{prog.fingerprint(), SimParams{}.fingerprint()};

    std::string bytes = encodeRunOutcome(key, out);
    RunOutcome back;
    ASSERT_TRUE(decodeRunOutcome(bytes, key, back));
    expectOutcomesIdentical(out, back);

    // Wrong key: rejected (entry content-addressed by both hashes).
    RunOutcome scratch;
    EXPECT_FALSE(
        decodeRunOutcome(bytes, RunKey{key.prog + 1, key.params},
                         scratch));
    EXPECT_FALSE(
        decodeRunOutcome(bytes, RunKey{key.prog, key.params + 1},
                         scratch));
}

/** Runs that produce StatTables (attribution observability on) must
 *  survive the v2 entry format: encode/decode round-trips the tables
 *  exactly, and a second service replays them from disk. */
TEST(RunCacheDiskTest, AttributionTablesRoundTripAndReplayFromDisk)
{
    TempDir dir;
    CompiledWorkload w = compileWorkload("gzip");
    Program prog = programFor(w, BinaryVariant::WishJumpJoinLoop,
                              InputSet::A);
    SimParams p;
    p.collectAttribution = true;
    p.collectBranchProfile = true;

    RunService writer(dir.path());
    RunOutcome fresh = writer.run(prog, p);
    ASSERT_TRUE(fresh.stats.count("attrib.base"));
    ASSERT_TRUE(fresh.tables.count("core.branch_profile"));
    EXPECT_FALSE(fresh.tables.at("core.branch_profile").rows.empty());

    const RunKey key{prog.fingerprint(), p.fingerprint()};
    std::string bytes = encodeRunOutcome(key, fresh);
    RunOutcome back;
    ASSERT_TRUE(decodeRunOutcome(bytes, key, back));
    expectOutcomesIdentical(fresh, back);

    RunService reader(dir.path());
    RunOutcome replayed = reader.run(prog, p);
    EXPECT_EQ(reader.stats().diskHits, 1u);
    expectOutcomesIdentical(fresh, replayed);
}

TEST(RunCacheDiskTest, SecondServiceReplaysBitIdenticalOutcome)
{
    TempDir dir;
    CompiledWorkload w = compileWorkload("crafty");
    Program prog = programFor(w, BinaryVariant::WishJumpJoinLoop,
                              InputSet::A);

    RunService writer(dir.path());
    RunOutcome fresh = writer.run(prog, SimParams{});
    EXPECT_EQ(writer.stats().misses, 1u);
    ASSERT_TRUE(
        fs::exists(writer.entryPath(
            RunKey{prog.fingerprint(), SimParams{}.fingerprint()})));

    // A different service (≈ a different process) replays from disk.
    RunService reader(dir.path());
    RunOutcome replayed = reader.run(prog, SimParams{});
    EXPECT_EQ(reader.stats().diskHits, 1u);
    EXPECT_EQ(reader.stats().misses, 0u);
    expectOutcomesIdentical(fresh, replayed);
}

TEST(RunCacheDiskTest, TruncatedEntryFallsBackToFreshRun)
{
    TempDir dir;
    Program prog = tinyProgram(4);
    const RunKey key{prog.fingerprint(), SimParams{}.fingerprint()};

    RunOutcome fresh;
    {
        RunService svc(dir.path());
        fresh = svc.run(prog, SimParams{});
    }
    const std::string path = RunService(dir.path()).entryPath(key);
    ASSERT_TRUE(fs::exists(path));

    // Truncate the entry to half its size.
    const auto full = fs::file_size(path);
    fs::resize_file(path, full / 2);

    RunService svc(dir.path());
    RunOutcome recovered = svc.run(prog, SimParams{});
    expectOutcomesIdentical(fresh, recovered);
    RunCacheStats s = svc.stats();
    EXPECT_EQ(s.corrupt, 1u);
    EXPECT_EQ(s.diskHits, 0u);
    EXPECT_EQ(s.misses, 1u);
    // The fresh run repaired the entry.
    EXPECT_EQ(fs::file_size(path), full);
}

TEST(RunCacheDiskTest, BitFlippedEntryFallsBackToFreshRun)
{
    TempDir dir;
    Program prog = tinyProgram(5);
    const RunKey key{prog.fingerprint(), SimParams{}.fingerprint()};

    RunOutcome fresh;
    {
        RunService svc(dir.path());
        fresh = svc.run(prog, SimParams{});
    }
    const std::string path = RunService(dir.path()).entryPath(key);

    // Flip one bit in the middle of the payload.
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        bytes = buf.str();
    }
    bytes[bytes.size() / 2] ^= 0x10;
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
    }

    RunService svc(dir.path());
    RunOutcome recovered = svc.run(prog, SimParams{});
    expectOutcomesIdentical(fresh, recovered);
    EXPECT_EQ(svc.stats().corrupt, 1u);
    EXPECT_EQ(svc.stats().misses, 1u);
}

TEST(RunCacheDiskTest, VersionSkewIsRejectedNotMisread)
{
    TempDir dir;
    Program prog = tinyProgram(6);
    const RunKey key{prog.fingerprint(), SimParams{}.fingerprint()};

    {
        RunService svc(dir.path());
        svc.run(prog, SimParams{});
    }
    const std::string path = RunService(dir.path()).entryPath(key);

    // Bump the format version field (bytes 8..11, after the magic).
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8);
    char v99 = 99;
    f.write(&v99, 1);
    f.close();

    RunService svc(dir.path());
    RunOutcome out = svc.run(prog, SimParams{});
    EXPECT_TRUE(out.result.halted);
    EXPECT_EQ(svc.stats().corrupt, 1u);
    EXPECT_EQ(svc.stats().misses, 1u);
}

// ---- harness wiring ---------------------------------------------------

/** The global service never takes a cache directory from the
 *  environment (BenchCli resolves --cache / WISC_CACHE_DIR for the bench
 *  binaries), so unit tests and the golden StatSet simulate instead of
 *  replaying a user's disk cache. The run_service_global_ignores_cache_env
 *  ctest runs this case with WISC_CACHE_DIR set. */
TEST(RunServiceGlobalTest, IgnoresCacheDirEnvironment)
{
    RunService &svc = RunService::global();
    EXPECT_EQ(svc.cacheDir(), "");

    const char *env = std::getenv("WISC_CACHE_DIR");
    auto filesInEnvDir = [&] {
        std::size_t n = 0;
        std::error_code ec;
        if (env && fs::is_directory(env, ec))
            for ([[maybe_unused]] const auto &e : fs::directory_iterator(env))
                ++n;
        return n;
    };
    const std::size_t filesBefore = filesInEnvDir();
    const RunCacheStats before = svc.stats();

    CompiledWorkload w = compileWorkload("gzip");
    RunOutcome out = run(RunRequest(w, BinaryVariant::Normal, InputSet::A));
    EXPECT_TRUE(out.result.halted);

    const RunCacheStats after = svc.stats();
    EXPECT_EQ(after.misses - before.misses, 1u);
    EXPECT_EQ(after.diskHits - before.diskHits, 0u);
    EXPECT_EQ(after.diskWrites - before.diskWrites, 0u);
    EXPECT_EQ(filesInEnvDir(), filesBefore);
}

TEST(ExperimentGuardTest, EmptyBenchmarkListIsAHardError)
{
    EXPECT_THROW(runNormalizedExperiment({}, InputSet::A, SimParams{},
                                         /*benchmarks=*/{}, /*jobs=*/1),
                 FatalError);
}

/** The acceptance gate: a normalized experiment served entirely from a
 *  warm disk cache is bit-identical to one computed fresh. */
TEST(RunCacheDiskTest, NormalizedExperimentIsBitIdenticalWarmVsCold)
{
    TempDir dir;
    const std::vector<SeriesSpec> series = {
        {"wish-jjl", BinaryVariant::WishJumpJoinLoop, SimParams{}},
    };
    const std::vector<std::string> benches = {"gzip"};

    RunService &svc = RunService::global();
    const std::string oldDir = svc.cacheDir();
    const bool oldMemo = svc.memoize();

    svc.setCacheDir(dir.path());
    svc.setMemoize(false); // force the second pass to the disk layer
    NormalizedResults cold = runNormalizedExperiment(
        series, InputSet::A, SimParams{}, benches, 1);
    NormalizedResults warm = runNormalizedExperiment(
        series, InputSet::A, SimParams{}, benches, 1);

    svc.setCacheDir(oldDir);
    svc.setMemoize(oldMemo);

    ASSERT_EQ(cold.baseline.size(), warm.baseline.size());
    expectOutcomesIdentical(cold.baseline[0], warm.baseline[0]);
    expectOutcomesIdentical(cold.outcomes[0][0], warm.outcomes[0][0]);
    EXPECT_EQ(cold.relTime, warm.relTime);
}

// ---- several processes, one cache directory ---------------------------

/** The request set every sharing process runs: distinct real workload
 *  programs, identical across processes so their requests collide. */
std::vector<Program>
sharedPrograms()
{
    CompiledWorkload w = compileWorkload("mcf");
    return {programFor(w, BinaryVariant::Normal, InputSet::A),
            programFor(w, BinaryVariant::WishJumpJoin, InputSet::A),
            programFor(w, BinaryVariant::Normal, InputSet::C)};
}

/** Digest of everything the outcomes carry, taken over their cache
 *  encoding (the one RunOutcome interchange format). */
std::uint64_t
outcomesDigest(const std::vector<Program> &progs,
               const std::vector<RunOutcome> &outs)
{
    Hasher h;
    for (std::size_t i = 0; i < progs.size(); ++i)
        h.str(encodeRunOutcome(
            {progs[i].fingerprint(), SimParams{}.fingerprint()}, outs[i]));
    return h.digest();
}

/** One sharing process: run the set through a RunService rooted at
 *  cacheDir, starting at program `first` so that some processes read
 *  entries while others write them, and write "<digest> <corrupt>" to
 *  outFile. */
int
cacheShareChildMain(const std::string &cacheDir, std::size_t first,
                    const std::string &outFile)
{
    try {
        RunService svc(cacheDir);
        const std::vector<Program> progs = sharedPrograms();
        std::vector<RunOutcome> outs(progs.size());
        for (std::size_t i = 0; i < progs.size(); ++i) {
            const std::size_t j = (first + i) % progs.size();
            outs[j] = svc.run(progs[j], SimParams{});
        }
        std::ofstream out(outFile);
        out << outcomesDigest(progs, outs) << " " << svc.stats().corrupt
            << "\n";
        return out ? 0 : 3;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cache-share child failed: %s\n", e.what());
        return 4;
    }
}

/** Entries are published by atomic rename, so processes that share a
 *  cache directory never see each other's partial writes. */
TEST(RunCacheDiskTest, ForkedProcessesShareOneCacheBitIdentically)
{
    TempDir cache;
    TempDir outDir;
    constexpr int kChildren = 4;
    std::vector<pid_t> pids;
    std::vector<std::string> outFiles;
    for (int i = 0; i < kChildren; ++i) {
        outFiles.push_back(outDir.path() + "/child" + std::to_string(i));
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            ::execl("/proc/self/exe", "wisc_cache_tests",
                    "--cache-share-child", cache.path().c_str(),
                    std::to_string(i).c_str(), outFiles.back().c_str(),
                    (char *)nullptr);
            _exit(127);
        }
        pids.push_back(pid);
    }
    for (pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "child exited with status " << status;
    }

    // Every process saw exactly a local simulation's outcomes...
    const std::vector<Program> progs = sharedPrograms();
    std::vector<RunOutcome> fresh;
    for (const Program &prog : progs)
        fresh.push_back(captureRun(prog, SimParams{}));
    const std::uint64_t local = outcomesDigest(progs, fresh);
    for (const std::string &f : outFiles) {
        std::ifstream in(f);
        std::uint64_t digest = 0, corrupt = 0;
        ASSERT_TRUE(in >> digest >> corrupt) << f;
        EXPECT_EQ(digest, local) << f;
        EXPECT_EQ(corrupt, 0u) << f;
    }

    // ...and the directory holds the three entries, no temp files.
    std::size_t entries = 0;
    for (const auto &e : fs::directory_iterator(cache.path())) {
        EXPECT_EQ(e.path().filename().string().find(".tmp."),
                  std::string::npos)
            << e.path();
        ++entries;
    }
    EXPECT_EQ(entries, 3u);
}

} // namespace
} // namespace wisc

int
main(int argc, char **argv)
{
    if (argc == 5 && std::string(argv[1]) == "--cache-share-child")
        return wisc::cacheShareChildMain(argv[2], std::stoul(argv[3]),
                                         argv[4]);
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
