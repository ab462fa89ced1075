#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <thread>

#include "arch/emulator.hh"
#include "common/hash.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "harness/parallel_runner.hh"
#include "harness/run_cache.hh"
#include "harness/runner.hh"
#include "harness/sampled_runner.hh"
#include "workloads/workload.hh"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using wisc::BinaryVariant;
using wisc::InputSet;
using wisc::Program;
using wisc::RunOutcome;
using wisc::SimParams;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Percentile q in [0, 1], interpolated between the closest ranks. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
ratio(double a, double b)
{
    return b > 0.0 ? a / b : 0.0;
}

template <typename T>
void
permute(std::vector<T> &v, wisc::Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

void
fail(Result &r, const std::string &what)
{
    ++r.failed;
    if (r.failures.size() < 20)
        r.failures.push_back(what);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Setups per run; setup_s is their median. */
unsigned
setupReps(const Options &o)
{
    return o.small ? 1 : 15;
}

// ---- metrics ------------------------------------------------------------

/** Every per-layer metric with its unit, in output order. */
const std::vector<std::pair<std::string, std::string>> kLayerUnits = {
    {"compiler.compile_s", "s"},
    {"workloads.program_for_s", "s"},
    {"uarch.simulate_s", "s"},
    {"uarch.ns_per_cycle", "ns"},
    {"uarch.sim_p50_ms", "ms"},
    {"uarch.sim_p95_ms", "ms"},
    {"uarch.fetched_per_retired", "ratio"},
    {"uarch.flushes_per_kuop", "1/kuop"},
    {"uarch.pred_false_ratio", "ratio"},
    {"uarch.mispredicts_per_kuop", "1/kuop"},
    {"uarch.conf_high_ratio", "ratio"},
    {"uarch.wish_low_conf_ratio", "ratio"},
    {"uarch.dl1_miss_ratio", "ratio"},
    {"uarch.l2_misses_per_kuop", "1/kuop"},
    {"arch.ref_check_s", "s"},
    {"arch.emu_muops_per_s", "Muops/s"},
    {"harness.sampled.run_s", "s"},
    {"harness.sampled.windows", "count"},
    {"harness.sampled.detailed_share", "ratio"},
    {"harness.pool.queue_wait_p50_ms", "ms"},
    {"harness.pool.queue_wait_p95_ms", "ms"},
    {"harness.pool.busy_ratio", "ratio"},
    {"harness.run_cache.dedup_hits", "count"},
    {"harness.run_cache.disk_hits", "count"},
    {"harness.run_cache.misses", "count"},
    {"harness.run_cache.disk_writes", "count"},
    {"harness.run_cache.corrupt", "count"},
    {"harness.run_cache.encode_s", "s"},
    {"harness.run_cache.decode_s", "s"},
    {"harness.run_cache.entry_bytes", "bytes"},
    {"harness.run_cache.replay_us_per_entry", "us"},
    {"trace.wall_s", "s"},
    {"trace.layer_share", "ratio"},
};

/**
 * Per-layer values of one workload. Every metric starts at 0, which is
 * what a workload reports for a layer it makes no direct call into.
 */
class Layers
{
  public:
    Layers()
    {
        for (const auto &[name, unit] : kLayerUnits)
            values_[name] = 0.0;
    }

    double &
    operator[](const std::string &name)
    {
        auto it = values_.find(name);
        wisc_assert(it != values_.end(), "unknown layer metric ", name);
        return it->second;
    }

    std::vector<Metric>
    metrics() const
    {
        std::vector<Metric> out;
        for (const auto &[name, unit] : kLayerUnits)
            out.push_back({name, values_.at(name), unit});
        return out;
    }

  private:
    std::map<std::string, double> values_;
};

/** End-to-end metrics from the repeated timings; 'simulated' is the µop
 *  count one timed repetition simulates. */
void
setEndToEnd(Result &r, const std::vector<double> &setup,
            const std::vector<double> &wall, double simulated,
            const std::vector<double> &replay, double speedup)
{
    const double w = median(wall);
    r.endToEnd = {
        {"setup_s", median(setup), "s"},
        {"wall_s", w, "s"},
        {"sim_muops_per_s", ratio(simulated, w) / 1e6, "Muops/s"},
        {"replay_s", median(replay), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"wish_speedup", speedup, "x"},
    };
    r.samples = {{"setup_s", setup}, {"wall_s", wall}, {"replay_s", replay}};
}

/** Geomean over kernels of cycles(normal) / cycles(wish-jjl). */
double
wishSpeedup(const std::map<std::string, std::pair<double, double>> &cycles)
{
    double logSum = 0.0;
    for (const auto &[kernel, c] : cycles)
        logSum += std::log(ratio(c.first, c.second));
    return cycles.empty()
               ? 0.0
               : std::exp(logSum / static_cast<double>(cycles.size()));
}

/** Ratios of wasted and nullified work, summed over 'outs'. */
void
uarchRatios(const std::vector<const RunOutcome *> &outs, Layers &L)
{
    std::map<std::string, double> s;
    for (const RunOutcome *o : outs)
        for (const char *n :
             {"core.retired_uops", "core.fetched_uops", "core.flushes",
              "core.retired_pred_false", "core.branch_mispredicts",
              "conf.high_estimates", "conf.queries", "wish.low_conf_entries",
              "wish.high_conf_entries", "mem.dl1.hits", "mem.dl1.misses",
              "mem.l2.misses"})
            s[n] += static_cast<double>(o->stat(n));
    const double uops = s["core.retired_uops"];
    L["uarch.fetched_per_retired"] = ratio(s["core.fetched_uops"], uops);
    L["uarch.flushes_per_kuop"] = ratio(1e3 * s["core.flushes"], uops);
    L["uarch.pred_false_ratio"] = ratio(s["core.retired_pred_false"], uops);
    L["uarch.mispredicts_per_kuop"] =
        ratio(1e3 * s["core.branch_mispredicts"], uops);
    L["uarch.conf_high_ratio"] =
        ratio(s["conf.high_estimates"], s["conf.queries"]);
    L["uarch.wish_low_conf_ratio"] =
        ratio(s["wish.low_conf_entries"],
              s["wish.low_conf_entries"] + s["wish.high_conf_entries"]);
    L["uarch.dl1_miss_ratio"] =
        ratio(s["mem.dl1.misses"], s["mem.dl1.misses"] + s["mem.dl1.hits"]);
    L["uarch.l2_misses_per_kuop"] = ratio(1e3 * s["mem.l2.misses"], uops);
}

// ---- digest -------------------------------------------------------------

void
hashOutcome(wisc::Hasher &h, const RunOutcome &o)
{
    h.b(o.result.halted);
    h.u64(o.result.cycles);
    h.u64(o.result.retiredUops);
    h.i64(o.result.resultReg);
    h.u64(o.result.memFingerprint);
    h.u64(o.stats.size());
    for (const auto &[name, v] : o.stats) {
        h.str(name);
        h.u64(v);
    }
    h.u64(o.hists.size());
    for (const auto &[name, hist] : o.hists) {
        h.str(name);
        h.u64(hist.count);
        h.u64(hist.buckets.size());
        for (std::uint64_t b : hist.buckets)
            h.u64(b);
    }
    h.u64(o.tables.size());
    for (const auto &[name, t] : o.tables) {
        h.str(name);
        h.u64(t.columns.size());
        for (const std::string &c : t.columns)
            h.str(c);
        h.u64(t.rows.size());
        for (const auto &[key, row] : t.rows) {
            h.u64(key);
            h.u64(row.size());
            for (std::uint64_t v : row)
                h.u64(v);
        }
    }
}

struct Labelled
{
    std::string label; ///< unique, seed-independent request name
    const RunOutcome *out = nullptr;
};

/** Digest plus total simulated cycles and µops of 'items', hashed in
 *  label order so the request order (the seed) cannot change it. */
struct Digest
{
    std::uint64_t hash = 0;
    std::uint64_t cycles = 0;
    std::uint64_t uops = 0;

    bool
    operator==(const Digest &o) const
    {
        return hash == o.hash && cycles == o.cycles && uops == o.uops;
    }
};

Digest
digestOf(std::vector<Labelled> items)
{
    std::sort(items.begin(), items.end(),
              [](const Labelled &a, const Labelled &b) {
                  return a.label < b.label;
              });
    wisc::Hasher h;
    Digest d;
    for (const Labelled &it : items) {
        h.str(it.label);
        hashOutcome(h, *it.out);
        d.cycles += it.out->result.cycles;
        d.uops += it.out->result.retiredUops;
    }
    h.u64(d.cycles);
    h.u64(d.uops);
    d.hash = h.digest();
    return d;
}

/** Record the first pass's digest; fail any later pass that differs. */
void
checkDigest(Result &r, const Digest &d, bool first)
{
    if (first) {
        r.digest = d.hash;
        r.simCycles = d.cycles;
        r.simUops = d.uops;
    } else if (!(d == Digest{r.digest, r.simCycles, r.simUops})) {
        fail(r, "a repeated pass produced different simulated results");
    }
}

/** Every binary variant of one kernel on one input and machine must
 *  end in the same architectural state. */
void
checkVariantsAgree(Result &r,
                   const std::vector<std::pair<std::string,
                                               const RunOutcome *>> &group)
{
    std::map<std::string, const RunOutcome *> first;
    for (const auto &[key, out] : group) {
        auto [it, fresh] = first.emplace(key, out);
        if (!fresh && (it->second->result.resultReg != out->result.resultReg ||
                       it->second->result.memFingerprint !=
                           out->result.memFingerprint))
            fail(r, key + ": binary variants disagree on the final state");
    }
}

// ---- spans --------------------------------------------------------------

/** One root span of a repeated phase, with the self time of every span
 *  beneath it summed by name. */
struct RootSummary
{
    double duration = 0.0;
    std::map<std::string, double> self;
    /** Self time of every span under the root, the root excluded. */
    double childSelf = 0.0;
};

std::vector<RootSummary>
summarize(const Tracer &tr, const std::string &rootName)
{
    const std::vector<Span> spans = tr.spans();
    const std::vector<double> self = selfTimes(spans);
    std::vector<RootSummary> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent >= 0 || spans[i].name != rootName)
            continue;
        RootSummary r;
        r.duration = spans[i].end - spans[i].start;
        r.self = selfTimeByName(spans, self, static_cast<std::int64_t>(i));
        for (const auto &[name, t] : r.self)
            if (name != rootName)
                r.childSelf += t;
        out.push_back(std::move(r));
    }
    return out;
}

/** Median over roots of the self time spent in spans called 'name'. */
double
medianSelf(const std::vector<RootSummary> &roots, const std::string &name)
{
    std::vector<double> v;
    for (const RootSummary &r : roots) {
        auto it = r.self.find(name);
        v.push_back(it == r.self.end() ? 0.0 : it->second);
    }
    return median(v);
}

/** trace.wall_s and trace.layer_share from the timed phase's roots. */
void
traceLayers(const std::vector<RootSummary> &roots, Layers &L)
{
    std::vector<double> wall, share;
    for (const RootSummary &r : roots) {
        wall.push_back(r.duration);
        share.push_back(ratio(r.childSelf, r.duration));
    }
    L["trace.wall_s"] = median(wall);
    L["trace.layer_share"] = median(share);
}

// ---- run cache: store, replay, codec --------------------------------------

/** One outcome as the run cache keys and stores it. */
struct CacheItem
{
    std::string label;
    const Program *prog = nullptr;
    SimParams params;
    const RunOutcome *want = nullptr;

    wisc::RunKey
    key() const
    {
        return {prog->fingerprint(), params.fingerprint()};
    }
};

/** Write every item's outcome into 'dir' as RunService stores it. */
void
populate(const std::vector<CacheItem> &items, const std::string &dir)
{
    const wisc::RunService locator(dir);
    for (const CacheItem &it : items) {
        const std::filesystem::path path = locator.entryPath(it.key());
        std::filesystem::create_directories(path.parent_path());
        const std::string bytes = wisc::encodeRunOutcome(it.key(), *it.want);
        std::ofstream os(path, std::ios::binary);
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        if (!os)
            wisc_fatal("cannot write run-cache entry ", path.string());
    }
}

struct ReplayLog
{
    std::vector<double> seconds; ///< one entry per replay
    wisc::RunCacheStats stats;   ///< of the last replay
};

/**
 * Replay every item 'reps' times, each time through a fresh RunService
 * over the populated 'dir'. A replay must only read: every outcome has
 * to encode to the same bytes as the outcome it was stored from, and
 * nothing may be simulated or rejected.
 */
void
replay(const std::vector<CacheItem> &items, const std::string &dir,
       unsigned reps, Tracer &tr, Result &res, ReplayLog &log)
{
    std::vector<wisc::RunKey> keys;
    std::vector<std::string> want;
    for (const CacheItem &it : items) {
        keys.push_back(it.key());
        want.push_back(wisc::encodeRunOutcome(keys.back(), *it.want));
    }
    std::vector<RunOutcome> got(items.size());
    for (unsigned rep = 0; rep < reps; ++rep) {
        std::vector<std::string> errs(items.size());
        wisc::RunService svc(dir);
        const Clock::time_point t0 = Clock::now();
        {
            Scope root(tr, "replay", -1, rep);
            for (std::size_t i = 0; i < items.size(); ++i) {
                Scope s(tr, "harness.run_cache.replay", root.id(), i);
                try {
                    got[i] = svc.run(*items[i].prog, items[i].params);
                } catch (const std::exception &e) {
                    errs[i] = e.what();
                }
            }
        }
        log.seconds.push_back(secondsSince(t0));
        log.stats = svc.stats();
        res.attempted += items.size();
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (!errs[i].empty())
                fail(res, items[i].label + ": replay failed: " + errs[i]);
            else if (wisc::encodeRunOutcome(keys[i], got[i]) != want[i])
                fail(res, items[i].label +
                              ": replayed outcome differs from the stored one");
        }
        if (log.stats.misses || log.stats.corrupt)
            fail(res, "a replay simulated or rejected entries instead of "
                      "reading them");
    }
}

/** Replay-side per-layer metrics. */
void
replayLayers(const ReplayLog &log, std::size_t requests, Layers &L)
{
    L["harness.run_cache.dedup_hits"] += log.stats.dedupHits;
    L["harness.run_cache.disk_hits"] += log.stats.diskHits;
    L["harness.run_cache.misses"] += log.stats.misses;
    L["harness.run_cache.disk_writes"] += log.stats.diskWrites;
    L["harness.run_cache.corrupt"] += log.stats.corrupt;
    L["harness.run_cache.replay_us_per_entry"] =
        1e6 * ratio(median(log.seconds), static_cast<double>(requests));
}

/** Encode and decode each distinct outcome a few times; per-layer
 *  codec time is the median over repetitions of the summed calls. */
void
codecLayers(const std::vector<CacheItem> &items, Tracer &tr, Result &res,
            Layers &L)
{
    std::vector<const CacheItem *> distinct;
    std::set<wisc::RunKey> seen;
    for (const CacheItem &it : items)
        if (seen.insert(it.key()).second)
            distinct.push_back(&it);
    double bytes = 0.0;
    for (unsigned rep = 0; rep < 5; ++rep) {
        Scope root(tr, "codec", -1, rep);
        for (std::size_t i = 0; i < distinct.size(); ++i) {
            const wisc::RunKey key = distinct[i]->key();
            std::string enc;
            {
                Scope s(tr, "harness.run_cache.encode", root.id(), i);
                enc = wisc::encodeRunOutcome(key, *distinct[i]->want);
            }
            RunOutcome back;
            bool ok = false;
            {
                Scope s(tr, "harness.run_cache.decode", root.id(), i);
                ok = wisc::decodeRunOutcome(enc, key, back);
            }
            if (!ok)
                fail(res, distinct[i]->label + ": entry does not decode");
            if (rep == 0)
                bytes += static_cast<double>(enc.size());
        }
    }
    const auto roots = summarize(tr, "codec");
    L["harness.run_cache.encode_s"] =
        medianSelf(roots, "harness.run_cache.encode");
    L["harness.run_cache.decode_s"] =
        medianSelf(roots, "harness.run_cache.decode");
    L["harness.run_cache.entry_bytes"] =
        ratio(bytes, static_cast<double>(distinct.size()));
}

std::string
label(const std::string &kernel, BinaryVariant v, InputSet in)
{
    return kernel + "/" + wisc::variantName(v) + "/" + wisc::inputSetName(in);
}

/** The kernels a workload runs, in seed order. */
std::vector<std::string>
kernelOrder(const Options &o, std::size_t smallCount, wisc::Rng &rng)
{
    std::vector<std::string> k = wisc::workloadNames();
    if (o.small)
        k.resize(smallCount);
    permute(k, rng);
    return k;
}

/** The final-state check the core makes when checkFinalState is on:
 *  the reference emulator gets at least as many steps as the core
 *  retired, then must halt with the same register and memory. */
wisc::EmuResult
referenceRun(const Program &prog, std::uint64_t retired)
{
    wisc::Emulator ref;
    const std::uint64_t steps = std::max<std::uint64_t>(
        wisc::Emulator::kDefaultMaxSteps,
        retired == UINT64_MAX ? retired : retired + 1);
    return ref.run(prog, nullptr, steps);
}

// ---- core-serial ----------------------------------------------------------

Result
coreSerial(const Options &o, Tracer &tr)
{
    Result res;
    Layers L;
    wisc::Rng rng(o.seed);
    const std::vector<std::string> kernels = kernelOrder(o, 3, rng);
    const std::vector<BinaryVariant> variants = {
        BinaryVariant::Normal, BinaryVariant::BaseMax,
        BinaryVariant::WishJumpJoinLoop};

    std::vector<Program> programs; // kernel-major, one per variant
    std::vector<double> setupTimes;
    for (unsigned rep = 0; rep < setupReps(o); ++rep) {
        programs.clear();
        const Clock::time_point t0 = Clock::now();
        Scope root(tr, "setup", -1, rep);
        for (const std::string &k : kernels) {
            wisc::CompiledWorkload w;
            {
                Scope s(tr, "compiler.compile", root.id());
                w = wisc::compileWorkload(k);
            }
            for (BinaryVariant v : variants) {
                Scope s(tr, "workloads.program_for", root.id());
                programs.push_back(wisc::programFor(w, v, InputSet::A));
            }
        }
        setupTimes.push_back(secondsSince(t0));
    }

    struct Job
    {
        std::string kernel;
        BinaryVariant variant;
        const Program *prog;
    };
    std::vector<Job> jobs;
    for (std::size_t k = 0; k < kernels.size(); ++k)
        for (std::size_t v = 0; v < variants.size(); ++v)
            jobs.push_back({kernels[k], variants[v],
                            &programs[k * variants.size() + v]});

    // The traced run turns the in-core final-state check off and makes
    // the identical comparison itself, so its cost shows as its own
    // layer (arch.ref_check_s).
    SimParams params;
    params.checkFinalState = !o.trace;

    std::vector<RunOutcome> outs(jobs.size());
    std::vector<double> passTimes, simMs;
    std::uint64_t emuInsts = 0;
    const Clock::time_point start = Clock::now();
    do {
        // A fresh request order per pass, so the median spans several.
        permute(jobs, rng);
        const Clock::time_point t0 = Clock::now();
        std::uint64_t passEmu = 0;
        {
            Scope root(tr, "pass", -1, passTimes.size());
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                const Job &j = jobs[i];
                const std::string name = label(j.kernel, j.variant,
                                               InputSet::A);
                ++res.attempted;
                try {
                    const Clock::time_point s0 = Clock::now();
                    {
                        Scope s(tr, "uarch.simulate", root.id(), i);
                        wisc::RunRequest req(*j.prog, params);
                        req.cache = wisc::RunRequest::CachePolicy::Bypass;
                        outs[i] = wisc::run(req);
                    }
                    simMs.push_back(1e3 * secondsSince(s0));
                    const wisc::SimResult &r = outs[i].result;
                    if (!r.halted) {
                        fail(res, name + ": did not halt");
                        continue;
                    }
                    if (!o.trace)
                        continue;
                    wisc::EmuResult ref;
                    {
                        Scope s(tr, "arch.ref_check", root.id(), i);
                        ref = referenceRun(*j.prog, r.retiredUops);
                    }
                    passEmu += ref.dynInsts;
                    if (!ref.halted || ref.resultReg != r.resultReg ||
                        ref.memFingerprint != r.memFingerprint)
                        fail(res, name + ": final state differs from the "
                                         "reference emulator");
                } catch (const std::exception &e) {
                    fail(res, name + ": " + e.what());
                }
            }
        }
        passTimes.push_back(secondsSince(t0));
        emuInsts = passEmu;

        std::vector<Labelled> items;
        std::vector<std::pair<std::string, const RunOutcome *>> groups;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            items.push_back(
                {label(jobs[i].kernel, jobs[i].variant, InputSet::A),
                 &outs[i]});
            groups.emplace_back(jobs[i].kernel, &outs[i]);
        }
        checkDigest(res, digestOf(items), passTimes.size() == 1);
        checkVariantsAgree(res, groups);
    } while (!o.small && secondsSince(start) + passTimes.back() <= o.seconds);

    std::vector<const RunOutcome *> all;
    std::map<std::string, std::pair<double, double>> cycles;
    std::vector<CacheItem> items;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Job &j = jobs[i];
        all.push_back(&outs[i]);
        const double c = static_cast<double>(outs[i].result.cycles);
        if (j.variant == BinaryVariant::Normal)
            cycles[j.kernel].first = c;
        if (j.variant == BinaryVariant::WishJumpJoinLoop)
            cycles[j.kernel].second = c;
        items.push_back({label(j.kernel, j.variant, InputSet::A), j.prog,
                         params, &outs[i]});
    }

    const std::string dir = o.scratchDir + "/core-serial-cache";
    std::filesystem::remove_all(dir);
    populate(items, dir);
    ReplayLog log;
    replay(items, dir, o.small ? 2 : 100, tr, res, log);
    std::filesystem::remove_all(dir);

    setEndToEnd(res, setupTimes, passTimes,
                static_cast<double>(res.simUops), log.seconds,
                wishSpeedup(cycles));

    if (o.trace) {
        const auto setup = summarize(tr, "setup");
        const auto passes = summarize(tr, "pass");
        L["compiler.compile_s"] = medianSelf(setup, "compiler.compile");
        L["workloads.program_for_s"] =
            medianSelf(setup, "workloads.program_for");
        L["uarch.simulate_s"] = medianSelf(passes, "uarch.simulate");
        L["uarch.ns_per_cycle"] =
            1e9 * ratio(L["uarch.simulate_s"],
                        static_cast<double>(res.simCycles));
        L["uarch.sim_p50_ms"] = percentile(simMs, 0.50);
        L["uarch.sim_p95_ms"] = percentile(simMs, 0.95);
        uarchRatios(all, L);
        L["arch.ref_check_s"] = medianSelf(passes, "arch.ref_check");
        L["arch.emu_muops_per_s"] =
            ratio(static_cast<double>(emuInsts), L["arch.ref_check_s"]) /
            1e6;
        replayLayers(log, items.size(), L);
        codecLayers(items, tr, res, L);
        traceLayers(passes, L);
    }
    res.perLayer = L.metrics();
    return res;
}

// ---- matrix ---------------------------------------------------------------

Result
matrix(const Options &o, Tracer &tr)
{
    Result res;
    Layers L;
    wisc::Rng rng(o.seed);
    const std::vector<std::string> kernels = kernelOrder(o, 2, rng);

    std::vector<wisc::CompiledWorkload> compiled;
    std::vector<double> setupTimes;
    for (unsigned rep = 0; rep < setupReps(o); ++rep) {
        compiled.clear();
        const Clock::time_point t0 = Clock::now();
        Scope root(tr, "setup", -1, rep);
        for (const std::string &k : kernels) {
            Scope s(tr, "compiler.compile", root.id());
            compiled.push_back(wisc::compileWorkload(k));
        }
        setupTimes.push_back(secondsSince(t0));
    }

    struct Job
    {
        std::size_t kernel;
        BinaryVariant variant;
        InputSet input;
        SimParams params;
        std::string label;
    };
    std::vector<Job> jobs;
    for (std::size_t k = 0; k < kernels.size(); ++k)
        for (BinaryVariant v : wisc::kAllVariants)
            for (InputSet in : {InputSet::A, InputSet::B, InputSet::C})
                for (unsigned rob : {128u, 512u}) {
                    SimParams p;
                    p.robSize = rob;
                    p.iqSize = rob / 4;
                    p.lsqSize = rob / 2;
                    jobs.push_back({k, v, in, p,
                                    label(kernels[k], v, in) + "/rob" +
                                        std::to_string(rob)});
                }
    const std::size_t n = jobs.size();

    res.workers = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    wisc::ParallelRunner pool(res.workers);

    struct TaskTimes
    {
        double submit = 0, start = 0, end = 0, runStart = 0, runEnd = 0;
    };
    std::vector<RunOutcome> outs(n);
    std::vector<Program> progs(n);
    std::vector<double> coldTimes, replayTimes, simulateS, simMs, waitMs,
        busy;
    std::map<wisc::RunKey, std::size_t> producer;
    wisc::RunCacheStats coldStats, warmStats;
    const std::string dir = o.scratchDir + "/matrix-cache";
    const Clock::time_point start = Clock::now();
    double lastIter = 0.0;
    do {
        // A fresh request order per cold phase, so the median spans
        // several.
        permute(jobs, rng);
        const Clock::time_point it0 = Clock::now();
        std::filesystem::remove_all(dir);
        std::vector<TaskTimes> tt(n);
        std::vector<std::string> errs(n);
        {
            wisc::RunService svc(dir);
            const Clock::time_point t0 = Clock::now();
            {
                Scope root(tr, "cold", -1, coldTimes.size());
                const std::int64_t rootId = root.id();
                std::vector<std::future<void>> done;
                done.reserve(n);
                for (std::size_t i = 0; i < n; ++i) {
                    tt[i].submit = tr.now();
                    done.push_back(pool.submit([&, i, rootId] {
                        tt[i].start = tr.now();
                        Scope task(tr, "harness.pool.task", rootId, i);
                        const Job &j = jobs[i];
                        try {
                            {
                                Scope s(tr, "workloads.program_for",
                                        task.id(), i);
                                progs[i] = wisc::programFor(
                                    compiled[j.kernel], j.variant, j.input);
                            }
                            tt[i].runStart = tr.now();
                            {
                                Scope s(tr, "harness.run_service.run",
                                        task.id(), i);
                                outs[i] = svc.run(progs[i], j.params);
                            }
                            tt[i].runEnd = tr.now();
                        } catch (const std::exception &e) {
                            errs[i] = e.what();
                        }
                        tt[i].end = tr.now();
                    }));
                }
                for (std::future<void> &f : done)
                    f.get();
            }
            coldTimes.push_back(secondsSince(t0));
            coldStats = svc.stats();
        }

        // The first request of each key to reach the service simulates
        // it; later ones join or read the memoized outcome.
        producer.clear();
        std::vector<Labelled> items;
        std::vector<std::pair<std::string, const RunOutcome *>> groups;
        res.attempted += n;
        for (std::size_t i = 0; i < n; ++i) {
            const Job &j = jobs[i];
            if (!errs[i].empty()) {
                fail(res, j.label + ": " + errs[i]);
                continue;
            }
            if (!outs[i].result.halted)
                fail(res, j.label + ": did not halt");
            const wisc::RunKey key{progs[i].fingerprint(),
                                   j.params.fingerprint()};
            auto [it, fresh] = producer.emplace(key, i);
            if (!fresh && tt[i].runStart < tt[it->second].runStart)
                it->second = i;
            items.push_back({j.label, &outs[i]});
            groups.emplace_back(kernels[j.kernel] + "/" +
                                    wisc::inputSetName(j.input) + "/rob" +
                                    std::to_string(j.params.robSize),
                                &outs[i]);
        }
        checkDigest(res, digestOf(items), coldTimes.size() == 1);
        checkVariantsAgree(res, groups);
        if (coldStats.misses != producer.size() || coldStats.diskHits ||
            coldStats.misses + coldStats.dedupHits != n ||
            coldStats.diskWrites != coldStats.misses)
            fail(res, "the cold phase did not simulate each distinct "
                      "request exactly once");

        double sim = 0.0;
        for (const auto &[key, i] : producer) {
            const double d = tt[i].runEnd - tt[i].runStart;
            sim += d;
            simMs.push_back(1e3 * d);
        }
        simulateS.push_back(sim);
        double taskTime = 0.0;
        for (const TaskTimes &t : tt) {
            waitMs.push_back(1e3 * (t.start - t.submit));
            taskTime += t.end - t.start;
        }
        busy.push_back(ratio(taskTime, res.workers * coldTimes.back()));

        std::vector<CacheItem> cache;
        for (std::size_t i = 0; i < n; ++i)
            cache.push_back({jobs[i].label, &progs[i], jobs[i].params,
                             &outs[i]});
        ReplayLog warm;
        replay(cache, dir, o.small ? 2 : 20, tr, res, warm);
        replayTimes.insert(replayTimes.end(), warm.seconds.begin(),
                           warm.seconds.end());
        warmStats = warm.stats;
        if (o.trace && coldTimes.size() == 1)
            codecLayers(cache, tr, res, L);
        std::filesystem::remove_all(dir);
        lastIter = secondsSince(it0);
    } while (!o.small && secondsSince(start) + lastIter <= o.seconds);

    std::uint64_t simulatedUops = 0;
    double simulatedCycles = 0.0;
    std::vector<const RunOutcome *> distinct;
    for (const auto &[key, i] : producer) {
        simulatedUops += outs[i].result.retiredUops;
        simulatedCycles += static_cast<double>(outs[i].result.cycles);
        distinct.push_back(&outs[i]);
    }
    std::map<std::string, std::pair<double, double>> cycles;
    for (std::size_t i = 0; i < n; ++i) {
        const Job &j = jobs[i];
        if (j.input != InputSet::A || j.params.robSize != 512)
            continue;
        const double c = static_cast<double>(outs[i].result.cycles);
        if (j.variant == BinaryVariant::Normal)
            cycles[kernels[j.kernel]].first = c;
        if (j.variant == BinaryVariant::WishJumpJoinLoop)
            cycles[kernels[j.kernel]].second = c;
    }

    setEndToEnd(res, setupTimes, coldTimes,
                static_cast<double>(simulatedUops), replayTimes,
                wishSpeedup(cycles));

    if (o.trace) {
        const auto setup = summarize(tr, "setup");
        const auto cold = summarize(tr, "cold");
        L["compiler.compile_s"] = medianSelf(setup, "compiler.compile");
        L["workloads.program_for_s"] =
            medianSelf(cold, "workloads.program_for");
        L["uarch.simulate_s"] = median(simulateS);
        L["uarch.ns_per_cycle"] =
            1e9 * ratio(L["uarch.simulate_s"], simulatedCycles);
        L["uarch.sim_p50_ms"] = percentile(simMs, 0.50);
        L["uarch.sim_p95_ms"] = percentile(simMs, 0.95);
        uarchRatios(distinct, L);
        L["harness.pool.queue_wait_p50_ms"] = percentile(waitMs, 0.50);
        L["harness.pool.queue_wait_p95_ms"] = percentile(waitMs, 0.95);
        L["harness.pool.busy_ratio"] = median(busy);
        L["harness.run_cache.dedup_hits"] = coldStats.dedupHits;
        L["harness.run_cache.disk_hits"] = coldStats.diskHits;
        L["harness.run_cache.misses"] = coldStats.misses;
        L["harness.run_cache.disk_writes"] = coldStats.diskWrites;
        L["harness.run_cache.corrupt"] = coldStats.corrupt;
        replayLayers(ReplayLog{replayTimes, warmStats}, n, L);
        traceLayers(cold, L);
    }
    res.perLayer = L.metrics();
    return res;
}

// ---- sampled --------------------------------------------------------------

Result
sampled(const Options &o, Tracer &tr)
{
    Result res;
    Layers L;
    wisc::Rng rng(o.seed);
    const std::vector<std::string> kernels = kernelOrder(o, 2, rng);
    const std::vector<BinaryVariant> variants = {
        BinaryVariant::Normal, BinaryVariant::WishJumpJoinLoop};
    const std::uint64_t tripScale = o.small ? 4 : 16;

    // Per kernel and variant: the trip-scaled program that is sampled,
    // and the unscaled one whose length sizes the detailed prefix.
    std::vector<Program> scaled, base;
    std::vector<double> setupTimes;
    for (unsigned rep = 0; rep < setupReps(o); ++rep) {
        scaled.clear();
        base.clear();
        const Clock::time_point t0 = Clock::now();
        Scope root(tr, "setup", -1, rep);
        for (const std::string &k : kernels) {
            wisc::CompiledWorkload w;
            {
                Scope s(tr, "compiler.compile", root.id());
                w = wisc::compileWorkload(k);
            }
            for (BinaryVariant v : variants) {
                Scope s(tr, "workloads.program_for", root.id());
                scaled.push_back(
                    wisc::programFor(w, v, InputSet::A, tripScale));
                base.push_back(wisc::programFor(w, v, InputSet::A));
            }
        }
        setupTimes.push_back(secondsSince(t0));
    }

    struct Job
    {
        std::string kernel;
        BinaryVariant variant;
        const Program *prog;
        const Program *base;
        wisc::EmuResult ref;
        std::uint64_t qpTrue = 0;
        SimParams params;
    };
    std::vector<Job> jobs;
    for (std::size_t k = 0; k < kernels.size(); ++k)
        for (std::size_t v = 0; v < variants.size(); ++v) {
            const std::size_t idx = k * variants.size() + v;
            jobs.push_back({kernels[k], variants[v], &scaled[idx],
                            &base[idx], {}, 0, {}});
        }

    // Reference results and sampling geometry, once, outside the timed
    // phase. The geometry follows bench/sampling_validation: a detailed
    // prefix of twice the unscaled program's length covers the
    // cold-start transient, then about 32 windows of 8xROB warmup and
    // 16xROB measured µops.
    std::uint64_t emuInsts = 0;
    {
        Scope root(tr, "reference", -1, 0);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            Job &j = jobs[i];
            wisc::EmuResult b;
            {
                Scope s(tr, "arch.emulate", root.id(), i);
                j.ref = wisc::Emulator().run(*j.prog);
            }
            {
                Scope s(tr, "arch.emulate", root.id(), i);
                b = wisc::Emulator().run(*j.base);
            }
            if (!j.ref.halted || !b.halted)
                wisc_fatal(label(j.kernel, j.variant, InputSet::A),
                           ": reference emulation did not halt");
            emuInsts += j.ref.dynInsts + b.dynInsts;
            j.qpTrue = j.ref.dynInsts - j.ref.predFalse;
            SimParams &p = j.params;
            p.checkFinalState = false; // checked against j.ref instead
            p.sampling.enabled = true;
            p.sampling.warmupUops = 8 * p.robSize;
            p.sampling.measureUops = 16 * p.robSize;
            p.sampling.periodUops = std::max<std::uint64_t>(
                j.qpTrue / 32,
                p.sampling.warmupUops + p.sampling.measureUops);
            p.sampling.prefixUops = 2 * b.dynInsts;
        }
    }

    std::vector<RunOutcome> outs(jobs.size());
    std::vector<double> passTimes;
    const Clock::time_point start = Clock::now();
    do {
        // A fresh request order per pass, so the median spans several.
        permute(jobs, rng);
        const Clock::time_point t0 = Clock::now();
        std::vector<std::string> errs(jobs.size());
        {
            Scope root(tr, "pass", -1, passTimes.size());
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                Scope s(tr, "harness.sampled.run", root.id(), i);
                try {
                    outs[i] = wisc::runSampled(*jobs[i].prog, jobs[i].params);
                } catch (const std::exception &e) {
                    errs[i] = e.what();
                }
            }
        }
        passTimes.push_back(secondsSince(t0));
        res.attempted += jobs.size();

        std::vector<Labelled> items;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const Job &j = jobs[i];
            const std::string name = label(j.kernel, j.variant, InputSet::A);
            const RunOutcome &out = outs[i];
            items.push_back({name, &out});
            if (!errs[i].empty())
                fail(res, name + ": " + errs[i]);
            else if (!out.result.halted)
                fail(res, name + ": did not halt");
            else if (out.result.resultReg != j.ref.resultReg ||
                     out.result.memFingerprint != j.ref.memFingerprint)
                fail(res, name + ": final state differs from the "
                                 "reference emulator");
            else if (out.stat("sampling.qp_true_uops") != j.qpTrue ||
                     out.stat("sampling.fallback") != 0)
                fail(res, name + ": sampled run did not cover the "
                                 "reference's qp-true stream in windows");
        }
        checkDigest(res, digestOf(items), passTimes.size() == 1);
    } while (!o.small && secondsSince(start) + passTimes.back() <= o.seconds);

    std::uint64_t qpTrue = 0, windows = 0, detailed = 0;
    std::map<std::string, std::pair<double, double>> cycles;
    std::vector<const RunOutcome *> all;
    std::vector<CacheItem> items;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Job &j = jobs[i];
        const RunOutcome &out = outs[i];
        qpTrue += out.stat("sampling.qp_true_uops");
        windows += out.stat("sampling.windows");
        // window_qp_true already includes the measured span.
        detailed += out.stat("sampling.prefix_qp_true") +
                    out.stat("sampling.window_qp_true");
        const double c = static_cast<double>(out.result.cycles);
        if (j.variant == BinaryVariant::Normal)
            cycles[j.kernel].first = c;
        else
            cycles[j.kernel].second = c;
        all.push_back(&out);
        items.push_back({label(j.kernel, j.variant, InputSet::A), j.prog,
                         j.params, &out});
    }

    const std::string dir = o.scratchDir + "/sampled-cache";
    std::filesystem::remove_all(dir);
    populate(items, dir);
    ReplayLog log;
    replay(items, dir, o.small ? 2 : 100, tr, res, log);
    std::filesystem::remove_all(dir);

    setEndToEnd(res, setupTimes, passTimes, static_cast<double>(qpTrue),
                log.seconds, wishSpeedup(cycles));

    if (o.trace) {
        const auto setup = summarize(tr, "setup");
        const auto passes = summarize(tr, "pass");
        const auto reference = summarize(tr, "reference");
        L["compiler.compile_s"] = medianSelf(setup, "compiler.compile");
        L["workloads.program_for_s"] =
            medianSelf(setup, "workloads.program_for");
        uarchRatios(all, L);
        L["arch.emu_muops_per_s"] =
            ratio(static_cast<double>(emuInsts),
                  medianSelf(reference, "arch.emulate")) /
            1e6;
        L["harness.sampled.run_s"] =
            medianSelf(passes, "harness.sampled.run");
        L["harness.sampled.windows"] = static_cast<double>(windows);
        L["harness.sampled.detailed_share"] =
            ratio(static_cast<double>(detailed), static_cast<double>(qpTrue));
        replayLayers(log, items.size(), L);
        codecLayers(items, tr, res, L);
        traceLayers(passes, L);
    }
    res.perLayer = L.metrics();
    return res;
}

} // namespace

const std::vector<std::string> &
benchWorkloads()
{
    static const std::vector<std::string> names = {"core-serial", "matrix",
                                                   "sampled"};
    return names;
}

Result
runWorkload(const Options &opts, Tracer &tracer)
{
    std::filesystem::create_directories(opts.scratchDir);
    if (opts.workload == "core-serial")
        return coreSerial(opts, tracer);
    if (opts.workload == "matrix")
        return matrix(opts, tracer);
    if (opts.workload == "sampled")
        return sampled(opts, tracer);
    wisc_fatal("unknown workload '", opts.workload, "'");
}

} // namespace perfbench
