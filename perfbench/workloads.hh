/**
 * @file
 * The benchmark's three workloads (README.md in this directory says
 * why each exists). Each runs in this process through the simulator's
 * public entry points and returns its end-to-end metrics, its
 * per-layer metrics and a digest of every simulated result.
 */

#ifndef PERFBENCH_WORKLOADS_HH_
#define PERFBENCH_WORKLOADS_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hh"

namespace perfbench {

/** The seed used when none is given. */
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options
{
    std::string workload;
    /** Permutes the order of kernels and requests; never the inputs. */
    std::uint64_t seed = kDefaultSeed;
    /** Host seconds the repeated timed phase may take. */
    double seconds = 10.0;
    bool trace = false;
    /** Reduced size for the self-check: few kernels, one repetition. */
    bool small = false;
    /** Directory this run may create run-cache stores under. */
    std::string scratchDir;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** The first few failures, for the error report. */
    std::vector<std::string> failures;
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    /** Hash over every simulated outcome, in a seed-independent order. */
    std::uint64_t digest = 0;
    std::uint64_t simCycles = 0;
    std::uint64_t simUops = 0;
    /** Simulation threads the workload used. */
    unsigned workers = 1;
    /** The repeated timings behind each median end-to-end time. */
    std::vector<std::pair<std::string, std::vector<double>>> samples;
};

/** Names accepted by runWorkload(). */
const std::vector<std::string> &benchWorkloads();

/** Run one workload. Setup errors throw; failed requests are counted
 *  in the result. */
Result runWorkload(const Options &opts, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH_
