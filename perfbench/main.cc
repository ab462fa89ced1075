/**
 * @file
 * perfbench: the repository benchmark driver.
 *
 *   perfbench --workload core-serial|matrix|sampled [--seed N]
 *             [--seconds S] [--trace 0|1] [--self-check]
 *             [--scratch DIR] [--git-rev REV] [--source-sha SHA]
 *
 * Runs one workload and prints, one per line, the provenance block, the
 * simulated-results digest and every metric with its unit, then as its
 * last line one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
 * --trace 1 the workload runs with spans on and the metrics are the
 * per-layer ones. Exits 1 if any request failed. --self-check runs the
 * workload at reduced size after checking the span arithmetic.
 * run.py builds this program and is the way to invoke it.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "trace.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

int
usage(const char *why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload core-serial|matrix|sampled "
                 "[--seed N] [--seconds S] [--trace 0|1] [--self-check] "
                 "[--scratch DIR] [--git-rev REV] [--source-sha SHA]\n";
    return 2;
}

/** CPU brand string from cpuid (no file outside the checkout is read). */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        unsigned regs[12] = {};
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const auto first = s.find_first_not_of(' ');
        const auto last = s.find_last_not_of(' ');
        if (first != std::string::npos)
            return s.substr(first, last - first + 1);
    }
#endif
    return "unknown";
}

std::string
compilerId()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/** JSON string literal (quotes and backslashes escaped; control
 *  characters dropped). */
std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    opts.scratchDir = ".bench_build/scratch";
    std::string gitRev = "unknown", sourceSha = "unknown";
    bool selfCheck = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--self-check") {
            selfCheck = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opts.workload = v;
        } else if (a == "--seed") {
            opts.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                return usage("--seed takes a whole number");
        } else if (a == "--seconds") {
            opts.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(opts.seconds > 0))
                return usage("--seconds takes a positive number");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return usage("--trace takes 0 or 1");
            opts.trace = v == "1";
        } else if (a == "--scratch") {
            opts.scratchDir = v;
        } else if (a == "--git-rev") {
            gitRev = v;
        } else if (a == "--source-sha") {
            sourceSha = v;
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    bool known = false;
    for (const std::string &w : benchWorkloads())
        known = known || w == opts.workload;
    if (!known)
        return usage(("unknown workload '" + opts.workload + "'").c_str());

#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
    // Assert-enabled builds run several times slower; their timings
    // would read as regressions.
    if (!selfCheck) {
        std::cerr << "perfbench: refusing to report timings from a build "
                     "without NDEBUG\n";
        return 2;
    }
#endif

    if (selfCheck) {
        const std::string err = checkSpanArithmetic();
        if (!err.empty()) {
            std::cerr << "perfbench: span self-time check failed: " << err
                      << "\n";
            return 1;
        }
        opts.small = true;
    }

    Tracer tracer(opts.trace);
    Result r;
    try {
        r = runWorkload(opts, tracer);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << opts.workload << ": " << e.what()
                  << "\n";
        return 1;
    }

    if (opts.trace) {
        const std::string path = opts.scratchDir + "/spans-" +
                                 opts.workload + "-seed" +
                                 std::to_string(opts.seed) + ".json";
        std::ofstream os(path);
        tracer.write(os);
        if (!os) {
            std::cerr << "perfbench: cannot write spans to " << path << "\n";
            return 1;
        }
        std::cout << "spans " << path << "\n";
    }

    std::ostringstream prov;
    prov << "{\"workload\": " << quote(opts.workload)
         << ", \"seed\": " << opts.seed
         << ", \"seconds\": " << number(opts.seconds)
         << ", \"trace\": " << (opts.trace ? 1 : 0)
         << ", \"self_check\": " << (selfCheck ? "true" : "false")
         << ", \"workers\": " << r.workers
         << ", \"cpu_model\": " << quote(cpuModel())
         << ", \"nproc\": " << std::thread::hardware_concurrency()
         << ", \"compiler\": " << quote(compilerId())
         << ", \"build_type\": " << quote(PERFBENCH_BUILD_TYPE)
         << ", \"ndebug\": " << (ndebug ? "true" : "false")
         << ", \"git_revision\": " << quote(gitRev)
         << ", \"source_sha256\": " << quote(sourceSha) << "}";
    std::cout << "provenance " << prov.str() << "\n";

    char digest[128];
    std::snprintf(digest, sizeof digest,
                  "digest %s %016llx cycles=%llu uops=%llu",
                  opts.workload.c_str(),
                  static_cast<unsigned long long>(r.digest),
                  static_cast<unsigned long long>(r.simCycles),
                  static_cast<unsigned long long>(r.simUops));
    std::cout << digest << "\n";

    for (const auto &[name, v] : r.samples) {
        std::cout << "samples " << name << " n=" << v.size() << " all=[";
        for (std::size_t i = 0; i < v.size(); ++i)
            std::cout << (i ? " " : "") << number(v[i]);
        std::cout << "]\n";
    }

    const std::vector<Metric> &metrics = opts.trace ? r.perLayer : r.endToEnd;
    for (const Metric &m : metrics) {
        if (!std::isfinite(m.value)) {
            ++r.failed;
            r.failures.push_back(m.name + " is not finite");
        }
        std::cout << "metric " << m.name << " = " << number(m.value) << " "
                  << m.unit << "\n";
    }
    std::cout << "metric failed_ops_ratio = "
              << number(static_cast<double>(r.failed) /
                        static_cast<double>(std::max<std::uint64_t>(
                            r.attempted, 1)))
              << " ratio\n";
    for (const std::string &f : r.failures)
        std::cerr << "perfbench: FAILED " << f << "\n";

    std::ostringstream json;
    json << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << std::max<std::uint64_t>(r.attempted, 1)
         << ", \"failed\": " << r.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        json << (i ? ", " : "") << quote(metrics[i].name)
             << ": {\"value\": "
             << number(std::isfinite(metrics[i].value) ? metrics[i].value
                                                       : 0.0)
             << ", \"unit\": " << quote(metrics[i].unit) << "}";
    json << "}}";
    std::cout << json.str() << std::endl;
    return r.failed == 0 ? 0 : 1;
}
