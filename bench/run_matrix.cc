/**
 * @file
 * run_matrix: the whole evaluation in one process.
 *
 * The one driver of the paper's experiments (experiment_entries.hh):
 * runs every figure/table/ablation experiment back-to-back inside a
 * single process, sharing one ParallelRunner pool and one RunService.
 * Because every experiment's simulations flow through the same
 * content-addressed run cache, the (Program, SimParams) pairs that
 * separate experiments share — the normal-binary baseline alone is
 * used by fig01/02/10/12/13, table4/5, and every ablation — execute
 * exactly once, and with `--cache DIR` a second invocation replays the
 * entire matrix from disk.
 *
 * Output: each experiment prints its paper-style table to stdout as
 * usual, and `--json PATH` writes one consolidated document with every
 * experiment's section plus per-experiment and whole-matrix wall times
 * and cache counters:
 *
 *   { "bench": "run_matrix", ..., "experiments": [ <per-bench docs> ],
 *     "experiment_wall_seconds": {name: t, ...},
 *     "cache_hits": H, "cache_misses": M, "dedup_hits": D }
 *
 * `--smoke` runs a reduced schedule as a ctest smoke target (and hands
 * each experiment its smoke flag); `--only a,b,c` selects experiments
 * by name, so `--only NAME` runs one experiment on its own and its
 * document is `experiments[0]`.
 */

#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "experiment_entries.hh"
#include "harness/bench_cli.hh"

using namespace wisc;

namespace {

/** One experiment of the schedule. */
struct Experiment
{
    const char *name;
    int (*fn)(BenchCli &cli, bool smoke);
    bool inSmoke; ///< part of the reduced --smoke schedule
};

/** The schedule: every experiment, cheap structural checks first so a
 *  broken build fails fast. The smoke subset exercises the shared pool
 *  and cross-experiment dedup (fig13's runs coalesce with fig11's
 *  baseline) in a few seconds. */
const Experiment kExperiments[] = {
    {"table3_binaries", bench::table3_binaries, true},
    {"table4_benchmarks", bench::table4_benchmarks, false},
    {"fig01_input_dependence", bench::fig01_input_dependence, false},
    {"fig02_overhead_breakdown", bench::fig02_overhead_breakdown, false},
    {"fig02_attribution", bench::fig02_attribution, false},
    {"fig10_wish_jump_join", bench::fig10_wish_jump_join, false},
    {"fig11_wish_jump_stats", bench::fig11_wish_jump_stats, true},
    {"fig12_wish_loops", bench::fig12_wish_loops, false},
    {"fig13_wish_loop_stats", bench::fig13_wish_loop_stats, true},
    {"fig14_window_sweep", bench::fig14_window_sweep, false},
    {"fig15_depth_sweep", bench::fig15_depth_sweep, false},
    {"fig16_select_uop", bench::fig16_select_uop, false},
    {"table5_best_binary", bench::table5_best_binary, false},
    {"ablation_confidence", bench::ablation_confidence, false},
    {"ablation_estimators", bench::ablation_estimators, false},
    {"ablation_heuristics", bench::ablation_heuristics, false},
    {"ablation_loop_bias", bench::ablation_loop_bias, false},
    {"predictor_sweep", bench::predictor_sweep, true},
    {"dynpred_sweep", bench::dynpred_sweep, true},
    {"sampling_validation", bench::sampling_validation, true},
};

int
usage(int code)
{
    std::cout <<
        "usage: run_matrix [--smoke] [--only NAME[,NAME...]] [--list]\n"
        "                  [--json PATH] [--cache DIR | --no-cache]\n"
        "\n"
        "Runs the full figure/table/ablation matrix in one process with\n"
        "a shared simulation-result cache, so identical runs across\n"
        "experiments execute once.\n"
        "\n"
        "  --smoke       reduced schedule (ctest smoke target)\n"
        "  --only CSV    run only the named experiments, in matrix order\n"
        "  --list        print the schedule and exit\n"
        "  --json PATH   write one consolidated JSON document\n"
        "  --cache DIR   persistent run cache (WISC_CACHE_DIR fallback);\n"
        "                a second run replays the matrix from disk\n"
        "  --no-cache    ignore WISC_CACHE_DIR / compiled-in default\n";
    return code;
}

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string item;
    while (std::getline(is, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::vector<std::string> only;
    std::vector<char *> passArgv = {argv[0]};
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--smoke") {
            smoke = true;
        } else if (a == "--only") {
            if (i + 1 >= argc) {
                std::cerr << "run_matrix: --only requires names\n";
                return 2;
            }
            only = splitCsv(argv[++i]);
            for (const std::string &name : only) {
                if (std::none_of(std::begin(kExperiments),
                                 std::end(kExperiments),
                                 [&](const Experiment &e) {
                                     return name == e.name;
                                 })) {
                    std::cerr << "run_matrix: unknown experiment '"
                              << name << "' in --only (see --list)\n";
                    return 2;
                }
            }
        } else if (a == "--list") {
            for (const Experiment &e : kExperiments)
                std::cout << e.name << "\n";
            return 0;
        } else if (a == "--help" || a == "-h") {
            return usage(0);
        } else {
            passArgv.push_back(argv[i]);
        }
    }

    // The top-level CLI owns the consolidated document, the matrix-wide
    // timer, and the cache configuration (--json/--cache/--no-cache).
    BenchCli cli(static_cast<int>(passArgv.size()), passArgv.data(),
                 "run_matrix");

    std::vector<const Experiment *> schedule;
    for (const Experiment &e : kExperiments) {
        const bool picked = only.empty()
            ? !smoke || e.inSmoke
            : std::find(only.begin(), only.end(), e.name) != only.end();
        if (picked)
            schedule.push_back(&e);
    }

    json::Value experiments = json::Value::array();
    json::Value wallByExperiment = json::Value::object();
    int firstFailure = 0;
    for (const Experiment *e : schedule) {
        BenchCli sub(e->name); // embedded: document only, no file
        int rc = e->fn(sub, smoke);
        if (rc != 0 && firstFailure == 0)
            firstFailure = rc;

        cli.noteSimulated(sub.simulatedUops(), sub.simulatedCycles());
        wallByExperiment[e->name] = sub.elapsedSeconds();
        experiments.push(sub.document());
        std::cout << "\n";
    }

    const RunCacheStats totals = RunService::global().stats();
    std::cout << "matrix: " << schedule.size() << " experiments, "
              << totals.misses << " simulations, " << totals.dedupHits
              << " dedup hits, " << totals.diskHits << " disk hits in "
              << Table::num(cli.elapsedSeconds(), 1) << "s\n";

    cli.add("experiment_count",
            json::Value(static_cast<std::uint64_t>(schedule.size())));
    cli.add("smoke", json::Value(smoke));
    cli.add("experiments", std::move(experiments));
    cli.add("experiment_wall_seconds", std::move(wallByExperiment));

    int rc = cli.finish();
    return firstFailure ? firstFailure : rc;
}
