/**
 * @file
 * Entry points of the paper's experiments: one per figure, table,
 * ablation and sweep, each defined in bench/<name>.cc. run_matrix is
 * their one driver; its schedule table names them.
 *
 * An entry prints its paper-style table to stdout, fills the JSON
 * document of the BenchCli it is handed, and returns its exit code
 * (nonzero when a check the experiment enforces fails). `smoke` asks
 * for the reduced CI schedule; predictor_sweep, dynpred_sweep and
 * sampling_validation have one, the other experiments ignore it.
 */

#ifndef WISC_EXPERIMENT_ENTRIES_HH_
#define WISC_EXPERIMENT_ENTRIES_HH_

#include "harness/bench_cli.hh"

namespace wisc::bench {

int table3_binaries(BenchCli &cli, bool smoke);
int table4_benchmarks(BenchCli &cli, bool smoke);
int fig01_input_dependence(BenchCli &cli, bool smoke);
int fig02_overhead_breakdown(BenchCli &cli, bool smoke);
int fig02_attribution(BenchCli &cli, bool smoke);
int fig10_wish_jump_join(BenchCli &cli, bool smoke);
int fig11_wish_jump_stats(BenchCli &cli, bool smoke);
int fig12_wish_loops(BenchCli &cli, bool smoke);
int fig13_wish_loop_stats(BenchCli &cli, bool smoke);
int fig14_window_sweep(BenchCli &cli, bool smoke);
int fig15_depth_sweep(BenchCli &cli, bool smoke);
int fig16_select_uop(BenchCli &cli, bool smoke);
int table5_best_binary(BenchCli &cli, bool smoke);
int ablation_confidence(BenchCli &cli, bool smoke);
int ablation_estimators(BenchCli &cli, bool smoke);
int ablation_heuristics(BenchCli &cli, bool smoke);
int ablation_loop_bias(BenchCli &cli, bool smoke);
int predictor_sweep(BenchCli &cli, bool smoke);
int dynpred_sweep(BenchCli &cli, bool smoke);
int sampling_validation(BenchCli &cli, bool smoke);

} // namespace wisc::bench

#endif // WISC_EXPERIMENT_ENTRIES_HH_
