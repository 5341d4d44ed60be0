#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "modeling/model.hpp"
#include "profiling/profiler.hpp"

namespace extradeep::eval {

/// A ground-truth accuracy case: a PMNF function with *known* exponents and
/// coefficients, plus the measurement grid it is sampled on. The oracle
/// materialises the function into full profiled runs (NVTX marks, per-step
/// kernel events, multiplicative noise) and round-trips them through the EDP
/// on-disk format, so scoring exercises the entire pipeline - parsing,
/// validation, aggregation, model generation - not just the fitter.
///
/// This is the repository's oracle-style validation (in the spirit of
/// Daydream's simulated ground truth): a silent regression anywhere between
/// ingestion and hypothesis selection shows up as a failure to recover a
/// function we know exactly.
struct OracleCase {
    std::string name;
    /// The ground-truth function. Its terms/constant are the quantities the
    /// pipeline must recover; dominant_growth() provides the reference
    /// exponents for recovery scoring.
    modeling::PerformanceModel truth;
    /// Modeling grid: one entry per measurement point, each with one value
    /// per parameter (the paper's efficient sampling uses 5 points per
    /// parameter).
    std::vector<std::vector<double>> points;
    int repetitions = 5;
    int ranks = 2;
    /// Measured steps per epoch (one warm-up epoch is prepended and later
    /// discarded by aggregation, as in the paper's sampling strategy).
    int train_steps = 7;
    int val_steps = 3;

    std::size_t num_params() const { return truth.param_names().size(); }

    /// Noise-free function value at a measurement point.
    double truth_value(const std::vector<double>& point) const;
};

/// Controls the multiplicative noise injected while materialising a case.
/// The structure mirrors src/sim's NoiseModel: a run-level factor drawn once
/// per (configuration, repetition) and an i.i.d. per-(rank, step) jitter,
/// with the run share (80 % of sigma, the step share its quadrature
/// complement) dominating - that is what makes run-to-run variation
/// dominate step-to-step variation, as on real systems.
struct MaterializeOptions {
    /// Total multiplicative sigma; 0 produces exact, noise-free values.
    double noise = 0.0;
    std::uint64_t seed = 1;
};

/// The name of the synthetic kernel carrying the ground-truth function.
extern const char kOracleKernel[];
/// A constant-overhead memcpy kernel present at every step (exercises phase
/// bucketing and byte metrics).
extern const char kOverheadKernel[];
/// A kernel emitted only in the first configuration, which the
/// ">= 5 configurations" modelable-kernel filter must exclude.
extern const char kSporadicKernel[];

/// Materialises a single repetition of one measurement point - one profiled
/// run (two epochs: warm-up + measured; one oracle event per step). Every
/// repetition seeds its own independent noise stream from (case, seed,
/// config, repetition), so materialize_config(c) is exactly
/// {materialize_run(c, 0), ..., materialize_run(c, reps-1)} and an adaptive
/// planner pulling runs one at a time observes byte-identical data to the
/// fixed grid. `repetition` may exceed oracle.repetitions: extra pulls keep
/// drawing fresh, deterministic repetitions.
profiling::ProfiledRun materialize_run(const OracleCase& oracle,
                                       std::size_t config_index,
                                       int repetition,
                                       const MaterializeOptions& options);

/// Materialises the repetitions of one measurement point as in-memory
/// profiled runs. `config_index` selects the point and seeds the noise
/// streams.
std::vector<profiling::ProfiledRun> materialize_config(
    const OracleCase& oracle, std::size_t config_index,
    const MaterializeOptions& options);

/// Materialises every measurement point: one inner vector per configuration,
/// holding its repetitions - the shape ingest_runs expects.
std::vector<std::vector<profiling::ProfiledRun>> materialize(
    const OracleCase& oracle, const MaterializeOptions& options);

/// Materialises the case and writes one EDP file per (configuration,
/// repetition) into `dir` (created if missing). Returns the file paths;
/// ingestion of exactly these paths must reproduce the in-memory runs.
std::vector<std::string> write_edp_tree(const OracleCase& oracle,
                                        const MaterializeOptions& options,
                                        const std::string& dir);

/// The default oracle suite: single-parameter cases covering constant,
/// logarithmic, sublinear, linear, linearithmic and polynomial growth on the
/// paper's 5-point sampling grid, plus multi-parameter (additive and
/// multiplicative) cases.
std::vector<OracleCase> default_oracle_cases();

/// Subset of default_oracle_cases() used by `extradeep-eval --quick` and the
/// eval_accuracy_gate ctest.
std::vector<OracleCase> quick_oracle_cases();

/// The named cases of default_oracle_cases(), in suite order; a name given
/// twice selects its case once (the tools' --case filter). Throws
/// InvalidArgumentError naming the first name that is not a suite case.
std::vector<OracleCase> select_oracle_cases(
    const std::vector<std::string>& names);

/// Deterministic FNV-1a hash of a case name, used to derive per-case seeds
/// (std::hash is implementation-defined and would break cross-machine
/// reproducibility of BENCH_eval.json).
std::uint64_t case_name_hash(const std::string& name);

}  // namespace extradeep::eval
