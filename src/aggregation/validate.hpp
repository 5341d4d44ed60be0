#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/diagnostics.hpp"
#include "profiling/profiler.hpp"

namespace extradeep::aggregation {

/// Semantic validation of profiled runs, between parsing and aggregation.
///
/// The EDP parser guarantees well-formed records and finite, non-negative
/// metric values; this pass checks the invariants a line-based parser cannot
/// see: NVTX mark pairing and nesting, monotonic step indices, duplicate
/// ranks, rank completeness across a run, and repetition completeness across
/// a configuration. Each run receives a keep/drop verdict that the ingestion
/// layer uses to degrade gracefully instead of aborting the experiment.

/// Keep/drop verdict for one run. Error-severity diagnostics explain a
/// drop; warnings describe oddities that do not disqualify the run.
struct RunVerdict {
    bool keep = true;
    DiagnosticLog diagnostics;
};

/// Validates one profiled run:
///  - params present, with finite values,
///  - finite, non-negative wall time and event/mark metric values,
///  - at least one rank; rank ids unique and non-negative,
///    (cross-run rank-count uniformity is checked by validate_experiment),
///  - every rank's marks segment into steps (pairing/nesting, via
///    trace::segment_steps) with strictly increasing step indices per
///    (epoch, step kind),
///  - at least one complete (non-async) step window across all ranks: a
///    run without one contributes nothing to the medians.
RunVerdict validate_run(const profiling::ProfiledRun& run);

/// Verdicts for a whole experiment, shaped like the input: one keep flag
/// per run and per configuration.
struct ExperimentVerdict {
    std::vector<std::vector<bool>> keep_run;  ///< [config][repetition]
    std::vector<bool> keep_config;
    DiagnosticLog diagnostics;
    std::size_t runs_kept = 0;
    std::size_t runs_dropped = 0;
    std::size_t configs_kept = 0;
    std::size_t configs_dropped = 0;

    /// True if at least one configuration survived.
    bool any_usable() const { return configs_kept > 0; }
};

/// Validates every run of every configuration (one inner vector per
/// measurement point = the repetitions of that point), then applies the
/// cross-run invariants: identical params within a configuration, the
/// modal rank count for every surviving run (a run that lost ranks would
/// bias the median over ranks toward zero), duplicate repetition indices
/// (warning only), and at least one surviving repetition per configuration.
ExperimentVerdict validate_experiment(
    std::span<const std::vector<profiling::ProfiledRun>> configs);

/// Everything the cross-run stage of validate_experiment needs to know
/// about one run, decoupled from the run's bulk data (events/marks). The
/// streaming ingestion path validates each run at read time, keeps only
/// these facts, and discards the trace — so experiment validation produces
/// the identical diagnostic sequence without the runs in memory.
struct ValidatedRunFacts {
    std::map<std::string, double> params;
    std::size_t n_ranks = 0;
    int repetition = 0;
    RunVerdict verdict;  ///< validate_run outcome for this run
};

/// The cross-run stage of validate_experiment, operating on precomputed
/// per-run verdicts and facts. validate_experiment is implemented as
/// validate_run over every run followed by this function, so materialising
/// and streaming callers share one implementation (and one diagnostic
/// order).
ExperimentVerdict validate_experiment_facts(
    std::span<const std::vector<ValidatedRunFacts>> configs);

}  // namespace extradeep::aggregation
