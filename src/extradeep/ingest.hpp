#pragma once

#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "aggregation/aggregate.hpp"
#include "aggregation/experiment.hpp"
#include "aggregation/stream.hpp"
#include "aggregation/validate.hpp"
#include "profiling/edp_io.hpp"

namespace extradeep {

/// Robust ingestion: EDP files (or in-memory runs) -> validated, aggregated
/// ExperimentData, degrading gracefully on dirty input.
///
/// This is the entry point for profiles that did not come from this
/// process's own simulator - e.g. EDP exports collected on another machine,
/// where truncated files, missing ranks, and corrupt records are routine.
/// The pipeline is: tolerant parse (collect diagnostics, skip corrupt
/// records) -> validate_run / validate_experiment (keep/drop verdicts) ->
/// aggregate only the surviving repetitions -> ExperimentData over the
/// surviving configurations. Files are streamed: each run is reduced to its
/// per-kernel aggregate one rank block at a time while it is read, so peak
/// memory is bounded by the largest rank block, not the input size
/// (DESIGN.md §13). Results are bit-identical to read_edp_file +
/// validate_experiment + aggregate_runs over the parsed runs (asserted by
/// tests/test_ingest_stream.cpp). The paper's "kernel present in >= 5
/// configurations" filter (ExperimentData::modelable_kernels) therefore
/// operates on surviving data only, exactly as required.

struct IngestOptions {
    aggregation::AggregationOptions aggregation;
    /// Primary execution parameter configurations are keyed/ordered by.
    std::string primary_parameter = "x1";
    /// Threads for the per-file stage of ingest_edp_files (parse/digest is
    /// embarrassingly parallel across files; grouping and aggregation stay
    /// sequential and deterministic). The calling thread is one of them.
    /// 1 = sequential; 0 or negative = use the hardware concurrency. Peak
    /// memory scales with the number of files in flight, i.e. with this
    /// value, times one rank block.
    int num_threads = 1;
};

struct IngestResult {
    aggregation::ExperimentData data;
    DiagnosticLog diagnostics;
    std::size_t runs_total = 0;
    std::size_t runs_kept = 0;
    std::size_t configs_total = 0;
    std::size_t configs_kept = 0;

    /// True if at least one configuration survived; modeling additionally
    /// needs >= aggregation::kMinModelingPoints surviving configurations.
    bool ok() const { return configs_kept > 0; }
    bool modelable() const {
        return configs_kept >=
               static_cast<std::size_t>(aggregation::kMinModelingPoints);
    }
    /// "kept 18/20 runs, 4/5 configurations; 7 warnings"
    std::string summary() const;
};

/// Everything the streaming ingest retains of one run: identity, per-run
/// validation verdict, and the fully reduced per-kernel aggregate. The
/// run's events and marks are gone by the time this exists.
struct DigestedRun {
    std::map<std::string, double> params;
    int repetition = 0;
    std::size_t n_ranks = 0;
    aggregation::RunVerdict verdict;
    aggregation::RunAggregate aggregate;  ///< set only when verdict.keep
};

/// Outcome of digesting one EDP run record-at-a-time.
struct EdpDigest {
    DiagnosticLog parse_log;  ///< unscoped reader diagnostics
    bool ok = false;          ///< no Error-severity parse diagnostic
    DigestedRun run;          ///< valid only when ok
};

/// The one streaming reduction of an EDP run (DESIGN.md §13): a single
/// pass that folds records into (a) a marks-only skeleton for validate_run
/// and (b) per-rank aggregates, buffering at most one rank block, whose
/// event names are interned to kernel ids. Both ingest_edp_files (on a
/// file) and the fleet's `ingest` verb (on a pushed payload) reduce
/// through it, so a run yields the same verdict, reasons and bits on
/// either path. Never throws on malformed content; parse problems land in
/// parse_log.
EdpDigest digest_edp(std::istream& is,
                     const profiling::EdpReadOptions& read_options,
                     int discard_warmup_epochs);

/// Ingests pre-grouped runs: one inner vector per measurement point (the
/// repetitions of that point). Each run is reduced up front, so no copies
/// of the kept runs are made. Repetitions and configurations failing
/// validation are dropped with diagnostics; configurations whose
/// aggregation or registration fails (e.g. duplicate primary-parameter
/// value, missing primary parameter) are likewise dropped, never thrown.
IngestResult ingest_runs(
    std::span<const std::vector<profiling::ProfiledRun>> configs,
    const IngestOptions& options = {});

/// Streams every file tolerantly, groups the runs by their full parameter
/// map into configurations ordered by the primary parameter, and validates
/// and aggregates them like ingest_runs. Unreadable or structurally broken
/// files are dropped with Error diagnostics, merged in path order at any
/// num_threads. (A caller that wants the first malformed file to throw
/// reads it with read_edp_file.)
IngestResult ingest_edp_files(std::span<const std::string> paths,
                              const IngestOptions& options = {});

}  // namespace extradeep
