#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "profiling/profiler.hpp"

namespace extradeep::obs {

/// Self-profiling dogfood (ISSUE 5): converts spans collected from the
/// Extra-Deep pipeline itself into a synthetic ProfiledRun / .edp file, so
/// the toolchain can ingest its *own* execution profile and fit PMNF models
/// of its pipeline stages against e.g. thread count or input size.
///
/// Layout of the synthetic run (rank 0 only):
///  - epoch 0 is a vanishingly small warmup (one train step, one event);
///    AggregationOptions discards it by default (discard_warmup_epochs = 1),
///    mirroring how real profiles treat their warmup epoch,
///  - epoch 1 holds one train step spanning every span, each exported as an
///    NVTX-function TraceEvent named after the span, with times shifted so
///    the earliest span starts at the step boundary.

struct SelfProfileOptions {
    /// Execution parameters naming the measurement point, e.g.
    /// {"x1": threads}. Must be non-empty (the modeling layers need at
    /// least one parameter).
    std::map<std::string, double> params;
};

/// Builds the synthetic run. Throws InvalidArgumentError if `spans` is
/// empty or options.params is empty.
profiling::ProfiledRun spans_to_run(const std::vector<SpanRecord>& spans,
                                    const SelfProfileOptions& options);

/// Convenience: spans_to_run + write_edp_file. The result round-trips
/// through profiling::read_edp and the ingestion layer unchanged.
void write_selfprofile_edp(const std::string& path,
                           const std::vector<SpanRecord>& spans,
                           const SelfProfileOptions& options);

}  // namespace extradeep::obs
