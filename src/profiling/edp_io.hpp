#pragma once

#include <iosfwd>
#include <string>

#include "common/diagnostics.hpp"
#include "profiling/profiler.hpp"

namespace extradeep::profiling {

/// EDP ("Extra-Deep Profile") is this library's on-disk profile format - the
/// substitute for Nsight Systems report exports. It is a versioned,
/// tab-separated text format, one file per profiled run, containing the
/// execution parameters, repetition index, and every rank's NVTX marks and
/// kernel events:
///
///   EDP<TAB>1
///   P<TAB>x1<TAB>8
///   REP<TAB>0
///   WALL<TAB>12.34
///   RANK<TAB>0
///   M<TAB>epoch_start<TAB>0<TAB>-1<TAB>train<TAB>0
///   E<TAB>EigenMetaKernel<TAB>CUDA kernel<TAB>0.1<TAB>0.02<TAB>53<TAB>0
///   ...
///   END
///
/// Kernel names must not contain tab/newline/carriage-return characters;
/// both write_edp and read_edp enforce this (a hand-edited name containing a
/// newline would desynchronise the line-based parser).
///
/// Numeric fields are validated at this boundary: NaN and infinity are
/// rejected everywhere, and values that are semantically non-negative
/// (times, durations, byte counts, visits, rank and repetition indices)
/// must be >= 0. Nothing downstream of read_edp ever sees a non-finite
/// metric.
///
/// Malformed input follows one contract, shared with .edpm models
/// (DESIGN.md §8): the diagnosing read never throws on malformed content
/// and records every problem as a Diagnostic; the throwing read is a
/// wrapper that raises the first of them.

struct EdpReadOptions {
    /// Storage cap for collected diagnostics (counts keep accumulating).
    std::size_t max_diagnostics = DiagnosticLog::kDefaultCapacity;
};

/// Outcome of a diagnosing parse.
struct EdpReadResult {
    ProfiledRun run;
    DiagnosticLog diagnostics;

    /// True if no Error-severity diagnostic was recorded, i.e. the run as a
    /// whole is structurally sound (individual records may still have been
    /// skipped with warnings). Callers should treat ok() == false runs as
    /// quarantined: usable for inspection, not for modeling.
    bool ok() const { return !diagnostics.has_errors(); }
};

/// Serialises a profiled run. Throws InvalidArgumentError on names
/// containing tabs/newlines and Error if the stream write fails.
void write_edp(std::ostream& os, const ProfiledRun& run);

/// Parses a profiled run; throws ParseError whose text is the reason of the
/// first diagnostic the diagnosing read records, whatever its severity
/// (version mismatch, truncated file, trailing data after END, ...).
ProfiledRun read_edp(std::istream& is);

/// Parses a profiled run and never throws on malformed content: every
/// problem is returned as a diagnostic, and a run with an Error diagnostic
/// is quarantined (ok() == false).
EdpReadResult read_edp(std::istream& is, const EdpReadOptions& options);

/// File-based convenience wrappers. Both throw Error on I/O failure: an
/// unopenable file is an environment problem, not dirty data.
void write_edp_file(const std::string& path, const ProfiledRun& run);
ProfiledRun read_edp_file(const std::string& path);
EdpReadResult read_edp_file(const std::string& path,
                            const EdpReadOptions& options);

}  // namespace extradeep::profiling
