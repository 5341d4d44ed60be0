#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace extradeep::fleet {

/// One spool file discovered by a scan, attributed to its experiment.
struct SpoolFile {
    std::string experiment;  ///< subdirectory name == registry model name
    std::string path;        ///< absolute path of the .edp file
};

/// Watches a spool directory for profile runs dropped by fleet collectors.
///
/// Layout contract: `<spool>/<experiment>/<run>.edp`, one EDP profile per
/// file, where `<experiment>` is the model name the runs belong to
/// ([A-Za-z0-9._-], the registry-key alphabet). Rename atomicity is the
/// writer's half of the bargain: write to a temporary name (`*.tmp`, or any
/// name not ending in `.edp`) in the SAME directory, then rename(2) into
/// place — the scanner only ever sees complete files because rename is
/// atomic on POSIX. Dotfiles and non-`.edp` names are ignored; a top-level
/// file or an invalidly named subdirectory is counted as skipped (once per
/// scan) but never touched.
///
/// The scanner never moves, renames, or deletes spool files; it remembers
/// processed paths in memory. After a daemon restart the set is empty and
/// every file is handed out again in the same deterministic order
/// (experiment, then filename, both lexicographic) — re-ingesting the full
/// spool rebuilds the identical aggregation state, which is the fleet
/// loop's crash-recovery story (DESIGN.md §14).
class SpoolScanner {
public:
    /// `dir` may not exist yet (e.g. created by a collector later): a scan
    /// of a missing directory yields nothing. Not thread-safe; the fleet
    /// service serialises scans.
    explicit SpoolScanner(std::string dir);

    const std::string& dir() const { return dir_; }

    /// Returns the spool files not seen by any previous scan, ordered by
    /// (experiment, filename), and marks them seen.
    std::vector<SpoolFile> scan();

    /// Paths handed out so far.
    std::size_t seen() const { return seen_.size(); }

    /// Entries skipped for layout violations over all scans (top-level
    /// files, subdirectories whose name is not a valid model name).
    std::uint64_t skipped() const { return skipped_; }

private:
    std::string dir_;
    std::set<std::string> seen_;
    std::uint64_t skipped_ = 0;
};

/// True if `name` is usable as a registry model name ([A-Za-z0-9._-],
/// 1..128 chars) — the fleet's experiment-name contract for both spool
/// subdirectories and the `ingest` verb.
bool valid_experiment_name(const std::string& name);

}  // namespace extradeep::fleet
