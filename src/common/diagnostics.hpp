#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace extradeep {

/// Severity of one ingestion/validation diagnostic.
///
/// - Info: observation with no effect on the data (e.g. "quarantined block
///   re-synchronised").
/// - Warning: data was skipped/repaired but the surrounding run remains
///   usable (e.g. one corrupt event line dropped).
/// - Error: the affected run or file cannot be trusted and must be dropped
///   (e.g. missing header, truncated file, unmatched step marks).
enum class Severity {
    Info,
    Warning,
    Error,
};

std::string_view severity_name(Severity severity);

/// One structured problem report from a reader of a versioned on-disk
/// format (EDP profiles, .edpm models) or the run/experiment validation
/// pass. Collecting these instead of throwing is what lets the pipeline
/// degrade gracefully on partially corrupt profiles (DESIGN.md §8).
struct Diagnostic {
    Severity severity = Severity::Warning;
    long long line = -1;  ///< 1-based input line number, -1 if not line-scoped
    int rank = -1;        ///< MPI rank the problem belongs to, -1 if none
    std::string reason;   ///< human-readable description
};

/// Append-only diagnostic collector. Storage is capped (default 1000
/// entries) so pathological inputs cannot blow up memory; counts keep
/// accumulating past the cap.
class DiagnosticLog {
public:
    static constexpr std::size_t kDefaultCapacity = 1000;

    explicit DiagnosticLog(std::size_t capacity = kDefaultCapacity)
        : capacity_(capacity) {}

    void add(Severity severity, std::string reason, long long line = -1,
             int rank = -1);
    void add(Diagnostic d);

    /// Appends every entry of `other` (subject to this log's cap), each
    /// reason prefixed with `scope`, and adds all of its counts, including
    /// those of entries `other` dropped at its own cap.
    void merge(const DiagnosticLog& other, std::string_view scope = {});

    const std::vector<Diagnostic>& entries() const { return entries_; }
    bool empty() const { return total_ == 0; }

    /// Total number of diagnostics recorded, including those dropped once
    /// the storage cap was reached.
    std::size_t total() const { return total_; }
    std::size_t count(Severity severity) const;
    bool has_errors() const { return count(Severity::Error) > 0; }

    /// "3 errors, 5 warnings, 1 info" (omitting zero counts); "clean" if
    /// nothing was recorded.
    std::string summary() const;

private:
    std::vector<Diagnostic> entries_;
    std::size_t capacity_ = kDefaultCapacity;
    std::size_t total_ = 0;
    std::size_t counts_[3] = {0, 0, 0};
};

}  // namespace extradeep
