#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/diagnostics.hpp"
#include "profiling/edp_io.hpp"
#include "trace/timeline.hpp"

namespace extradeep::profiling {

/// One decoded EDP record, produced by EdpStreamReader::next. Only the
/// fields of its kind are set. `name` is a view into the reader's buffer:
/// it stays valid until the next call of next(), so a caller that keeps a
/// name copies it.
struct EdpRecord {
    enum class Kind {
        Param,       ///< P line: name + number
        Repetition,  ///< REP line: index
        WallTime,    ///< WALL line: number
        RankBegin,   ///< RANK line: index (opens a new rank block)
        Mark,        ///< M line: mark (inside the current rank block)
        Event,       ///< E line: name + event (inside the current rank block)
        End,         ///< END line: end of the profile
    };

    /// The metrics of an E line (its name is EdpRecord::name).
    struct Event {
        trace::KernelCategory category = trace::KernelCategory::CudaKernel;
        double start = 0.0;
        double duration = 0.0;
        double bytes = 0.0;
        std::int64_t visits = 1;
    };

    Kind kind = Kind::End;
    std::string_view name;  ///< Param name / Event name
    double number = 0.0;    ///< Param value / WallTime
    int index = 0;          ///< Repetition / RankBegin rank id
    trace::NvtxMark mark;   ///< Mark
    Event event;            ///< Event
};

/// Pull-based, record-at-a-time EDP reader: the single implementation of
/// the EDP grammar and of the Diagnostic contract (DESIGN.md §8).
/// read_edp() is a thin fold over this class (materialising the records
/// into a ProfiledRun), and the streaming ingestion path consumes the same
/// records without ever materialising a full run — so the two paths are
/// equivalent by construction (see DESIGN.md §13).
///
/// Memory behaviour: the reader pulls the stream in blocks of
/// kBlockBytes into one reused buffer and carries only the partial last
/// line of a block into the next; a line longer than the buffer grows it.
/// It splits a line into views of its tab-separated fields in place and
/// hands out names as views, so it allocates nothing per line; strings are
/// built only for diagnostic text. It never buffers events or marks, so
/// its footprint is independent of the profile size. The streaming ingest
/// interns each event name into a per-file table and keeps no string per
/// event either (DESIGN.md §13.1).
///
/// Usage:
///
///   EdpStreamReader reader(is, options);
///   EdpRecord rec;
///   while (reader.next(rec)) { ...switch (rec.kind)... }
///   // reader.diagnostics() now holds the full parse log.
///
/// The reader never throws on malformed content. It records every problem
/// as a Diagnostic and keeps going; malformed records are skipped (next()
/// silently advances past them), and rank blocks whose RANK header is
/// unusable are quarantined: their event/mark records are counted and
/// summarised but never emitted. (The throwing read_edp raises the first
/// diagnostic of this log.) next() returns
/// false once the input is exhausted; the final structural diagnostics
/// (missing END, trailing data after END) are recorded before the End
/// record / the terminating false is returned.
///
/// Mark and Event records are only ever emitted between a RankBegin and the
/// next RankBegin/End, so a consumer may attribute them to the most recent
/// RankBegin without further checks.
class EdpStreamReader {
public:
    /// Bytes pulled from the stream per read.
    static constexpr std::size_t kBlockBytes = 64 * 1024;

    explicit EdpStreamReader(std::istream& is, const EdpReadOptions& options);

    EdpStreamReader(const EdpStreamReader&) = delete;
    EdpStreamReader& operator=(const EdpStreamReader&) = delete;

    /// Advances to the next record. Returns false at end of input.
    /// Invalidates the name of the previous record.
    bool next(EdpRecord& out);

    /// Diagnostics collected so far (complete once next() returned false or
    /// the End record was emitted).
    const DiagnosticLog& diagnostics() const { return log_; }

    /// Moves the collected diagnostics out (for result assembly).
    DiagnosticLog take_diagnostics() { return std::move(log_); }

    /// True once the END record has been consumed.
    bool saw_end() const { return saw_end_; }

    /// True if no Error-severity diagnostic was recorded so far; mirrors
    /// EdpReadResult::ok().
    bool ok() const { return !log_.has_errors(); }

    /// 1-based line number of the most recently read input line.
    long long line_no() const { return line_no_; }

private:
    enum class Stage { Header, Body, Done };
    /// The most fields any record has (E). A line is split into at most
    /// kMaxFields + 1 views; the last one then holds the rest of the line,
    /// and the count alone marks the line malformed.
    static constexpr std::size_t kMaxFields = 7;

    bool read_line();
    bool refill();
    void split_fields();
    /// The fast path of an E line in a usable rank block: parses line_
    /// without splitting it first. Accepts only lines process_fields would
    /// accept with the same record; otherwise returns false, having emitted
    /// nothing, and process_fields parses the line (and words any error).
    bool parse_event_fast(EdpRecord& out);
    /// Parses fields_ into `out`; returns true if a record was emitted.
    /// Throws ParseError on malformed content, which next() records as a
    /// warning.
    bool process_fields(EdpRecord& out);
    void finish_truncated();
    void finish_after_end();
    void flush_skipped();
    void count_skipped();
    int current_rank() const {
        return rank_usable_ ? current_rank_ : -1;
    }
    void warn(std::string reason, long long line, int rank = -1) {
        log_.add(Severity::Warning, std::move(reason), line, rank);
    }

    std::istream& is_;
    DiagnosticLog log_;
    Stage stage_ = Stage::Header;
    /// Bytes read but not yet consumed are buf_[begin_, end_); the first
    /// scanned_ of them hold no newline.
    std::vector<char> buf_;
    std::size_t begin_ = 0;
    std::size_t end_ = 0;
    std::size_t scanned_ = 0;
    bool eof_ = false;
    std::string_view line_;  ///< the current line, a view into buf_
    std::array<std::string_view, kMaxFields + 1> fields_;  ///< into line_
    std::size_t n_fields_ = 0;
    bool have_pending_line_ = false;  ///< reprocess line_ (headerless file)
    std::set<int> seen_ranks_;
    bool rank_usable_ = false;  ///< a usable RANK block is open
    int current_rank_ = -1;
    long long line_no_ = 0;
    bool saw_end_ = false;
    /// Quarantine bookkeeping (see read_edp's historical ParseState).
    std::size_t skipped_records_ = 0;
    long long skip_start_line_ = -1;
};

}  // namespace extradeep::profiling
