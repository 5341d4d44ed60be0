#include "profiling/edp_stream.hpp"

#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <optional>
#include <sstream>
#include <type_traits>

#include "common/error.hpp"
#include "trace/kernel.hpp"

namespace extradeep::profiling {

namespace {

using trace::NvtxMark;
using trace::StepKind;

NvtxMark::Kind parse_mark_kind(std::string_view s) {
    if (s == "epoch_start") return NvtxMark::Kind::EpochStart;
    if (s == "epoch_end") return NvtxMark::Kind::EpochEnd;
    if (s == "step_start") return NvtxMark::Kind::StepStart;
    if (s == "step_end") return NvtxMark::Kind::StepEnd;
    throw ParseError("EDP: unknown mark kind '" + std::string(s) + "'");
}

/// Read-path name guard: a name with an embedded tab/newline/carriage
/// return can only come from a hand-edited file and would desynchronise the
/// line-based format. The name is a field of a line that ends at the first
/// newline (memchr) and is split at every tab, so it cannot hold a tab or a
/// newline by construction; only a carriage return needs a scan. The
/// message names all three, like the write path's.
void check_read_name(std::string_view name, const char* what) {
    if (name.find('\r') != std::string_view::npos) {
        throw ParseError(std::string("EDP: ") + what +
                         " contains tab/newline/carriage-return");
    }
}

/// The fast path of parse_double: true only when std::from_chars consumes
/// the whole token and the value is finite and either zero or above DBL_MIN
/// in magnitude. On those tokens std::stod returns the same correctly
/// rounded bits without setting errno. Exactly DBL_MIN stays on the slow
/// path: glibc flags ERANGE when the token's exact value lies below DBL_MIN
/// even if it rounds up to it.
bool parse_double_fast(std::string_view s, double& out) {
    const char* last = s.data() + s.size();
    const std::from_chars_result r = std::from_chars(s.data(), last, out);
    return r.ec == std::errc() && r.ptr == last && std::isfinite(out) &&
           (out == 0.0 || std::abs(out) > DBL_MIN);
}

/// One number of an E line on the fast path, parsed from `p` without
/// finding its field end first: std::from_chars stops at the end of the
/// number, which must be a tab (`last_field` false; `p` then moves past it)
/// or the end of the line, so the token is exactly the field the tab split
/// gives. Accepts only what the split path accepts at once with the same
/// value: a whole-token from_chars result that is not negative and, for a
/// double, passes parse_double_fast's finite and DBL_MIN guard.
template <typename T>
bool parse_event_number_fast(const char*& p, const char* line_end,
                             bool last_field, T& out) {
    const std::from_chars_result r = std::from_chars(p, line_end, out);
    if (r.ec != std::errc() || out < 0) {
        return false;
    }
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(out) || (out != 0.0 && std::abs(out) <= DBL_MIN)) {
            return false;
        }
    }
    if (last_field) {
        return r.ptr == line_end;
    }
    if (r.ptr == line_end || *r.ptr != '\t') {
        return false;
    }
    p = r.ptr + 1;
    return true;
}

/// Number grammar: exactly std::stod's. parse_double_fast answers the
/// tokens it reads whole; every other token (whitespace, '+', hex,
/// inf/nan, overflow, underflow, junk) takes the std::stod path below,
/// which decides it and words the error.
double parse_double(std::string_view s, const char* what) {
    double v = 0.0;
    if (parse_double_fast(s, v)) {
        return v;
    }
    const std::string token(s);
    try {
        std::size_t idx = 0;
        v = std::stod(token, &idx);
        if (idx != token.size()) {
            throw ParseError(std::string("EDP: trailing junk in ") + what);
        }
    } catch (const std::invalid_argument&) {
        throw ParseError(std::string("EDP: bad number for ") + what + ": '" +
                         token + "'");
    } catch (const std::out_of_range&) {
        throw ParseError(std::string("EDP: number out of range for ") + what);
    }
    if (!std::isfinite(v)) {
        throw ParseError(std::string("EDP: non-finite value for ") + what +
                         ": '" + token + "'");
    }
    return v;
}

double parse_nonneg_double(std::string_view s, const char* what) {
    const double v = parse_double(s, what);
    if (v < 0.0) {
        throw ParseError(std::string("EDP: negative value for ") + what +
                         ": '" + std::string(s) + "'");
    }
    return v;
}

/// Integer grammar: exactly std::stoll's (base 10), with a whole-token
/// std::from_chars fast path in front of it.
long long parse_int(std::string_view s, const char* what) {
    long long v = 0;
    const char* last = s.data() + s.size();
    const std::from_chars_result r = std::from_chars(s.data(), last, v);
    if (r.ec == std::errc() && r.ptr == last) {
        return v;
    }
    const std::string token(s);
    try {
        std::size_t idx = 0;
        v = std::stoll(token, &idx);
        if (idx != token.size()) {
            throw ParseError(std::string("EDP: trailing junk in ") + what);
        }
        return v;
    } catch (const std::invalid_argument&) {
        throw ParseError(std::string("EDP: bad integer for ") + what + ": '" +
                         token + "'");
    } catch (const std::out_of_range&) {
        throw ParseError(std::string("EDP: integer out of range for ") + what);
    }
}

/// Integer destined for an `int` field, with semantic bounds.
int parse_bounded_int(std::string_view s, const char* what, long long lo,
                      long long hi = std::numeric_limits<int>::max()) {
    const long long v = parse_int(s, what);
    if (v < lo || v > hi) {
        throw ParseError(std::string("EDP: ") + what + " out of range: '" +
                         std::string(s) + "'");
    }
    return static_cast<int>(v);
}

}  // namespace

EdpStreamReader::EdpStreamReader(std::istream& is,
                                 const EdpReadOptions& options)
    : is_(is), log_(options.max_diagnostics), buf_(kBlockBytes) {}

/// Appends the next block of the stream to the unconsumed bytes, first
/// moving them (the partial last line) to the front of the buffer. A line
/// that fills the whole buffer doubles it. Returns false at end of input.
bool EdpStreamReader::refill() {
    if (eof_) {
        return false;
    }
    if (begin_ > 0) {
        std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
        end_ -= begin_;
        begin_ = 0;
    }
    if (end_ == buf_.size()) {
        buf_.resize(2 * buf_.size());
    }
    std::streambuf* const sb = is_.good() ? is_.rdbuf() : nullptr;
    const std::streamsize got =
        sb == nullptr
            ? 0
            : sb->sgetn(buf_.data() + end_,
                        static_cast<std::streamsize>(buf_.size() - end_));
    if (got <= 0) {
        eof_ = true;
        is_.setstate(std::ios::eofbit);
        return false;
    }
    end_ += static_cast<std::size_t>(got);
    return true;
}

/// The lines are getline's: split at each newline, with a last line that
/// has none kept if it is not empty. CRLF tolerance: a trailing carriage
/// return (Windows-edited profile) is stripped so it cannot corrupt the
/// last field of each line.
bool EdpStreamReader::read_line() {
    while (true) {
        const char* const first = buf_.data() + begin_;
        const std::size_t avail = end_ - begin_;
        const void* const nl =
            std::memchr(first + scanned_, '\n', avail - scanned_);
        if (nl != nullptr) {
            const auto len = static_cast<std::size_t>(
                static_cast<const char*>(nl) - first);
            line_ = std::string_view(first, len);
            begin_ += len + 1;
            break;
        }
        scanned_ = avail;
        if (!refill()) {
            if (begin_ == end_) {
                return false;
            }
            line_ = std::string_view(buf_.data() + begin_, end_ - begin_);
            begin_ = end_;
            break;
        }
    }
    scanned_ = 0;
    ++line_no_;
    if (!line_.empty() && line_.back() == '\r') {
        line_.remove_suffix(1);
    }
    return true;
}

/// Splits line_ at its tabs into fields_, in place.
void EdpStreamReader::split_fields() {
    const char* p = line_.data();
    const char* const last = p + line_.size();
    n_fields_ = 0;
    while (true) {
        const void* const tab =
            n_fields_ == kMaxFields
                ? nullptr
                : std::memchr(p, '\t', static_cast<std::size_t>(last - p));
        if (tab == nullptr) {
            fields_[n_fields_++] =
                std::string_view(p, static_cast<std::size_t>(last - p));
            return;
        }
        const char* const t = static_cast<const char*>(tab);
        fields_[n_fields_++] =
            std::string_view(p, static_cast<std::size_t>(t - p));
        p = t + 1;
    }
}

void EdpStreamReader::flush_skipped() {
    if (skipped_records_ > 0) {
        std::ostringstream os;
        os << "EDP: quarantined " << skipped_records_
           << " event/mark record(s) with no usable RANK block";
        log_.add(Severity::Info, os.str(), skip_start_line_);
        skipped_records_ = 0;
        skip_start_line_ = -1;
    }
}

void EdpStreamReader::count_skipped() {
    if (skipped_records_ == 0) {
        skip_start_line_ = line_no_;
        warn("EDP: event/mark record outside a usable RANK block", line_no_);
    }
    ++skipped_records_;
}

void EdpStreamReader::finish_truncated() {
    if (!saw_end_) {
        log_.add(Severity::Error, "EDP: truncated file (missing END)",
                 line_no_);
    }
}

void EdpStreamReader::finish_after_end() {
    // Anything after END indicates a desynchronised or concatenated file;
    // a hand-edited name containing a newline shows up here.
    std::size_t trailing = 0;
    while (read_line()) {
        if (!line_.empty()) ++trailing;
    }
    if (trailing > 0) {
        std::ostringstream os;
        os << "EDP: ignored " << trailing
           << " line(s) of trailing data after END";
        warn(os.str(), line_no_);
    }
}

bool EdpStreamReader::parse_event_fast(EdpRecord& out) {
    const char* p = line_.data() + 2;  // past "E\t"
    const char* const line_end = line_.data() + line_.size();
    const auto field = [&](std::string_view& f) {
        const void* const tab =
            std::memchr(p, '\t', static_cast<std::size_t>(line_end - p));
        if (tab == nullptr) {
            return false;
        }
        const char* const t = static_cast<const char*>(tab);
        f = std::string_view(p, static_cast<std::size_t>(t - p));
        p = t + 1;
        return true;
    };
    std::string_view name;
    std::string_view category;
    if (!field(name) || name.find('\r') != std::string_view::npos ||
        !field(category)) {
        return false;
    }
    const std::optional<trace::KernelCategory> category_id =
        trace::find_category(category);
    EdpRecord::Event& e = out.event;
    if (!category_id || !parse_event_number_fast(p, line_end, false, e.start) ||
        !parse_event_number_fast(p, line_end, false, e.duration) ||
        !parse_event_number_fast(p, line_end, false, e.visits) ||
        !parse_event_number_fast(p, line_end, true, e.bytes)) {
        return false;
    }
    e.category = *category_id;
    out.name = name;
    out.kind = EdpRecord::Kind::Event;
    return true;
}

bool EdpStreamReader::process_fields(EdpRecord& out) {
    const std::string_view tag = fields_[0];
    const auto& f = fields_;
    const std::size_t n = n_fields_;
    if (tag == "P") {
        if (n != 3) throw ParseError("EDP: malformed P line");
        check_read_name(f[1], "param name");
        out.number = parse_double(f[2], "param value");
        out.name = f[1];
        out.kind = EdpRecord::Kind::Param;
    } else if (tag == "REP") {
        if (n != 2) throw ParseError("EDP: malformed REP line");
        out.index = parse_bounded_int(f[1], "repetition", 0);
        out.kind = EdpRecord::Kind::Repetition;
    } else if (tag == "WALL") {
        if (n != 2) throw ParseError("EDP: malformed WALL line");
        out.number = parse_nonneg_double(f[1], "wall time");
        out.kind = EdpRecord::Kind::WallTime;
    } else if (tag == "RANK") {
        flush_skipped();
        // Any failure below quarantines the whole block: events of an
        // undecodable or duplicated rank cannot be attributed.
        rank_usable_ = false;
        if (n != 2) throw ParseError("EDP: malformed RANK line");
        const int rank = parse_bounded_int(f[1], "rank", 0);
        if (!seen_ranks_.insert(rank).second) {
            throw ParseError("EDP: duplicate RANK block for rank " +
                             std::string(f[1]));
        }
        rank_usable_ = true;
        current_rank_ = rank;
        out.index = rank;
        out.kind = EdpRecord::Kind::RankBegin;
    } else if (tag == "M") {
        if (!rank_usable_) {
            count_skipped();
            return false;
        }
        if (n != 6) throw ParseError("EDP: malformed M line");
        NvtxMark m;
        m.kind = parse_mark_kind(f[1]);
        m.epoch = parse_bounded_int(f[2], "epoch", 0);
        m.step = parse_bounded_int(f[3], "step", -1);
        if (f[4] == "train") {
            m.step_kind = StepKind::Train;
        } else if (f[4] == "validation") {
            m.step_kind = StepKind::Validation;
        } else {
            throw ParseError("EDP: unknown step kind '" + std::string(f[4]) +
                             "'");
        }
        m.time = parse_nonneg_double(f[5], "mark time");
        out.mark = m;
        out.kind = EdpRecord::Kind::Mark;
    } else if (tag == "E") {
        if (!rank_usable_) {
            count_skipped();
            return false;
        }
        if (n != 7) throw ParseError("EDP: malformed E line");
        check_read_name(f[1], "event name");
        out.event.category = trace::parse_category(f[2]);
        out.event.start = parse_nonneg_double(f[3], "event start");
        out.event.duration = parse_nonneg_double(f[4], "event duration");
        out.event.visits = parse_int(f[5], "event visits");
        if (out.event.visits < 0) {
            throw ParseError("EDP: negative value for event visits");
        }
        out.event.bytes = parse_nonneg_double(f[6], "event bytes");
        out.name = f[1];
        out.kind = EdpRecord::Kind::Event;
    } else if (tag == "END") {
        if (n != 1) throw ParseError("EDP: malformed END line");
        flush_skipped();
        saw_end_ = true;
        out.kind = EdpRecord::Kind::End;
    } else {
        throw ParseError("EDP: unknown record tag '" + std::string(tag) +
                         "'");
    }
    return true;
}

bool EdpStreamReader::next(EdpRecord& out) {
    if (stage_ == Stage::Done) {
        return false;
    }
    if (stage_ == Stage::Header) {
        stage_ = Stage::Body;
        if (!read_line()) {
            log_.add(Severity::Error, "EDP: empty input");
            stage_ = Stage::Done;
            return false;
        }
        split_fields();
        if (n_fields_ != 2 || fields_[0] != "EDP") {
            log_.add(Severity::Error, "EDP: missing header", line_no_);
            // Best effort: the first line may itself be a record (e.g. the
            // header was deleted); feed it through the normal dispatch.
            have_pending_line_ = !line_.empty();
        } else if (fields_[1] != "1") {
            log_.add(Severity::Error,
                     "EDP: unsupported version " + std::string(fields_[1]),
                     line_no_);
        }
    }

    while (true) {
        if (have_pending_line_) {
            have_pending_line_ = false;
        } else if (!read_line()) {
            flush_skipped();
            finish_truncated();
            stage_ = Stage::Done;
            return false;
        }
        if (line_.empty()) continue;
        if (rank_usable_ && line_.size() > 2 && line_[0] == 'E' &&
            line_[1] == '\t' && parse_event_fast(out)) {
            return true;
        }
        split_fields();
        bool emitted = false;
        try {
            emitted = process_fields(out);
        } catch (const ParseError& e) {
            warn(e.what(), line_no_, current_rank());
            if (fields_[0] == "RANK") {
                // The block header is unusable; swallow its records.
                rank_usable_ = false;
            }
            continue;
        }
        if (!emitted) continue;
        if (out.kind == EdpRecord::Kind::End) {
            finish_after_end();
            stage_ = Stage::Done;
        }
        return true;
    }
}

}  // namespace extradeep::profiling
