#include "profiling/edp_io.hpp"

#include <fstream>

#include "common/error.hpp"
#include "common/format.hpp"
#include "profiling/edp_stream.hpp"

namespace extradeep::profiling {

namespace {

using trace::NvtxMark;

const char* mark_kind_str(NvtxMark::Kind k) {
    switch (k) {
        case NvtxMark::Kind::EpochStart: return "epoch_start";
        case NvtxMark::Kind::EpochEnd: return "epoch_end";
        case NvtxMark::Kind::StepStart: return "step_start";
        case NvtxMark::Kind::StepEnd: return "step_end";
    }
    throw InvalidArgumentError("mark_kind_str: unknown kind");
}

/// Write-path name guard (kept as InvalidArgumentError for compatibility).
void check_name(const std::string& name) {
    if (name.find('\t') != std::string::npos ||
        name.find('\n') != std::string::npos ||
        name.find('\r') != std::string::npos) {
        throw InvalidArgumentError(
            "EDP: name contains tab/newline/carriage-return: " + name);
    }
}

}  // namespace

/// The materialising read path is a fold over the streaming reader: every
/// record is appended to a ProfiledRun, its name copied out of the reader's
/// buffer. The reader is the single implementation of the EDP grammar and
/// the diagnostic contract, so the streaming ingestion path (which
/// consumes the same records without materialising) is equivalent by
/// construction — every parser/fault-injection test exercising this
/// function validates the reader too. See DESIGN.md §13.
EdpReadResult read_edp(std::istream& is, const EdpReadOptions& options) {
    EdpStreamReader reader(is, options);
    EdpReadResult out;
    EdpRecord rec;
    while (reader.next(rec)) {
        switch (rec.kind) {
            case EdpRecord::Kind::Param:
                out.run.params.insert_or_assign(std::string(rec.name),
                                                rec.number);
                break;
            case EdpRecord::Kind::Repetition:
                out.run.repetition = rec.index;
                break;
            case EdpRecord::Kind::WallTime:
                out.run.profiling_wall_time = rec.number;
                break;
            case EdpRecord::Kind::RankBegin: {
                trace::RankTrace t;
                t.rank = rec.index;
                out.run.ranks.push_back(std::move(t));
                break;
            }
            case EdpRecord::Kind::Mark:
                // The reader only emits marks/events inside a usable RANK
                // block, so ranks is never empty here.
                out.run.ranks.back().marks.push_back(rec.mark);
                break;
            case EdpRecord::Kind::Event:
                out.run.ranks.back().events.push_back(trace::TraceEvent{
                    std::string(rec.name), rec.event.category,
                    rec.event.start, rec.event.duration, rec.event.bytes,
                    rec.event.visits});
                break;
            case EdpRecord::Kind::End:
                break;
        }
    }
    out.diagnostics = reader.take_diagnostics();
    return out;
}

void write_edp(std::ostream& os, const ProfiledRun& run) {
    // Every double is rendered with the shortest decimal that parses back to
    // the identical bit pattern (fmt::shortest). The historical fixed
    // 12-significant-digit encoding silently lost the low bits of any value
    // off the 12-digit grid, so a write/read cycle was not the identity.
    os << "EDP\t1\n";
    for (const auto& [key, value] : run.params) {
        check_name(key);
        os << "P\t" << key << '\t' << fmt::shortest(value) << '\n';
    }
    os << "REP\t" << run.repetition << '\n';
    os << "WALL\t" << fmt::shortest(run.profiling_wall_time) << '\n';
    for (const auto& rank : run.ranks) {
        os << "RANK\t" << rank.rank << '\n';
        for (const auto& m : rank.marks) {
            os << "M\t" << mark_kind_str(m.kind) << '\t' << m.epoch << '\t'
               << m.step << '\t' << trace::step_kind_name(m.step_kind) << '\t'
               << fmt::shortest(m.time) << '\n';
        }
        for (const auto& e : rank.events) {
            check_name(e.name);
            os << "E\t" << e.name << '\t' << trace::category_name(e.category)
               << '\t' << fmt::shortest(e.start) << '\t'
               << fmt::shortest(e.duration) << '\t' << e.visits << '\t'
               << fmt::shortest(e.bytes) << '\n';
        }
    }
    os << "END\n";
    if (!os) {
        throw Error("EDP: write failed");
    }
}

ProfiledRun read_edp(std::istream& is) {
    EdpReadResult result = read_edp(is, EdpReadOptions{});
    if (!result.diagnostics.empty()) {
        throw ParseError(result.diagnostics.entries().front().reason);
    }
    return std::move(result.run);
}

void write_edp_file(const std::string& path, const ProfiledRun& run) {
    std::ofstream os(path);
    if (!os) {
        throw Error("EDP: cannot open for writing: " + path);
    }
    write_edp(os, run);
}

ProfiledRun read_edp_file(const std::string& path) {
    std::ifstream is(path);
    if (!is) {
        throw Error("EDP: cannot open for reading: " + path);
    }
    return read_edp(is);
}

EdpReadResult read_edp_file(const std::string& path,
                            const EdpReadOptions& options) {
    std::ifstream is(path);
    if (!is) {
        throw Error("EDP: cannot open for reading: " + path);
    }
    return read_edp(is, options);
}

}  // namespace extradeep::profiling
