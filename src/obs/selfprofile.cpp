#include "obs/selfprofile.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "profiling/edp_io.hpp"

namespace extradeep::obs {

namespace {

/// EDP forbids tab/newline/carriage-return in kernel names; span names are
/// library-chosen but sanitise defensively instead of failing the export.
std::string sanitize_name(const std::string& name) {
    std::string out = name;
    for (char& c : out) {
        if (c == '\t' || c == '\n' || c == '\r') {
            c = ' ';
        }
    }
    return out.empty() ? std::string("span") : out;
}

trace::NvtxMark mark(trace::NvtxMark::Kind kind, int epoch, int step,
                     double time) {
    trace::NvtxMark m;
    m.kind = kind;
    m.epoch = epoch;
    m.step = step;
    m.step_kind = trace::StepKind::Train;
    m.time = time;
    return m;
}

}  // namespace

profiling::ProfiledRun spans_to_run(const std::vector<SpanRecord>& spans,
                                    const SelfProfileOptions& options) {
    if (spans.empty()) {
        throw InvalidArgumentError(
            "selfprofile: no spans to export (was tracing enabled?)");
    }
    if (options.params.empty()) {
        throw InvalidArgumentError(
            "selfprofile: at least one execution parameter is required to "
            "name the measurement point");
    }

    std::uint64_t t0 = spans.front().start_ns;
    std::uint64_t t_max = spans.front().end_ns;
    for (const SpanRecord& span : spans) {
        t0 = std::min(t0, span.start_ns);
        t_max = std::max(t_max, std::max(span.start_ns, span.end_ns));
    }

    // Warmup epoch 0: [0, kWarmup]; modeled epoch 1 starts at kEpoch1.
    constexpr double kWarmup = 1e-6;
    constexpr double kEpoch1 = 2e-6;
    const double extent =
        static_cast<double>(t_max - t0) * 1e-9 + 1e-9;  // > every span start
    const double epoch1_end = kEpoch1 + extent;

    trace::RankTrace rank;
    rank.rank = 0;
    rank.marks = {
        mark(trace::NvtxMark::Kind::EpochStart, 0, -1, 0.0),
        mark(trace::NvtxMark::Kind::StepStart, 0, 0, 0.0),
        mark(trace::NvtxMark::Kind::StepEnd, 0, 0, kWarmup),
        mark(trace::NvtxMark::Kind::EpochEnd, 0, -1, kWarmup),
        mark(trace::NvtxMark::Kind::EpochStart, 1, -1, kEpoch1),
        mark(trace::NvtxMark::Kind::StepStart, 1, 0, kEpoch1),
        mark(trace::NvtxMark::Kind::StepEnd, 1, 0, epoch1_end),
        mark(trace::NvtxMark::Kind::EpochEnd, 1, -1, epoch1_end),
    };

    trace::TraceEvent warmup;
    warmup.name = "obs_warmup";
    warmup.category = trace::KernelCategory::NvtxFunction;
    warmup.start = 0.0;
    warmup.duration = kWarmup;
    rank.events.push_back(std::move(warmup));

    for (const SpanRecord& span : spans) {
        trace::TraceEvent event;
        event.name = sanitize_name(span.name);
        event.category = trace::KernelCategory::NvtxFunction;
        event.start =
            kEpoch1 + static_cast<double>(span.start_ns - t0) * 1e-9;
        event.duration =
            span.end_ns >= span.start_ns
                ? static_cast<double>(span.end_ns - span.start_ns) * 1e-9
                : 0.0;
        event.visits = 1;
        rank.events.push_back(std::move(event));
    }

    profiling::ProfiledRun run;
    run.params = options.params;
    run.profiling_wall_time = epoch1_end;
    run.ranks.push_back(std::move(rank));
    return run;
}

void write_selfprofile_edp(const std::string& path,
                           const std::vector<SpanRecord>& spans,
                           const SelfProfileOptions& options) {
    profiling::write_edp_file(path, spans_to_run(spans, options));
}

}  // namespace extradeep::obs
