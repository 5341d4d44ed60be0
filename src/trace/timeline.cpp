#include "trace/timeline.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace extradeep::trace {

std::string_view step_kind_name(StepKind kind) {
    switch (kind) {
        case StepKind::Train: return "train";
        case StepKind::Validation: return "validation";
    }
    throw InvalidArgumentError("step_kind_name: unknown kind");
}

double RankTrace::wall_time() const {
    double t = 0.0;
    for (const auto& e : events) {
        t = std::max(t, e.end());
    }
    for (const auto& m : marks) {
        t = std::max(t, m.time);
    }
    return t;
}

std::vector<StepWindow> segment_steps(const RankTrace& trace) {
    std::vector<StepWindow> windows = step_windows(trace.marks);
    std::vector<double> starts;
    starts.reserve(trace.events.size());
    for (const auto& e : trace.events) {
        starts.push_back(e.start);
    }
    for (const EventPlacement& p : place_events(windows, starts)) {
        windows[p.window].event_indices.push_back(p.event);
    }
    return windows;
}

std::vector<StepWindow> step_windows(std::span<const NvtxMark> input) {
    // Sort marks by time; the simulator emits them ordered, but external
    // profiles (EDP files) may not be.
    std::vector<NvtxMark> marks(input.begin(), input.end());
    // Ties in time are resolved by nesting order: an epoch opens before its
    // first step, a step closes before the next one opens, and all steps
    // close before their epoch does. This makes back-to-back marks with
    // identical timestamps parse correctly.
    auto kind_rank = [](NvtxMark::Kind k) {
        switch (k) {
            case NvtxMark::Kind::EpochStart: return 0;
            case NvtxMark::Kind::StepEnd: return 1;
            case NvtxMark::Kind::StepStart: return 2;
            case NvtxMark::Kind::EpochEnd: return 3;
        }
        return 4;
    };
    std::stable_sort(marks.begin(), marks.end(),
                     [&](const NvtxMark& a, const NvtxMark& b) {
                         if (a.time != b.time) {
                             return a.time < b.time;
                         }
                         return kind_rank(a.kind) < kind_rank(b.kind);
                     });

    std::vector<StepWindow> windows;
    bool in_epoch = false;
    bool in_step = false;
    int current_epoch = -1;
    StepWindow current;
    // Pending async gap between two steps of the same epoch.
    bool have_prev_step_end = false;
    StepWindow gap;

    auto flush_gap = [&](double gap_end) {
        if (have_prev_step_end) {
            gap.end = gap_end;
            windows.push_back(gap);
            have_prev_step_end = false;
        }
    };

    for (const auto& m : marks) {
        switch (m.kind) {
            case NvtxMark::Kind::EpochStart:
                if (in_epoch) {
                    throw ParseError("segment_steps: nested epoch start");
                }
                in_epoch = true;
                current_epoch = m.epoch;
                break;
            case NvtxMark::Kind::EpochEnd:
                if (!in_epoch || m.epoch != current_epoch) {
                    throw ParseError("segment_steps: unmatched epoch end");
                }
                if (in_step) {
                    throw ParseError("segment_steps: epoch end inside a step");
                }
                // Async work after the last step of the epoch still belongs
                // to this epoch.
                flush_gap(m.time);
                in_epoch = false;
                break;
            case NvtxMark::Kind::StepStart:
                if (!in_epoch) {
                    throw ParseError("segment_steps: step start outside an epoch");
                }
                if (in_step) {
                    throw ParseError("segment_steps: nested step start");
                }
                flush_gap(m.time);
                in_step = true;
                current = StepWindow{};
                current.epoch = current_epoch;
                current.step = m.step;
                current.kind = m.step_kind;
                current.start = m.time;
                break;
            case NvtxMark::Kind::StepEnd:
                if (!in_step || m.step != current.step) {
                    throw ParseError("segment_steps: unmatched step end");
                }
                current.end = m.time;
                windows.push_back(current);
                // Open an async-gap window that will be closed by the next
                // step start or the epoch end.
                gap = StepWindow{};
                gap.epoch = current_epoch;
                gap.step = current.step;
                gap.kind = current.kind;
                gap.async_gap = true;
                gap.start = m.time;
                have_prev_step_end = true;
                in_step = false;
                break;
        }
    }
    if (in_epoch || in_step) {
        throw ParseError("segment_steps: trace ends inside an open epoch/step");
    }
    return windows;
}

std::vector<EventPlacement> place_events(std::span<const StepWindow> windows,
                                         std::span<const double> starts) {
    // Visit events in stable start order. Windows are disjoint and ordered,
    // so a single merge pass suffices.
    std::vector<std::size_t> order;
    const bool sorted = std::is_sorted(starts.begin(), starts.end());
    if (!sorted) {
        order.resize(starts.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return starts[a] < starts[b];
                         });
    }

    std::vector<EventPlacement> placed;
    placed.reserve(starts.size());
    std::size_t w = 0;
    for (std::size_t i = 0; i < starts.size(); ++i) {
        const std::size_t idx = sorted ? i : order[i];
        const double t = starts[idx];
        while (w < windows.size() && windows[w].end <= t) {
            ++w;
        }
        if (w == windows.size()) {
            break;  // event after the last epoch: teardown, ignored
        }
        if (t >= windows[w].start) {
            placed.push_back({idx, w});
        }
        // else: event before the first window of its region (e.g. program
        // initialisation before epoch 0) -> ignored here.
    }
    return placed;
}

std::vector<StepWindow> windows_of_epoch(const std::vector<StepWindow>& windows,
                                         int epoch) {
    std::vector<StepWindow> out;
    for (const auto& w : windows) {
        if (w.epoch == epoch) {
            out.push_back(w);
        }
    }
    return out;
}

int epoch_count(const RankTrace& trace) {
    int max_epoch = -1;
    for (const auto& m : trace.marks) {
        max_epoch = std::max(max_epoch, m.epoch);
    }
    return max_epoch + 1;
}

int step_count(const RankTrace& trace, int epoch, StepKind kind) {
    int n = 0;
    for (const auto& m : trace.marks) {
        if (m.kind == NvtxMark::Kind::StepStart && m.epoch == epoch &&
            m.step_kind == kind) {
            ++n;
        }
    }
    return n;
}

}  // namespace extradeep::trace
