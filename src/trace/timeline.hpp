#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "trace/event.hpp"

namespace extradeep::trace {

/// The complete profile of a single MPI rank for one application run:
/// a flat list of kernel events plus the NVTX epoch/step marks.
struct RankTrace {
    int rank = 0;
    std::vector<TraceEvent> events;
    std::vector<NvtxMark> marks;

    /// Wall time of the rank's timeline: max event/mark end time.
    double wall_time() const;
};

/// A window of a rank timeline corresponding to one training/validation
/// step, or to the asynchronous gap between two steps.
struct StepWindow {
    int epoch = 0;
    int step = 0;               ///< step index; for async windows, the index
                                ///< of the *preceding* step
    StepKind kind = StepKind::Train;
    bool async_gap = false;     ///< true if this window covers the time
                                ///< between step `step` end and the next start
    double start = 0.0;
    double end = 0.0;
    std::vector<std::size_t> event_indices;  ///< indices into RankTrace::events
};

/// Splits a rank trace into per-step windows using the NVTX marks, as in
/// Fig. 2 step (1). Events whose start time falls inside [step start, step
/// end) are assigned to that step; events falling between two steps of the
/// same epoch (asynchronously executed kernels) are collected into dedicated
/// async-gap windows so they can be aggregated the same way (Sec. 2.2).
/// Events before the first epoch or after the last are ignored (program
/// initialisation / teardown, modeled separately).
/// Throws ParseError if the marks are not properly nested/ordered.
/// Equivalent to step_windows followed by place_events.
std::vector<StepWindow> segment_steps(const RankTrace& trace);

/// The mark half of segment_steps: the time-ordered, disjoint step and
/// async-gap windows, with event_indices left empty. Throws ParseError if
/// the marks are not properly nested/ordered.
std::vector<StepWindow> step_windows(std::span<const NvtxMark> marks);

/// One event that place_events put into a window.
struct EventPlacement {
    std::size_t event = 0;   ///< index into the start times
    std::size_t window = 0;  ///< index into the windows
};

/// The event half of segment_steps: places events, given by their start
/// times, into `windows` (from step_windows). Returns the events that start
/// inside a window, in stable start order. Start times that are already
/// non-decreasing (the order EDP files and the simulator write) are not
/// sorted: a stable sort of sorted input is the identity, so ties keep their
/// input order on both paths.
std::vector<EventPlacement> place_events(std::span<const StepWindow> windows,
                                         std::span<const double> starts);

/// Convenience filter: all windows of a given epoch.
std::vector<StepWindow> windows_of_epoch(const std::vector<StepWindow>& windows,
                                         int epoch);

/// Number of epochs covered by a set of marks (max epoch index + 1).
int epoch_count(const RankTrace& trace);

/// Number of steps of the given kind recorded in the given epoch.
int step_count(const RankTrace& trace, int epoch, StepKind kind);

}  // namespace extradeep::trace
