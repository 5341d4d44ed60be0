#pragma once

// Reference per-rank reduction for the differential tests of the interned
// aggregation core (aggregation::aggregate_rank_events and its
// aggregate_rank_trace adapter): the string-keyed reduction that preceded
// kernel ids, with an unconditional stable sort of the events by start
// time. It must stay arithmetically identical to that routine; the
// production core is compared against it bit for bit. Only the mark half of
// the segmentation (trace::step_windows) is shared with production code.

#include <algorithm>
#include <array>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "aggregation/stream.hpp"
#include "common/stats.hpp"
#include "trace/timeline.hpp"

namespace reference {

using extradeep::aggregation::KernelValues;
using extradeep::aggregation::RankKernelValues;

/// segment_steps with the event pass as it was: every rank's events are
/// stable sorted by start time, then merged into the disjoint windows.
inline std::vector<extradeep::trace::StepWindow> segment_steps(
    const extradeep::trace::RankTrace& trace) {
    auto windows = extradeep::trace::step_windows(trace.marks);
    std::vector<std::size_t> order(trace.events.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return trace.events[a].start < trace.events[b].start;
                     });
    std::size_t w = 0;
    for (std::size_t idx : order) {
        const double t = trace.events[idx].start;
        while (w < windows.size() && windows[w].end <= t) {
            ++w;
        }
        if (w == windows.size()) {
            break;
        }
        if (t >= windows[w].start) {
            windows[w].event_indices.push_back(idx);
        }
    }
    return windows;
}

/// Fig. 2 steps (1)-(2) for one rank with a std::map keyed by kernel name.
inline std::map<std::string, RankKernelValues> aggregate_rank_trace(
    const extradeep::trace::RankTrace& rank_trace,
    int discard_warmup_epochs) {
    using extradeep::trace::KernelCategory;
    using extradeep::trace::StepKind;
    const auto windows = reference::segment_steps(rank_trace);

    std::map<std::pair<int, int>, int> slots[2];
    for (const auto& w : windows) {
        if (w.epoch < discard_warmup_epochs || w.async_gap) {
            continue;
        }
        auto& m = slots[w.kind == StepKind::Train ? 0 : 1];
        m.emplace(std::make_pair(w.epoch, w.step),
                  static_cast<int>(m.size()));
    }
    const std::size_t n_slots[2] = {slots[0].size(), slots[1].size()};

    struct Sums {
        KernelCategory category{};
        std::vector<std::array<double, 3>> per_slot[2];
    };
    std::map<std::string, Sums> sums;
    for (const auto& w : windows) {
        if (w.epoch < discard_warmup_epochs) {
            continue;
        }
        const int kind = w.kind == StepKind::Train ? 0 : 1;
        const auto slot_it = slots[kind].find({w.epoch, w.step});
        if (slot_it == slots[kind].end()) {
            continue;
        }
        const int slot = slot_it->second;
        for (const std::size_t idx : w.event_indices) {
            const auto& e = rank_trace.events[idx];
            Sums& s = sums[e.name];
            s.category = e.category;
            auto& vec = s.per_slot[kind];
            if (vec.empty()) {
                vec.assign(n_slots[kind], {0.0, 0.0, 0.0});
            }
            vec[slot][0] += e.duration;
            vec[slot][1] += static_cast<double>(e.visits);
            vec[slot][2] += e.bytes;
        }
    }

    std::map<std::string, RankKernelValues> out;
    std::vector<double> column;
    for (const auto& [name, s] : sums) {
        KernelValues v{};
        for (int kind = 0; kind < 2; ++kind) {
            if (s.per_slot[kind].empty() || n_slots[kind] == 0) {
                continue;
            }
            for (int metric = 0; metric < 3; ++metric) {
                column.clear();
                for (const auto& slot : s.per_slot[kind]) {
                    column.push_back(slot[metric]);
                }
                v[extradeep::aggregation::kernel_value_index(kind == 0,
                                                             metric)] =
                    extradeep::stats::median(column);
            }
        }
        out.emplace(name, RankKernelValues{s.category, v});
    }
    return out;
}

}  // namespace reference
