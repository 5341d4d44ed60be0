#include "aggregation/stream.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace extradeep::aggregation {

using trace::KernelCategory;
using trace::StepKind;

std::uint32_t KernelNames::intern(std::string_view name) {
    // Kernels repeat in the same order every step, so the name that
    // followed the last one the previous time is almost always the next.
    const bool have_last = last_ < next_.size();
    if (have_last) {
        const std::uint32_t guess = next_[last_];
        if (guess < names_.size() && names_[guess] == name) {
            return last_ = guess;
        }
    }
    std::uint32_t id = 0;
    if (const auto it = ids_.find(name); it != ids_.end()) {
        id = it->second;
    } else {
        id = static_cast<std::uint32_t>(names_.size());
        names_.emplace_back(name);
        next_.push_back(kNone);
        ids_.emplace(names_.back(), id);
    }
    if (have_last) {
        next_[last_] = id;
    }
    return last_ = id;
}

std::map<std::string, RankKernelValues> aggregate_rank_events(
    std::span<const trace::NvtxMark> marks,
    std::span<const KernelEvent> events, std::span<const std::string> names,
    int discard_warmup_epochs) {
    const std::vector<trace::StepWindow> windows = trace::step_windows(marks);

    // Assign each (epoch, step) a dense slot index per step kind; async-gap
    // windows share the slot of their preceding step.
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
    // A kernel's sums are one row of n_slots[0] train then n_slots[1]
    // validation cells; cell_of[w] is window w's cell, or -1 if the window
    // is not counted (warm-up epoch, gap after a discarded step).
    const std::size_t row_cells = n_slots[0] + n_slots[1];
    std::vector<int> cell_of(windows.size(), -1);
    for (std::size_t i = 0; i < windows.size(); ++i) {
        const auto& w = windows[i];
        if (w.epoch < discard_warmup_epochs) {
            continue;
        }
        const int kind = w.kind == StepKind::Train ? 0 : 1;
        const auto slot_it = slots[kind].find({w.epoch, w.step});
        if (slot_it != slots[kind].end()) {
            cell_of[i] = (kind == 0 ? 0 : static_cast<int>(n_slots[0])) +
                         slot_it->second;
        }
    }

    // Per-step sums v_nkr (Eq. 1): one row per kernel seen in a counted
    // window, in first-seen order. place_events visits events in stable
    // start order, which within each window is the order segment_steps
    // lists them in, so every cell adds the same terms in the same order.
    struct Row {
        std::uint32_t kernel = 0;
        KernelCategory category{};
        bool has_kind[2] = {false, false};
    };
    std::vector<Row> rows;
    std::vector<std::array<double, 3>> sums;
    std::vector<int> row_of(names.size(), -1);
    std::vector<double> starts;
    starts.reserve(events.size());
    for (const auto& e : events) {
        if (e.kernel >= names.size()) {
            throw InvalidArgumentError(
                "aggregate_rank_events: kernel id without a name");
        }
        starts.push_back(e.start);
    }
    for (const trace::EventPlacement& p :
         trace::place_events(windows, starts)) {
        const int cell = cell_of[p.window];
        if (cell < 0) {
            continue;
        }
        const KernelEvent& e = events[p.event];
        int& row = row_of[e.kernel];
        if (row < 0) {
            row = static_cast<int>(rows.size());
            rows.push_back(Row{e.kernel});
            sums.resize(rows.size() * row_cells, {0.0, 0.0, 0.0});
        }
        Row& r = rows[static_cast<std::size_t>(row)];
        r.category = e.category;
        r.has_kind[static_cast<std::size_t>(cell) < n_slots[0] ? 0 : 1] = true;
        auto& sum = sums[static_cast<std::size_t>(row) * row_cells +
                         static_cast<std::size_t>(cell)];
        sum[0] += e.duration;
        sum[1] += static_cast<double>(e.visits);
        sum[2] += e.bytes;
    }

    // Median over steps per kind and metric.
    std::map<std::string, RankKernelValues> out;
    std::vector<double> column;
    for (std::size_t row = 0; row < rows.size(); ++row) {
        const Row& r = rows[row];
        KernelValues v{};
        for (int kind = 0; kind < 2; ++kind) {
            if (!r.has_kind[kind]) {
                continue;
            }
            const auto* cells =
                &sums[row * row_cells + (kind == 0 ? 0 : n_slots[0])];
            for (int metric = 0; metric < 3; ++metric) {
                column.clear();
                for (std::size_t slot = 0; slot < n_slots[kind]; ++slot) {
                    column.push_back(cells[slot][metric]);
                }
                v[kernel_value_index(kind == 0, metric)] =
                    stats::median_in_place(column);
            }
        }
        out.emplace(names[r.kernel], RankKernelValues{r.category, v});
    }
    return out;
}

std::map<std::string, RankKernelValues> aggregate_rank_trace(
    const trace::RankTrace& rank_trace, int discard_warmup_epochs) {
    KernelNames names;
    std::vector<KernelEvent> events;
    events.reserve(rank_trace.events.size());
    for (const auto& e : rank_trace.events) {
        events.push_back({names.intern(e.name), e.category, e.start,
                          e.duration, e.bytes, e.visits});
    }
    return aggregate_rank_events(rank_trace.marks, events, names.names(),
                                 discard_warmup_epochs);
}

void RunAggregator::add_rank(const trace::RankTrace& rank_trace,
                             int discard_warmup_epochs) {
    add_rank_values(aggregate_rank_trace(rank_trace, discard_warmup_epochs));
}

void RunAggregator::add_rank_values(
    const std::map<std::string, RankKernelValues>& rank_values) {
    ++n_ranks_;
    for (const auto& [name, rv] : rank_values) {
        Slot& s = kernels_[name];
        s.category = rv.category;
        s.per_rank.push_back(rv.values);
        ++s.ranks_present;
    }
}

RunAggregate RunAggregator::finish() {
    // Median over ranks -> Ṽ_r (absent ranks count as zero).
    RunAggregate out;
    out.n_ranks = n_ranks_;
    std::vector<double> column;
    for (auto& [name, s] : kernels_) {
        s.per_rank.resize(n_ranks_, KernelValues{});
        KernelValues v{};
        for (int i = 0; i < 6; ++i) {
            column.clear();
            for (const auto& pv : s.per_rank) {
                column.push_back(pv[i]);
            }
            v[i] = stats::median_in_place(column);
        }
        out.kernels.emplace(
            name, RunKernelAggregate{s.category, v, s.ranks_present});
    }
    kernels_.clear();
    return out;
}

void ConfigAggregator::add_run(const std::map<std::string, double>& params,
                               const RunAggregate& run) {
    if (n_reps_ == 0) {
        params_ = params;
    } else if (params != params_) {
        throw InvalidArgumentError(
            "aggregate_runs: runs with mismatching measurement points");
    }
    if (run.n_ranks == 0) {
        throw InvalidArgumentError("aggregate_runs: run without ranks");
    }
    const std::size_t rep = n_reps_++;
    for (const auto& [name, k] : run.kernels) {
        Rec& rec = kernels_[name];
        rec.category = k.category;
        rec.per_rep.resize(n_reps_, KernelValues{});
        rec.per_rep[rep] = k.values;
        rec.ranks_seen = std::max(rec.ranks_seen, k.ranks_present);
        ++rec.reps_seen;
    }
}

ConfigurationData ConfigAggregator::finish() {
    if (n_reps_ == 0) {
        throw InvalidArgumentError("aggregate_runs: no runs");
    }
    // Median over repetitions -> Ṽ (Fig. 2 step (3)).
    ConfigurationData out;
    out.params = params_;
    out.repetitions = static_cast<int>(n_reps_);
    out.kernels.reserve(kernels_.size());
    std::vector<double> column;
    for (auto& [name, rec] : kernels_) {
        rec.per_rep.resize(n_reps_, KernelValues{});
        KernelStats ks;
        ks.name = name;
        ks.category = rec.category;
        ks.ranks_seen = rec.ranks_seen;
        ks.reps_seen = rec.reps_seen;
        for (int i = 0; i < 6; ++i) {
            column.clear();
            for (const auto& pv : rec.per_rep) {
                column.push_back(pv[i]);
            }
            const double med = stats::median_in_place(column);
            if (i < 3) {
                ks.train[i] = med;
            } else {
                ks.val[i - 3] = med;
            }
        }
        out.kernels.push_back(std::move(ks));
    }
    // std::map iteration is already name sorted; keep the invariant explicit.
    std::sort(out.kernels.begin(), out.kernels.end(),
              [](const KernelStats& a, const KernelStats& b) {
                  return a.name < b.name;
              });

    // Phase totals for application models (no kernel filtering here).
    for (const auto& k : out.kernels) {
        const int p = static_cast<int>(trace::phase_of(k.category));
        for (int m = 0; m < kMetricCount; ++m) {
            out.phase_train[p][m] += k.train[m];
            out.phase_val[p][m] += k.val[m];
        }
    }
    kernels_.clear();
    return out;
}

}  // namespace extradeep::aggregation
