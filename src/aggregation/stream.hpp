#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "aggregation/aggregate.hpp"
#include "trace/timeline.hpp"

namespace extradeep::aggregation {

/// Incremental aggregation cores shared by aggregate_runs (materialising)
/// and the streaming ingestion path (src/extradeep/ingest). Both paths run
/// the exact same arithmetic in the exact same order — medians over
/// identical columns, map-ordered kernel iteration — so their outputs are
/// bit-identical by construction (asserted by tests/test_ingest_stream.cpp).
///
/// The per-rank reduction works on dense kernel ids (KernelNames,
/// KernelEvent): aggregate_rank_events is the one reduction, and
/// aggregate_rank_trace is a thin adapter that interns a RankTrace's names
/// and calls it (DESIGN.md §13.2).
///
/// Memory behaviour: aggregate_rank_events holds one rank's per-step sums,
/// O(kernels × steps); a RunAggregator holds O(kernels × ranks) reduced
/// values and a ConfigAggregator O(kernels × repetitions); none retains
/// events, marks, or steps, which is what makes out-of-core ingestion's
/// footprint independent of trace size (DESIGN.md §13).

/// Six aggregated values per kernel: {train, val} × {time, visits, bytes}.
using KernelValues = std::array<double, 6>;

/// Index into KernelValues for (train?, metric).
inline int kernel_value_index(bool train, int metric) {
    return (train ? 0 : 3) + metric;
}

/// Per-kernel result of reducing one rank (Fig. 2 steps (1)-(2)).
struct RankKernelValues {
    trace::KernelCategory category{};
    KernelValues values{};
};

/// Interns kernel names to dense ids, 0, 1, 2, ... in first-seen order.
/// A lookup builds no string: it first tries the id that followed the last
/// returned id the previous time, then a hash lookup by view.
class KernelNames {
public:
    std::uint32_t intern(std::string_view name);

    /// names()[id] is the name interned as id.
    std::span<const std::string> names() const { return names_; }

private:
    struct Hash {
        using is_transparent = void;
        std::size_t operator()(std::string_view s) const {
            return std::hash<std::string_view>{}(s);
        }
    };
    static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
    std::vector<std::string> names_;
    std::unordered_map<std::string, std::uint32_t, Hash, std::equal_to<>>
        ids_;
    std::vector<std::uint32_t> next_;  ///< next_[id]: the id after id last time
    std::uint32_t last_ = kNone;       ///< the id returned last
};

/// A trace::TraceEvent with its name replaced by a KernelNames id.
struct KernelEvent {
    std::uint32_t kernel = 0;
    trace::KernelCategory category = trace::KernelCategory::CudaKernel;
    double start = 0.0;
    double duration = 0.0;
    double bytes = 0.0;
    std::int64_t visits = 1;
};

/// Fig. 2 steps (1)-(2) for one rank: per-step sums followed by the median
/// over steps, keyed by `names[event.kernel]`. The one per-rank reduction.
/// Throws ParseError (via trace::step_windows) if the rank's marks are not
/// properly nested/ordered.
std::map<std::string, RankKernelValues> aggregate_rank_events(
    std::span<const trace::NvtxMark> marks,
    std::span<const KernelEvent> events, std::span<const std::string> names,
    int discard_warmup_epochs);

/// aggregate_rank_events over a materialised rank: interns the rank's
/// names and reduces it through the same core.
std::map<std::string, RankKernelValues> aggregate_rank_trace(
    const trace::RankTrace& rank_trace, int discard_warmup_epochs);

/// Per-kernel result of reducing one run (median over ranks).
struct RunKernelAggregate {
    trace::KernelCategory category{};
    KernelValues values{};
    int ranks_present = 0;  ///< ranks on which the kernel appeared
};

/// Fully reduced single run: one KernelValues per kernel. This is all the
/// streaming ingest retains per repetition.
struct RunAggregate {
    std::map<std::string, RunKernelAggregate> kernels;
    std::size_t n_ranks = 0;
};

/// Folds one run's ranks as they arrive (Fig. 2 step (2): median over
/// ranks, absent ranks counting as zero). finish() consumes the state.
class RunAggregator {
public:
    /// Reduces `rank` (Fig. 2 (1)-(2)) and folds it in.
    void add_rank(const trace::RankTrace& rank_trace,
                  int discard_warmup_epochs);

    /// Folds in an already-reduced rank (for callers that computed
    /// aggregate_rank_trace themselves, e.g. to bound buffering).
    void add_rank_values(
        const std::map<std::string, RankKernelValues>& rank_values);

    std::size_t ranks() const { return n_ranks_; }

    /// Median over ranks. Call once; the aggregator is consumed.
    RunAggregate finish();

private:
    struct Slot {
        trace::KernelCategory category{};
        std::vector<KernelValues> per_rank;  ///< zero padded in finish()
        int ranks_present = 0;
    };
    std::map<std::string, Slot> kernels_;
    std::size_t n_ranks_ = 0;
};

/// Folds one configuration's repetitions as they arrive (Fig. 2 step (3):
/// median over repetitions) and assembles the final ConfigurationData.
/// Throws InvalidArgumentError with aggregate_runs' exact messages on
/// mismatching params / rank-less runs / zero runs, so both aggregation
/// paths fail identically.
class ConfigAggregator {
public:
    void add_run(const std::map<std::string, double>& params,
                 const RunAggregate& run);

    std::size_t runs() const { return n_reps_; }

    /// Median over repetitions, kernel sort, phase totals. Call once.
    ConfigurationData finish();

private:
    struct Rec {
        trace::KernelCategory category{};
        std::vector<KernelValues> per_rep;  ///< zero padded in finish()
        int ranks_seen = 0;
        int reps_seen = 0;
    };
    std::map<std::string, Rec> kernels_;
    std::map<std::string, double> params_;
    std::size_t n_reps_ = 0;
};

}  // namespace extradeep::aggregation
