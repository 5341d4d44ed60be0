#include "eval/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "profiling/edp_io.hpp"

namespace extradeep::eval {

const char kOracleKernel[] = "oracle_kernel";
const char kOverheadKernel[] = "oracle_overhead_memcpy";
const char kSporadicKernel[] = "oracle_sporadic_os";

namespace {

/// Fraction of the noise sigma carried by the run-level component.
constexpr double kRunShare = 0.8;

using trace::KernelCategory;
using trace::NvtxMark;
using trace::RankTrace;
using trace::StepKind;
using trace::TraceEvent;

/// Builds a truth model from a constant and (coefficient, per-factor) specs,
/// so case definitions below stay readable.
modeling::PerformanceModel make_truth(
    double constant,
    const std::vector<std::pair<double, std::vector<modeling::Factor>>>& specs,
    std::vector<std::string> param_names) {
    std::vector<modeling::Term> terms;
    terms.reserve(specs.size());
    for (const auto& [coeff, factors] : specs) {
        modeling::Term t;
        t.coefficient = coeff;
        t.factors = factors;
        terms.push_back(std::move(t));
    }
    return modeling::PerformanceModel(constant, std::move(terms),
                                      std::move(param_names));
}

std::vector<std::vector<double>> grid_1d(std::vector<double> xs) {
    std::vector<std::vector<double>> out;
    out.reserve(xs.size());
    for (const double x : xs) {
        out.push_back({x});
    }
    return out;
}

std::vector<std::vector<double>> grid_2d(const std::vector<double>& xs,
                                         const std::vector<double>& ys) {
    std::vector<std::vector<double>> out;
    out.reserve(xs.size() * ys.size());
    for (const double x : xs) {
        for (const double y : ys) {
            out.push_back({x, y});
        }
    }
    return out;
}

/// Emits the marks of one epoch and one step's worth of events per step.
/// Each measured step carries the oracle kernel (the ground-truth value times
/// the run/step noise factors), the constant overhead memcpy, and - in the
/// first configuration only - the sporadic kernel the modelable filter must
/// drop. Returns the timeline cursor after the epoch.
double emit_epoch(RankTrace& tr, int epoch, double t, int train_steps,
                  int val_steps, double value, double warmup_inflation,
                  bool sporadic, double run_factor, double step_sigma,
                  Rng& step_rng) {
    tr.marks.push_back({NvtxMark::Kind::EpochStart, epoch, -1, StepKind::Train, t});
    const int total = train_steps + val_steps;
    for (int s = 0; s < total; ++s) {
        const bool train = s < train_steps;
        const StepKind kind = train ? StepKind::Train : StepKind::Validation;
        const int step = train ? s : s - train_steps;
        const double noisy = value * warmup_inflation * run_factor *
                             step_rng.lognormal_factor(step_sigma);
        // Step window sized to enclose its events with headroom; the
        // absolute schedule is irrelevant to aggregation (only window
        // membership matters).
        const double span = noisy + 0.2;
        tr.marks.push_back({NvtxMark::Kind::StepStart, epoch, step, kind, t});
        TraceEvent oracle;
        oracle.name = kOracleKernel;
        oracle.category = KernelCategory::CudaKernel;
        oracle.start = t + 1e-3;
        oracle.duration = noisy;
        oracle.visits = 1;
        tr.events.push_back(std::move(oracle));
        TraceEvent overhead;
        overhead.name = kOverheadKernel;
        overhead.category = KernelCategory::Memcpy;
        overhead.start = t + 2e-3;
        overhead.duration = 0.05;
        overhead.bytes = 4096.0;
        overhead.visits = 2;
        tr.events.push_back(std::move(overhead));
        if (sporadic) {
            TraceEvent os;
            os.name = kSporadicKernel;
            os.category = KernelCategory::Os;
            os.start = t + 3e-3;
            os.duration = 0.01;
            os.visits = 1;
            tr.events.push_back(std::move(os));
        }
        t += span;
        tr.marks.push_back({NvtxMark::Kind::StepEnd, epoch, step, kind, t});
        t += 0.01;  // inter-step gap
    }
    tr.marks.push_back({NvtxMark::Kind::EpochEnd, epoch, -1, StepKind::Train, t});
    return t + 0.05;
}

}  // namespace

double OracleCase::truth_value(const std::vector<double>& point) const {
    return truth.evaluate(point);
}

std::uint64_t case_name_hash(const std::string& name) {
    std::uint64_t h = 1469598103934665603ULL;  // FNV-1a 64-bit offset basis
    for (const unsigned char c : name) {
        h ^= c;
        h *= 1099511628211ULL;  // FNV prime
    }
    return h;
}

profiling::ProfiledRun materialize_run(const OracleCase& oracle,
                                       std::size_t config_index,
                                       int repetition,
                                       const MaterializeOptions& options) {
    if (config_index >= oracle.points.size()) {
        throw InvalidArgumentError("materialize_run: config index out of range");
    }
    if (oracle.repetitions < 1 || oracle.ranks < 1 || oracle.train_steps < 1) {
        throw InvalidArgumentError("materialize_run: degenerate case shape");
    }
    if (repetition < 0) {
        throw InvalidArgumentError("materialize_run: negative repetition");
    }
    const std::vector<double>& point = oracle.points[config_index];
    if (point.size() != oracle.num_params()) {
        throw InvalidArgumentError(
            "materialize_run: point/parameter dimension mismatch");
    }
    const double value = oracle.truth_value(point);
    if (!(value > 0.0)) {
        throw InvalidArgumentError(
            "materialize_run: oracle '" + oracle.name +
            "' is non-positive at a grid point; runtimes must stay positive");
    }
    const double run_sigma = options.noise * kRunShare;
    const double step_sigma =
        options.noise * std::sqrt(std::max(0.0, 1.0 - kRunShare * kRunShare));
    const std::uint64_t case_seed =
        mix64(case_name_hash(oracle.name), options.seed);

    const int rep = repetition;
    Rng run_rng(mix64(case_seed, mix64(config_index, 1000003ULL *
                                       static_cast<std::uint64_t>(rep))));
    const double run_factor =
        run_sigma > 0.0 ? run_rng.lognormal_factor(run_sigma) : 1.0;

    profiling::ProfiledRun run;
    for (std::size_t d = 0; d < point.size(); ++d) {
        run.params[oracle.truth.param_names()[d]] = point[d];
    }
    run.repetition = rep;
    double wall = 0.0;
    for (int rank = 0; rank < oracle.ranks; ++rank) {
        Rng step_rng = run_rng.fork(static_cast<std::uint64_t>(rank) + 17);
        RankTrace tr;
        tr.rank = rank;
        double t = 0.1;  // initialisation before the first epoch
        // Warm-up epoch: inflated values, later discarded by aggregation.
        t = emit_epoch(tr, 0, t, 1, 0, value, 1.5, config_index == 0,
                       run_factor, step_sigma, step_rng);
        // Measured epoch.
        t = emit_epoch(tr, 1, t, oracle.train_steps, oracle.val_steps,
                       value, 1.0, config_index == 0, run_factor,
                       step_sigma, step_rng);
        wall = std::max(wall, t);
        run.ranks.push_back(std::move(tr));
    }
    run.profiling_wall_time = wall;
    return run;
}

std::vector<profiling::ProfiledRun> materialize_config(
    const OracleCase& oracle, std::size_t config_index,
    const MaterializeOptions& options) {
    std::vector<profiling::ProfiledRun> runs;
    runs.reserve(static_cast<std::size_t>(oracle.repetitions));
    for (int rep = 0; rep < oracle.repetitions; ++rep) {
        runs.push_back(materialize_run(oracle, config_index, rep, options));
    }
    return runs;
}

std::vector<std::vector<profiling::ProfiledRun>> materialize(
    const OracleCase& oracle, const MaterializeOptions& options) {
    std::vector<std::vector<profiling::ProfiledRun>> configs;
    configs.reserve(oracle.points.size());
    for (std::size_t c = 0; c < oracle.points.size(); ++c) {
        configs.push_back(materialize_config(oracle, c, options));
    }
    return configs;
}

std::vector<std::string> write_edp_tree(const OracleCase& oracle,
                                        const MaterializeOptions& options,
                                        const std::string& dir) {
    std::filesystem::create_directories(dir);
    std::vector<std::string> paths;
    for (std::size_t c = 0; c < oracle.points.size(); ++c) {
        const auto runs = materialize_config(oracle, c, options);
        for (const auto& run : runs) {
            const std::string path =
                (std::filesystem::path(dir) /
                 (oracle.name + "_cfg" + std::to_string(c) + "_rep" +
                  std::to_string(run.repetition) + ".edp"))
                    .string();
            profiling::write_edp_file(path, run);
            paths.push_back(path);
        }
    }
    return paths;
}

std::vector<OracleCase> default_oracle_cases() {
    using modeling::Factor;
    const std::vector<double> five_steps = {2, 4, 6, 8, 10};
    std::vector<OracleCase> cases;

    auto add_1d = [&](const std::string& name, double constant,
                      std::vector<std::pair<double, std::vector<Factor>>> specs) {
        OracleCase c;
        c.name = name;
        c.truth = make_truth(constant, specs, {"x1"});
        c.points = grid_1d(five_steps);
        cases.push_back(std::move(c));
    };

    // Single-parameter suite: one case per growth class the PMNF search
    // space must tell apart on five points (paper Sec. 2.3).
    add_1d("constant", 5.0, {});
    add_1d("log", 1.0, {{0.8, {Factor{0, 0.0, 1}}}});
    add_1d("sqrt", 3.0, {{1.2, {Factor{0, 0.5, 0}}}});
    add_1d("linear", 2.0, {{0.5, {Factor{0, 1.0, 0}}}});
    add_1d("xlogx", 0.5, {{0.3, {Factor{0, 1.0, 1}}}});
    add_1d("x15", 2.0, {{0.1, {Factor{0, 1.5, 0}}}});
    add_1d("quadratic", 1.0, {{0.05, {Factor{0, 2.0, 0}}}});

    // Multi-parameter cases (Extra-P's best-factor combination heuristic).
    {
        OracleCase c;
        c.name = "mp_additive";
        c.truth = make_truth(
            1.0,
            {{0.5, {Factor{0, 1.0, 0}}}, {0.2, {Factor{1, 1.0, 0}}}},
            {"x1", "x2"});
        c.points = grid_2d(five_steps, {2, 4, 8});
        cases.push_back(std::move(c));
    }
    {
        OracleCase c;
        c.name = "mp_multiplicative";
        c.truth = make_truth(
            2.0, {{0.05, {Factor{0, 1.0, 0}, Factor{1, 1.0, 0}}}},
            {"x1", "x2"});
        c.points = grid_2d(five_steps, {2, 4, 8});
        cases.push_back(std::move(c));
    }
    return cases;
}

std::vector<OracleCase> quick_oracle_cases() {
    return select_oracle_cases(
        {"constant", "log", "linear", "xlogx", "quadratic", "mp_additive"});
}

std::vector<OracleCase> select_oracle_cases(
    const std::vector<std::string>& names) {
    std::vector<OracleCase> suite = default_oracle_cases();
    for (const std::string& name : names) {
        if (std::none_of(suite.begin(), suite.end(),
                         [&](const OracleCase& c) { return c.name == name; })) {
            throw InvalidArgumentError("unknown oracle case '" + name + "'");
        }
    }
    std::vector<OracleCase> out;
    for (OracleCase& c : suite) {
        if (std::find(names.begin(), names.end(), c.name) != names.end()) {
            out.push_back(std::move(c));
        }
    }
    return out;
}

}  // namespace extradeep::eval
