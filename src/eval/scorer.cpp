#include "eval/scorer.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <sstream>

#include "aggregation/validate.hpp"
#include "analysis/cost.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "extradeep/ingest.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "profiling/edp_io.hpp"

namespace extradeep::eval {

namespace {

/// Confidence level of the scored prediction intervals.
constexpr double kConfidence = 0.95;
/// Fresh aggregated observations drawn per coverage point.
constexpr int kCoverageDraws = 20;

/// The aggregated modeling input recovered from the EDP files.
struct RecoveredData {
    std::vector<std::vector<double>> points;
    std::vector<double> values;  ///< oracle kernel Ṽ_t (train-step time)
    std::string summary;
    std::size_t configs_kept = 0;
    std::size_t runs_kept = 0;
};

double oracle_train_time(const aggregation::ConfigurationData& config,
                         const std::string& case_name) {
    const aggregation::KernelStats* k =
        config.find_kernel(kOracleKernel);
    if (k == nullptr) {
        throw Error("score_case(" + case_name +
                    "): oracle kernel lost by the pipeline");
    }
    return k->train_metric(aggregation::Metric::Time);
}

std::vector<double> point_of(const aggregation::ConfigurationData& config,
                             const std::vector<std::string>& param_names,
                             const std::string& case_name) {
    std::vector<double> point;
    point.reserve(param_names.size());
    for (const auto& name : param_names) {
        const auto it = config.params.find(name);
        if (it == config.params.end()) {
            throw Error("score_case(" + case_name +
                        "): configuration lost parameter '" + name + "'");
        }
        point.push_back(it->second);
    }
    return point;
}

/// Single-parameter path: the full ingest_edp_files stack, including
/// ExperimentData and the modelable-kernel filter.
RecoveredData recover_single_param(const OracleCase& oracle,
                                   const std::vector<std::string>& paths) {
    IngestOptions options;
    options.primary_parameter = oracle.truth.param_names().front();
    const IngestResult result = ingest_edp_files(paths, options);
    if (!result.modelable()) {
        throw Error("score_case(" + oracle.name +
                    "): ingestion left too few configurations (" +
                    result.summary() + ")");
    }
    // The modelable-kernel filter must keep the oracle kernel and drop the
    // sporadic one (present only in the first configuration).
    const auto modelable = result.data.modelable_kernels();
    const bool has_oracle =
        std::find(modelable.begin(), modelable.end(), kOracleKernel) !=
        modelable.end();
    const bool has_sporadic =
        std::find(modelable.begin(), modelable.end(), kSporadicKernel) !=
        modelable.end();
    if (!has_oracle || has_sporadic) {
        throw Error("score_case(" + oracle.name +
                    "): modelable-kernel filter misbehaved (oracle " +
                    (has_oracle ? "kept" : "lost") + ", sporadic " +
                    (has_sporadic ? "kept" : "dropped") + ")");
    }
    RecoveredData out;
    for (const auto& config : result.data.configs()) {
        out.points.push_back(
            point_of(config, oracle.truth.param_names(), oracle.name));
        out.values.push_back(oracle_train_time(config, oracle.name));
    }
    out.summary = result.summary();
    out.configs_kept = result.configs_kept;
    out.runs_kept = result.runs_kept;
    return out;
}

/// Multi-parameter path: ExperimentData keys points by the primary parameter
/// alone and cannot hold a 2-D grid, so parse, validate and aggregate
/// directly - the same stages ingest_runs drives.
RecoveredData recover_multi_param(const OracleCase& oracle,
                                  const std::vector<std::string>& paths) {
    std::map<std::map<std::string, double>,
             std::vector<profiling::ProfiledRun>>
        groups;
    for (const auto& path : paths) {
        profiling::EdpReadResult parsed =
            profiling::read_edp_file(path, profiling::EdpReadOptions{});
        if (!parsed.ok()) {
            throw Error("score_case(" + oracle.name + "): " + path +
                        " quarantined (" + parsed.diagnostics.summary() + ")");
        }
        groups[parsed.run.params].push_back(std::move(parsed.run));
    }
    std::vector<std::vector<profiling::ProfiledRun>> configs;
    configs.reserve(groups.size());
    for (auto& [params, runs] : groups) {
        configs.push_back(std::move(runs));
    }
    const aggregation::ExperimentVerdict verdict =
        aggregation::validate_experiment(configs);
    RecoveredData out;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        if (!verdict.keep_config[c]) {
            continue;
        }
        std::vector<profiling::ProfiledRun> kept;
        for (std::size_t r = 0; r < configs[c].size(); ++r) {
            if (verdict.keep_run[c][r]) {
                kept.push_back(std::move(configs[c][r]));
            }
        }
        const auto config = aggregation::aggregate_runs(kept);
        out.points.push_back(
            point_of(config, oracle.truth.param_names(), oracle.name));
        out.values.push_back(oracle_train_time(config, oracle.name));
        out.configs_kept += 1;
        out.runs_kept += kept.size();
    }
    std::ostringstream os;
    os << "kept " << out.runs_kept << " runs, " << out.configs_kept << "/"
       << configs.size() << " configurations; "
       << verdict.diagnostics.summary();
    out.summary = os.str();
    if (out.points.size() < oracle.points.size()) {
        throw Error("score_case(" + oracle.name +
                    "): validation dropped oracle configurations (" +
                    out.summary + ")");
    }
    return out;
}

/// Dense in-range evaluation grid: `per_dim` evenly spaced values between
/// the grid minimum and maximum of every parameter.
std::vector<std::vector<double>> dense_grid(
    const std::vector<std::vector<double>>& points, int per_dim) {
    const std::size_t dims = points.front().size();
    std::vector<double> lo(dims, 0.0);
    std::vector<double> hi(dims, 0.0);
    for (std::size_t d = 0; d < dims; ++d) {
        lo[d] = hi[d] = points.front()[d];
        for (const auto& p : points) {
            lo[d] = std::min(lo[d], p[d]);
            hi[d] = std::max(hi[d], p[d]);
        }
    }
    std::vector<std::vector<double>> grid;
    std::vector<std::size_t> idx(dims, 0);
    while (true) {
        std::vector<double> p(dims);
        for (std::size_t d = 0; d < dims; ++d) {
            p[d] = lo[d] + (hi[d] - lo[d]) * static_cast<double>(idx[d]) /
                               static_cast<double>(per_dim - 1);
        }
        grid.push_back(std::move(p));
        std::size_t d = 0;
        while (d < dims && ++idx[d] == static_cast<std::size_t>(per_dim)) {
            idx[d] = 0;
            ++d;
        }
        if (d == dims) {
            break;
        }
    }
    return grid;
}

/// One fresh aggregated observation of the oracle at `point` - the quantity
/// the model's prediction interval claims to bracket.
double fresh_observation(const OracleCase& oracle,
                         const std::vector<double>& point, double noise,
                         std::uint64_t seed) {
    OracleCase probe = oracle;
    probe.points = {point};
    MaterializeOptions m;
    m.noise = noise;
    m.seed = seed;
    const auto runs = materialize_config(probe, 0, m);
    const auto config = aggregation::aggregate_runs(runs);
    return oracle_train_time(config, oracle.name);
}

}  // namespace

ModelAccuracy score_model(const OracleCase& oracle,
                          const modeling::PerformanceModel& fitted) {
    ModelAccuracy out;

    // Exponent recovery: dominant growth must match in every parameter.
    out.exact_recovery = true;
    for (std::size_t d = 0; d < oracle.num_params(); ++d) {
        if (fitted.dominant_growth(static_cast<int>(d)) !=
            oracle.truth.dominant_growth(static_cast<int>(d))) {
            out.exact_recovery = false;
        }
    }

    // In-range SMAPE on a dense grid against the noiseless truth.
    const int per_dim = oracle.num_params() == 1 ? 33 : 9;
    const auto grid = dense_grid(oracle.points, per_dim);
    std::vector<double> predicted;
    std::vector<double> actual;
    predicted.reserve(grid.size());
    actual.reserve(grid.size());
    for (const auto& p : grid) {
        predicted.push_back(fitted.evaluate(p));
        actual.push_back(oracle.truth.evaluate(p));
    }
    out.smape_in_range = stats::smape(predicted, actual);

    // Extrapolation error at 2x/4x/8x the largest primary value, other
    // parameters held at their grid maximum (the paper's P+ methodology).
    std::vector<double> max_point = oracle.points.front();
    for (const auto& p : oracle.points) {
        for (std::size_t d = 0; d < p.size(); ++d) {
            max_point[d] = std::max(max_point[d], p[d]);
        }
    }
    for (int i = 0; i < 3; ++i) {
        std::vector<double> p = max_point;
        p[0] *= static_cast<double>(2 << i);
        out.extrap_error[i] =
            stats::percent_error(fitted.evaluate(p), oracle.truth.evaluate(p));
    }
    return out;
}

CaseScore score_case(const OracleCase& oracle, const ScoreOptions& options) {
    const obs::Span case_span{"eval.score_case"};
    if (oracle.points.empty()) {
        throw InvalidArgumentError("score_case: case without measurement points");
    }
    CaseScore score;
    score.case_name = oracle.name;
    score.noise = options.noise;
    score.seed = options.seed;
    score.truth_str = oracle.truth.to_string();

    MaterializeOptions mat;
    mat.noise = options.noise;
    mat.seed = options.seed;

    // (1) Materialise and round-trip through the on-disk EDP format. The
    // tag carries the pid so concurrent harness processes (e.g. parallel
    // ctest) never share a work directory.
    std::ostringstream tag;
    tag << "extradeep-eval-" << oracle.name << "-n"
        << static_cast<int>(options.noise * 1e4) << "-s" << options.seed
        << "-p" << ::getpid();
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / tag.str();
    const std::vector<std::string> paths =
        write_edp_tree(oracle, mat, dir.string());
    score.files_written = paths.size();

    // (2) Ingest: parse -> validate -> aggregate.
    RecoveredData recovered;
    try {
        recovered = oracle.num_params() == 1
                        ? recover_single_param(oracle, paths)
                        : recover_multi_param(oracle, paths);
    } catch (...) {
        if (!options.keep_files) {
            std::error_code ec;
            std::filesystem::remove_all(dir, ec);  // best-effort cleanup
        }
        throw;
    }
    if (!options.keep_files) {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }
    score.ingest_summary = recovered.summary;
    score.configs_kept = recovered.configs_kept;
    score.runs_kept = recovered.runs_kept;

    // (3) Model generation.
    const modeling::ModelGenerator generator;
    const obs::Clock& clock = obs::steady_clock_instance();
    const std::uint64_t t0 = clock.now_ns();
    const modeling::PerformanceModel fitted = generator.fit(
        recovered.points, recovered.values, oracle.truth.param_names());
    const std::uint64_t t1 = clock.now_ns();
    score.fit_seconds = static_cast<double>(t1 - t0) * 1e-9;
    score.hypotheses_searched = fitted.quality().hypotheses_searched;
    score.hypotheses_per_sec =
        static_cast<double>(score.hypotheses_searched) /
        std::max(score.fit_seconds, 1e-9);
    score.fitted_str = fitted.to_string();

    // (4-6) Exponent recovery, dense-grid SMAPE and extrapolation error -
    // the deterministic truth-referenced metrics shared with the planner.
    const ModelAccuracy accuracy = score_model(oracle, fitted);
    score.exact_recovery = accuracy.exact_recovery;
    score.smape_in_range = accuracy.smape_in_range;
    for (int i = 0; i < 3; ++i) {
        score.extrap_error[i] = accuracy.extrap_error[i];
    }

    const int per_dim = oracle.num_params() == 1 ? 33 : 9;
    const auto grid = dense_grid(oracle.points, per_dim);
    std::vector<double> max_point = oracle.points.front();
    for (const auto& p : oracle.points) {
        for (std::size_t d = 0; d < p.size(); ++d) {
            max_point[d] = std::max(max_point[d], p[d]);
        }
    }

    // (7) Prediction-interval coverage against fresh aggregated
    // observations at the modeling points and at 2x.
    {
        std::vector<std::vector<double>> coverage_points = oracle.points;
        std::vector<double> twice = max_point;
        twice[0] *= 2.0;
        coverage_points.push_back(twice);
        const int draws = options.noise > 0.0 ? kCoverageDraws : 1;
        int covered = 0;
        int total = 0;
        for (std::size_t pi = 0; pi < coverage_points.size(); ++pi) {
            const auto& p = coverage_points[pi];
            const modeling::PredictionInterval interval =
                fitted.predict_interval(p, kConfidence);
            for (int dr = 0; dr < draws; ++dr) {
                const std::uint64_t draw_seed =
                    mix64(options.seed,
                          mix64(0xC0FFEEULL + pi,
                                static_cast<std::uint64_t>(dr)));
                const double obs =
                    fresh_observation(oracle, p, options.noise, draw_seed);
                const double tol = 1e-9 * (1.0 + std::abs(obs));
                if (obs >= interval.lower - tol && obs <= interval.upper + tol) {
                    ++covered;
                }
                ++total;
            }
        }
        score.pi_coverage =
            static_cast<double>(covered) / static_cast<double>(total);
    }

    // (8) Analysis layer: the Eq. 14 cost model fitted from the recovered
    // runtimes must track the analytic truth cost (single-parameter only;
    // cost is a function of the rank count x1).
    if (oracle.num_params() == 1) {
        constexpr double kCoresPerRank = 16.0;
        std::vector<double> xs;
        xs.reserve(recovered.points.size());
        for (const auto& p : recovered.points) {
            xs.push_back(p.front());
        }
        const modeling::PerformanceModel cost_model = analysis::model_cost(
            xs, recovered.values, analysis::core_hours_cost(kCoresPerRank),
            generator);
        std::vector<double> cost_pred;
        std::vector<double> cost_truth;
        for (const auto& p : grid) {
            cost_pred.push_back(cost_model.evaluate(p));
            cost_truth.push_back(analysis::training_cost_core_hours(
                oracle.truth.evaluate(p), p.front(), kCoresPerRank));
        }
        score.cost_smape = stats::smape(cost_pred, cost_truth);
    }
    return score;
}

std::vector<CaseScore> score_suite(const std::vector<OracleCase>& cases,
                                   const std::vector<double>& noise_levels,
                                   const ScoreOptions& options) {
    std::vector<CaseScore> out;
    out.reserve(cases.size() * noise_levels.size());
    for (const auto& oracle : cases) {
        for (const double noise : noise_levels) {
            ScoreOptions per_case = options;
            per_case.noise = noise;
            out.push_back(score_case(oracle, per_case));
        }
    }
    return out;
}

}  // namespace extradeep::eval
