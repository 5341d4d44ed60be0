#include "serve/query.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "advisor/scenario.hpp"
#include "advisor/whatif.hpp"
#include "analysis/config_search.hpp"
#include "analysis/cost.hpp"
#include "analysis/speedup.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "obs/trace.hpp"

namespace extradeep::serve {

namespace {

std::vector<std::string> split_spaces(const std::string& line) {
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < line.size()) {
        while (pos < line.size() && line[pos] == ' ') {
            ++pos;
        }
        const std::size_t start = pos;
        while (pos < line.size() && line[pos] != ' ') {
            ++pos;
        }
        if (pos > start) {
            out.push_back(line.substr(start, pos - start));
        }
    }
    return out;
}

/// Protocol argument: a finite double. Throws InvalidArgumentError with the
/// offending token so the caller's catch turns it into an `err` line.
double arg_double(const std::string& token, const char* what) {
    double v = 0.0;
    if (!fmt::parse_double(token, v) || std::isnan(v)) {
        throw InvalidArgumentError(std::string("bad ") + what + " '" + token +
                                   "'");
    }
    return v;
}

double arg_positive(const std::string& token, const char* what) {
    const double v = arg_double(token, what);
    if (!std::isfinite(v) || v <= 0.0) {
        throw InvalidArgumentError(std::string(what) + " must be positive");
    }
    return v;
}

/// Limits accept "inf" (no limit); otherwise must be positive.
double arg_limit(const std::string& token, const char* what) {
    const double v = arg_double(token, what);
    if (std::isinf(v) && v > 0.0) {
        return v;
    }
    if (v <= 0.0) {
        throw InvalidArgumentError(std::string(what) +
                                   " must be positive or 'inf'");
    }
    return v;
}

std::shared_ptr<const ServableModel> require_model(
    const ModelRegistry& registry, const std::string& name) {
    auto model = registry.find(name);
    if (!model) {
        throw InvalidArgumentError("unknown model '" + name + "'");
    }
    return model;
}

/// Predicted per-epoch runtimes at the given rank counts.
std::vector<double> predicted_runtimes(const ServableModel& model,
                                       const std::vector<double>& xs) {
    std::vector<double> out;
    out.reserve(xs.size());
    for (const double x : xs) {
        out.push_back(model.epoch_time.evaluate(x));
    }
    return out;
}

std::string do_predict(const ServableModel& model,
                       const std::vector<std::string>& args) {
    if (args.size() < 1 || args.size() > 3) {
        throw InvalidArgumentError(
            "usage: predict <model> <x> [epoch|computation|communication|"
            "memory] [confidence]");
    }
    const double x = arg_positive(args[0], "rank count");
    const EpochModel* target = &model.epoch_time;
    std::size_t next = 1;
    if (args.size() > next) {
        const std::string& which = args[next];
        if (which == "epoch") {
            ++next;
        } else if (which == "computation") {
            target = &model.phase_time[0];
            ++next;
        } else if (which == "communication") {
            target = &model.phase_time[1];
            ++next;
        } else if (which == "memory") {
            target = &model.phase_time[2];
            ++next;
        }
    }
    double confidence = 0.95;
    if (args.size() > next) {
        confidence = arg_double(args[next], "confidence");
        if (confidence <= 0.0 || confidence >= 1.0) {
            throw InvalidArgumentError("confidence must be in (0, 1)");
        }
        ++next;
    }
    if (next != args.size()) {
        throw InvalidArgumentError("unexpected argument '" + args[next] + "'");
    }
    const modeling::PredictionInterval pi =
        target->predict_interval(x, confidence);
    std::ostringstream os;
    os << "ok t=" << fmt::shortest(pi.prediction)
       << " lo=" << fmt::shortest(pi.lower)
       << " hi=" << fmt::shortest(pi.upper);
    return os.str();
}

std::string do_speedup(const ServableModel& model,
                       const std::vector<std::string>& args, bool efficiency) {
    if (args.size() < 2) {
        throw InvalidArgumentError(std::string("usage: ") +
                                   (efficiency ? "efficiency" : "speedup") +
                                   " <model> <x1> <x2> [<x> ...]");
    }
    std::vector<double> xs;
    xs.reserve(args.size());
    for (const auto& a : args) {
        xs.push_back(arg_positive(a, "rank count"));
    }
    const std::vector<double> runtimes = predicted_runtimes(model, xs);
    const std::vector<double> values =
        efficiency ? analysis::efficiencies(xs, runtimes)
                   : analysis::speedups(runtimes);
    std::ostringstream os;
    os << "ok";
    for (const double v : values) {
        os << ' ' << fmt::shortest(v);
    }
    return os.str();
}

std::string do_cost(const ServableModel& model,
                    const std::vector<std::string>& args) {
    if (args.size() < 1 || args.size() > 2) {
        throw InvalidArgumentError("usage: cost <model> <x> [cores_per_rank]");
    }
    const double x = arg_positive(args[0], "rank count");
    double rho = static_cast<double>(model.cores_per_rank);
    if (args.size() == 2) {
        rho = arg_positive(args[1], "cores_per_rank");
    }
    const double runtime = model.epoch_time.evaluate(x);
    const double cost = analysis::training_cost_core_hours(runtime, x, rho);
    std::ostringstream os;
    os << "ok cost=" << fmt::shortest(cost)
       << " time=" << fmt::shortest(runtime) << " rho=" << fmt::shortest(rho);
    return os.str();
}

std::string do_search(const ServableModel& model,
                      const std::vector<std::string>& args) {
    if (args.size() < 3) {
        throw InvalidArgumentError(
            "usage: search <model> <max_time_s> <max_cost> <x1> [<x> ...]");
    }
    analysis::ConfigSearchLimits limits;
    limits.max_time_s = arg_limit(args[0], "max_time_s");
    limits.max_cost = arg_limit(args[1], "max_cost");
    std::vector<double> candidates;
    for (std::size_t i = 2; i < args.size(); ++i) {
        candidates.push_back(arg_positive(args[i], "candidate rank count"));
    }
    const analysis::ConfigSearchResult result =
        analysis::find_cost_effective_config(
            [&model](double ranks) {
                return model.epoch_time.evaluate(ranks);
            },
            candidates,
            analysis::core_hours_cost(
                static_cast<double>(model.cores_per_rank)),
            limits, model.scaling);
    std::size_t feasible = 0;
    for (const auto& c : result.candidates) {
        if (c.feasible()) {
            ++feasible;
        }
    }
    std::ostringstream os;
    if (result.best.has_value()) {
        const analysis::ConfigCandidate& best =
            result.candidates[*result.best];
        os << "ok best=" << fmt::shortest(best.ranks)
           << " time=" << fmt::shortest(best.time_s)
           << " cost=" << fmt::shortest(best.cost)
           << " eff=" << fmt::shortest(best.efficiency_pct);
    } else {
        os << "ok best=none";
    }
    os << " feasible=" << feasible << " n=" << result.candidates.size();
    return os.str();
}

/// The advisor consumes the servable model's fields directly — the ModelSet
/// mirror keeps the advisor library independent of the serve layer.
advisor::ModelSet model_set_of(const ServableModel& model) {
    advisor::ModelSet ms;
    ms.dataset = model.dataset;
    ms.system_name = model.system_name;
    ms.strategy = model.strategy;
    ms.scaling = model.scaling;
    ms.batch_per_worker = model.batch_per_worker;
    ms.model_parallel_degree = model.model_parallel_degree;
    ms.epoch_time = model.epoch_time;
    ms.phase_time = model.phase_time;
    ms.step_math = model.step_math;
    return ms;
}

std::string do_whatif(const ServableModel& model,
                      const std::vector<std::string>& args) {
    if (args.size() != 2) {
        throw InvalidArgumentError(
            "usage: whatif <model> <x> <transform>[+<transform>]...");
    }
    const double x = arg_positive(args[0], "rank count");
    const advisor::Scenario sc = advisor::parse_scenario(args[1]);
    const advisor::WhatIfResult r =
        advisor::evaluate_whatif(model_set_of(model), x, sc);
    std::ostringstream os;
    os << "ok base=" << fmt::shortest(r.baseline)
       << " time=" << fmt::shortest(r.scenario_time)
       << " saving=" << fmt::shortest(r.saving)
       << " lo=" << fmt::shortest(r.lower) << " hi=" << fmt::shortest(r.upper);
    return os.str();
}

std::string do_advise(const ServableModel& model,
                      const std::vector<std::string>& args) {
    if (args.size() < 1 || args.size() > 2) {
        throw InvalidArgumentError("usage: advise <model> <x> [top]");
    }
    const double x = arg_positive(args[0], "rank count");
    std::size_t top = 0;
    if (args.size() == 2) {
        const double t = arg_positive(args[1], "top");
        if (t != std::floor(t) || t > 64.0) {
            throw InvalidArgumentError("top must be an integer in [1, 64]");
        }
        top = static_cast<std::size_t>(t);
    }
    const advisor::Advice advice =
        advisor::advise(model_set_of(model), x, top);
    std::ostringstream os;
    os << "ok n=" << advice.ranked.size() << " skipped=" << advice.skipped;
    for (std::size_t i = 0; i < advice.ranked.size(); ++i) {
        const advisor::WhatIfResult& r = advice.ranked[i];
        const std::size_t rank = i + 1;
        os << " s" << rank << '=' << r.spec << " v" << rank << '='
           << fmt::shortest(r.saving) << " lo" << rank << '='
           << fmt::shortest(r.lower) << " hi" << rank << '='
           << fmt::shortest(r.upper);
    }
    return os.str();
}

/// Acquisition view of the adaptive planner (src/planner): score each
/// candidate rank count by the served model's relative prediction-interval
/// half-width and recommend profiling the least certain one next. Ties
/// break toward the earliest candidate, mirroring run_plan's argmax.
std::string do_plan(const ServableModel& model,
                    const std::vector<std::string>& args) {
    if (args.empty()) {
        throw InvalidArgumentError("usage: plan <model> <x1> [<x> ...]");
    }
    std::vector<double> xs;
    xs.reserve(args.size());
    for (const auto& a : args) {
        xs.push_back(arg_positive(a, "candidate rank count"));
    }
    std::size_t next = 0;
    double best = -1.0;
    std::vector<double> widths;
    widths.reserve(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double half = model.epoch_time.interval_half_width(xs[i]);
        const double scale =
            std::max(std::abs(model.epoch_time.evaluate(xs[i])), 1e-12);
        const double rel = half / scale;
        widths.push_back(rel);
        if (rel > best) {
            best = rel;
            next = i;
        }
    }
    std::ostringstream os;
    os << "ok next=" << fmt::shortest(xs[next])
       << " rw=" << fmt::shortest(widths[next]) << " n=" << xs.size();
    for (std::size_t i = 0; i < xs.size(); ++i) {
        os << ' ' << fmt::shortest(xs[i]) << '=' << fmt::shortest(widths[i]);
    }
    return os.str();
}

}  // namespace

std::string_view query_kind_name(QueryKind kind) {
    switch (kind) {
        case QueryKind::Predict: return "predict";
        case QueryKind::Speedup: return "speedup";
        case QueryKind::Efficiency: return "efficiency";
        case QueryKind::Cost: return "cost";
        case QueryKind::Search: return "search";
        case QueryKind::Whatif: return "whatif";
        case QueryKind::Advise: return "advise";
        case QueryKind::List: return "list";
        case QueryKind::Stats: return "stats";
        case QueryKind::Metrics: return "metrics";
        case QueryKind::Ping: return "ping";
        case QueryKind::Reload: return "reload";
        case QueryKind::Ingest: return "ingest";
        case QueryKind::FleetStats: return "fleet_stats";
        case QueryKind::Plan: return "plan";
        case QueryKind::Other: return "other";
    }
    throw InvalidArgumentError("query_kind_name: unknown kind");
}

bool is_cheap_request(std::string_view request) {
    // The verb is the first space-separated token, as in split_spaces.
    const std::size_t start = request.find_first_not_of(' ');
    if (start == std::string_view::npos) {
        return false;
    }
    const std::string_view verb =
        request.substr(start, request.find(' ', start) - start);
    return verb == "predict" || verb == "speedup" || verb == "efficiency" ||
           verb == "cost";
}

std::string escape_lines(const std::string& text) {
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        if (c == '\\') {
            out += "\\\\";
        } else if (c == '\n') {
            out += "\\n";
        } else {
            out += c;
        }
    }
    return out;
}

std::string unescape_lines(const std::string& text) {
    std::string out;
    out.reserve(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '\\' && i + 1 < text.size()) {
            const char next = text[++i];
            out += next == 'n' ? '\n' : next;
        } else {
            out += text[i];
        }
    }
    return out;
}

QueryEngine::QueryEngine(std::shared_ptr<ModelRegistry> registry,
                         const obs::Clock* clock)
    : registry_(std::move(registry)),
      clock_(clock != nullptr ? clock : &obs::steady_clock_instance()) {
    if (!registry_) {
        throw InvalidArgumentError("QueryEngine: null registry");
    }
    // Register all instruments up front, in enum order, so the exposition
    // layout is fixed and identical across engines.
    for (int k = 0; k < kQueryKindCount; ++k) {
        const std::string kind(query_kind_name(static_cast<QueryKind>(k)));
        const auto i = static_cast<std::size_t>(k);
        request_counters_[i] = &metrics_.counter(
            "extradeep_serve_requests_total", "kind", kind);
        error_counters_[i] =
            &metrics_.counter("extradeep_serve_errors_total", "kind", kind);
        latency_histograms_[i] = &metrics_.histogram(
            "extradeep_serve_query_latency_us",
            obs::MetricsRegistry::default_latency_buckets_us(), "kind", kind);
    }
    // Registry size, refreshed by the `metrics` verb so fleet hot-swap
    // growth is visible in the exposition.
    models_gauge_ = &metrics_.gauge("extradeep_serve_registry_models");
}

void QueryEngine::set_fleet_handler(std::shared_ptr<FleetHandler> handler) {
    if (!handler) {
        throw InvalidArgumentError("set_fleet_handler: null handler");
    }
    if (fleet_) {
        throw InvalidArgumentError(
            "set_fleet_handler: a fleet handler is already attached");
    }
    fleet_ = std::move(handler);
    fleet_->attach_metrics(metrics_);
}

std::string QueryEngine::dispatch(const std::string& request,
                                  QueryKind& kind) {
    // `ingest` is routed before tokenisation: its payload is the rest of
    // the line verbatim (escaped EDP bytes legitimately contain spaces and
    // tabs, which the space-splitting grammar would mangle).
    if (request == "ingest" || request.rfind("ingest ", 0) == 0) {
        kind = QueryKind::Ingest;
        const std::size_t name_start = request.find_first_not_of(' ', 6);
        const std::size_t name_end = name_start == std::string::npos
                                         ? std::string::npos
                                         : request.find(' ', name_start);
        if (name_start == std::string::npos || name_end == std::string::npos ||
            request.find_first_not_of(' ', name_end) == std::string::npos) {
            throw InvalidArgumentError(
                "usage: ingest <experiment> <escaped-edp-payload>");
        }
        if (!fleet_) {
            throw InvalidArgumentError("fleet mode disabled");
        }
        const std::string experiment =
            request.substr(name_start, name_end - name_start);
        // The payload starts after exactly one separating space; any
        // further leading spaces belong to the payload bytes.
        return "ok " + fleet_->handle_ingest(experiment,
                                             request.substr(name_end + 1));
    }
    const std::vector<std::string> tokens = split_spaces(request);
    if (tokens.empty()) {
        kind = QueryKind::Other;
        throw InvalidArgumentError("empty request");
    }
    const std::string& cmd = tokens[0];
    const std::vector<std::string> args(tokens.begin() + 1, tokens.end());

    if (cmd == "ping") {
        kind = QueryKind::Ping;
        if (!args.empty()) {
            throw InvalidArgumentError("usage: ping");
        }
        return "ok pong";
    }
    if (cmd == "list") {
        kind = QueryKind::List;
        if (!args.empty()) {
            throw InvalidArgumentError("usage: list");
        }
        const std::vector<std::string> names = registry_->names();
        std::ostringstream os;
        os << "ok " << names.size();
        for (const auto& n : names) {
            os << ' ' << n;
        }
        return os.str();
    }
    if (cmd == "stats") {
        kind = QueryKind::Stats;
        if (!args.empty()) {
            throw InvalidArgumentError("usage: stats");
        }
        const auto snapshot = counters();
        std::ostringstream os;
        os << "ok";
        for (int k = 0; k < kQueryKindCount; ++k) {
            const auto i = static_cast<std::size_t>(k);
            const QueryCounters& c = snapshot[i];
            // p50/p95 are histogram-estimated (bucket upper edges, in us);
            // the four leading fields keep their pre-observability layout.
            os << ' ' << query_kind_name(static_cast<QueryKind>(k)) << '='
               << c.requests << ':' << c.errors << ':' << c.total_latency_us
               << ':' << c.max_latency_us << ':'
               << fmt::shortest(latency_histograms_[i]->quantile(0.50)) << ':'
               << fmt::shortest(latency_histograms_[i]->quantile(0.95));
        }
        return os.str();
    }
    if (cmd == "metrics") {
        kind = QueryKind::Metrics;
        if (!args.empty()) {
            throw InvalidArgumentError("usage: metrics");
        }
        models_gauge_->set(static_cast<double>(registry_->size()));
        if (fleet_) {
            fleet_->update_metrics();
        }
        return "ok " + escape_lines(metrics_.exposition());
    }
    if (cmd == "fleet-stats") {
        kind = QueryKind::FleetStats;
        if (!args.empty()) {
            throw InvalidArgumentError("usage: fleet-stats");
        }
        if (!fleet_) {
            throw InvalidArgumentError("fleet mode disabled");
        }
        return "ok " + fleet_->fleet_stats_line();
    }
    if (cmd == "reload") {
        kind = QueryKind::Reload;
        if (!args.empty()) {
            throw InvalidArgumentError("usage: reload");
        }
        const RegistryLoadReport report = registry_->reload();
        std::ostringstream os;
        os << "ok loaded=" << report.loaded
           << " quarantined=" << report.quarantined
           << " removed=" << report.removed;
        return os.str();
    }
    if (cmd == "predict" || cmd == "speedup" || cmd == "efficiency" ||
        cmd == "cost" || cmd == "search" || cmd == "whatif" ||
        cmd == "advise" || cmd == "plan") {
        // Attribute the request to its kind before anything can throw, so
        // errors (unknown model, bad arguments) are counted under the right
        // bucket rather than under `other`.
        kind = cmd == "predict"      ? QueryKind::Predict
               : cmd == "speedup"    ? QueryKind::Speedup
               : cmd == "efficiency" ? QueryKind::Efficiency
               : cmd == "cost"       ? QueryKind::Cost
               : cmd == "whatif"     ? QueryKind::Whatif
               : cmd == "advise"     ? QueryKind::Advise
               : cmd == "plan"       ? QueryKind::Plan
                                     : QueryKind::Search;
        if (args.empty()) {
            throw InvalidArgumentError("usage: " + cmd + " <model> ...");
        }
        const auto model = require_model(*registry_, args[0]);
        const std::vector<std::string> rest(args.begin() + 1, args.end());
        switch (kind) {
            case QueryKind::Predict:
                return do_predict(*model, rest);
            case QueryKind::Speedup:
                return do_speedup(*model, rest, /*efficiency=*/false);
            case QueryKind::Efficiency:
                return do_speedup(*model, rest, /*efficiency=*/true);
            case QueryKind::Cost:
                return do_cost(*model, rest);
            case QueryKind::Whatif:
                return do_whatif(*model, rest);
            case QueryKind::Advise:
                return do_advise(*model, rest);
            case QueryKind::Plan:
                return do_plan(*model, rest);
            default:
                return do_search(*model, rest);
        }
    }
    kind = QueryKind::Other;
    throw InvalidArgumentError("unknown command '" + cmd + "'");
}

std::string QueryEngine::execute(const std::string& request) {
    const obs::Span span{"serve.execute"};
    const std::uint64_t start_ns = clock_->now_ns();
    QueryKind kind = QueryKind::Other;
    std::string response;
    bool failed = false;
    try {
        response = dispatch(request, kind);
    } catch (const Error& e) {
        response = std::string("err ") + e.what();
        failed = true;
    } catch (const std::exception& e) {
        response = std::string("err internal: ") + e.what();
        failed = true;
    }
    const std::uint64_t end_ns = clock_->now_ns();
    const std::uint64_t us =
        end_ns >= start_ns ? (end_ns - start_ns) / 1000 : 0;
    const auto i = static_cast<std::size_t>(kind);
    request_counters_[i]->increment();
    if (failed) {
        error_counters_[i]->increment();
    }
    latency_histograms_[i]->observe(static_cast<double>(us));
    std::uint64_t max = max_latency_us_[i].load();
    while (us > max && !max_latency_us_[i].compare_exchange_weak(max, us)) {
    }
    return response;
}

std::array<QueryCounters, kQueryKindCount> QueryEngine::counters() const {
    std::array<QueryCounters, kQueryKindCount> out{};
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i].requests = request_counters_[i]->value();
        out[i].errors = error_counters_[i]->value();
        out[i].total_latency_us =
            static_cast<std::uint64_t>(latency_histograms_[i]->sum());
        out[i].max_latency_us = max_latency_us_[i].load();
    }
    return out;
}

}  // namespace extradeep::serve
