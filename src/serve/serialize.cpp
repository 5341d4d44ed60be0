#include "serve/serialize.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "common/error.hpp"
#include "common/format.hpp"

namespace extradeep::serve {

namespace {

bool valid_model_name(const std::string& name) {
    if (name.empty() || name.size() > 128) {
        return false;
    }
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                        c == '-';
        if (!ok) {
            return false;
        }
    }
    return true;
}

void check_text_field(const std::string& s, const char* what) {
    if (s.find_first_of("\t\n\r") != std::string::npos) {
        throw InvalidArgumentError(std::string("EDPM: ") + what +
                                   " must not contain tabs or line breaks");
    }
}

double checked_finite(double v, const char* what) {
    if (!std::isfinite(v)) {
        throw InvalidArgumentError(std::string("EDPM: non-finite value for ") +
                                   what);
    }
    return v;
}

/// The eight persisted per-step models, in kModelKeys order.
std::array<const modeling::PerformanceModel*, 8> step_models(
    const ServableModel& m) {
    return {
        &m.epoch_time.train_step_model(),
        &m.epoch_time.val_step_model(),
        &m.phase_time[0].train_step_model(),
        &m.phase_time[0].val_step_model(),
        &m.phase_time[1].train_step_model(),
        &m.phase_time[1].val_step_model(),
        &m.phase_time[2].train_step_model(),
        &m.phase_time[2].val_step_model(),
    };
}

void write_model_section(std::ostream& os, const char* key,
                         const modeling::PerformanceModel& pm) {
    os << "MODEL\t" << key << '\n';
    os << "PARAMS\t" << pm.param_names().size();
    for (const auto& name : pm.param_names()) {
        check_text_field(name, "parameter name");
        os << '\t' << name;
    }
    os << '\n';
    os << "CONST\t" << fmt::hexfloat(checked_finite(pm.constant(), "constant"))
       << '\n';
    const modeling::ModelQuality& q = pm.quality();
    // QUALITY is pure reporting metadata and the one record where
    // non-finite values are representable (degenerate fits).
    os << "QUALITY\t" << fmt::hexfloat(q.fit_smape) << '\t'
       << fmt::hexfloat(q.cv_smape) << '\t' << fmt::hexfloat(q.r_squared)
       << '\t' << fmt::hexfloat(q.rss) << '\t' << q.hypotheses_searched
       << '\n';
    for (const auto& term : pm.terms()) {
        os << "TERM\t"
           << fmt::hexfloat(checked_finite(term.coefficient, "coefficient"))
           << '\t' << term.factors.size();
        for (const auto& f : term.factors) {
            if (f.param < 0 ||
                static_cast<std::size_t>(f.param) >= pm.param_names().size()) {
                throw InvalidArgumentError(
                    "EDPM: factor parameter index out of range");
            }
            os << '\t' << f.param << '\t'
               << fmt::hexfloat(checked_finite(f.poly_exp, "poly exponent"))
               << '\t' << f.log_exp;
        }
        os << '\n';
    }
    if (pm.has_fit_info()) {
        const linalg::Matrix& cov = pm.cov_unscaled();
        os << "FIT\t" << pm.degrees_of_freedom() << '\t'
           << fmt::hexfloat(
                  checked_finite(pm.residual_variance(), "residual variance"))
           << '\t' << cov.rows() << '\n';
        for (std::size_t r = 0; r < cov.rows(); ++r) {
            os << "COV";
            for (std::size_t c = 0; c < cov.cols(); ++c) {
                os << '\t'
                   << fmt::hexfloat(checked_finite(cov(r, c), "covariance"));
            }
            os << '\n';
        }
    }
    os << "ENDMODEL\n";
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

std::vector<std::string> split_tabs(const std::string& line) {
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (true) {
        const std::size_t tab = line.find('\t', pos);
        if (tab == std::string::npos) {
            out.push_back(line.substr(pos));
            break;
        }
        out.push_back(line.substr(pos, tab - pos));
        pos = tab + 1;
    }
    return out;
}

/// Raised internally to abandon a parse that cannot make progress (e.g.
/// missing header). Converted to a quarantined result at the top.
struct AbortParse {};

struct Reader {
    std::istream& is;
    DiagnosticLog log;
    long long line_no = 0;

    explicit Reader(std::istream& stream) : is(stream) {}

    void problem(Severity severity, const std::string& reason) {
        log.add(severity, "EDPM: " + reason, line_no);
    }

    bool next_line(std::string& line) {
        if (!std::getline(is, line)) {
            return false;
        }
        ++line_no;
        if (!line.empty() && line.back() == '\r') {
            line.pop_back();  // CRLF tolerance, as in the EDP reader
        }
        return true;
    }
};

bool parse_i64(const std::string& s, std::int64_t& out) {
    try {
        std::size_t idx = 0;
        out = std::stoll(s, &idx);
        return idx == s.size();
    } catch (const std::exception&) {
        return false;
    }
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
    // std::stoull skips leading blanks and negates in unsigned arithmetic,
    // so a minus sign anywhere makes the token malformed.
    if (s.empty() || s.find('-') != std::string::npos) {
        return false;
    }
    try {
        std::size_t idx = 0;
        out = std::stoull(s, &idx);
        return idx == s.size();
    } catch (const std::exception&) {
        return false;
    }
}

/// Finite-only double field (everything except QUALITY).
bool parse_finite(const std::string& s, double& out) {
    return fmt::parse_double(s, out) && std::isfinite(out);
}

/// One parsed MODEL section. `pm` is empty when the section had to be
/// abandoned (Error already recorded).
struct ModelSection {
    std::string key;
    std::optional<modeling::PerformanceModel> pm;
    bool skipped_unknown_key = false;
};

/// Parses one MODEL..ENDMODEL section; the MODEL line itself has already
/// been consumed (fields passed in). Never throws.
ModelSection read_model_section(Reader& r,
                                const std::vector<std::string>& model_fields) {
    ModelSection out;
    if (model_fields.size() != 2 || model_fields[1].empty()) {
        r.problem(Severity::Error, "malformed MODEL record");
    } else {
        out.key = model_fields[1];
    }
    const bool known_key =
        std::find_if(kModelKeys.begin(), kModelKeys.end(),
                     [&](const char* k) { return out.key == k; }) !=
        kModelKeys.end();
    if (!known_key && !out.key.empty()) {
        // Forward compatibility: a newer writer may persist extra models.
        r.problem(Severity::Warning,
                  "unknown model key '" + out.key + "', section skipped");
        out.skipped_unknown_key = true;
    }

    std::vector<std::string> param_names;
    bool have_params = false;
    bool have_const = false;
    double constant = 0.0;
    modeling::ModelQuality quality;
    bool have_quality = false;
    std::vector<modeling::Term> terms;
    bool section_ok = true;  // CONST/PARAMS/TERM integrity
    bool have_fit = false;
    int dof = 0;
    double residual_variance = 0.0;
    linalg::Matrix cov;

    const auto section_error = [&](const std::string& reason) {
        r.problem(Severity::Error, reason);
        section_ok = false;
    };

    std::string line;
    bool closed = false;
    while (r.next_line(line)) {
        if (line == "ENDMODEL") {
            closed = true;
            break;
        }
        const auto f = split_tabs(line);
        const std::string& tag = f[0];
        if (tag == "PARAMS") {
            std::int64_t n = 0;
            if (have_params) {
                section_error("duplicate PARAMS record");
            } else if (f.size() < 2 || !parse_i64(f[1], n) || n < 1 ||
                       f.size() != static_cast<std::size_t>(n) + 2) {
                section_error("malformed PARAMS record");
            } else {
                param_names.assign(f.begin() + 2, f.end());
                have_params = true;
            }
        } else if (tag == "CONST") {
            double v = 0.0;
            if (have_const) {
                section_error("duplicate CONST record");
            } else if (f.size() != 2 || !parse_finite(f[1], v)) {
                section_error("malformed CONST record");
            } else {
                constant = v;
                have_const = true;
            }
        } else if (tag == "QUALITY") {
            // Reporting metadata only: corruption degrades to defaults.
            std::int64_t hyps = 0;
            modeling::ModelQuality q;
            if (f.size() != 6 || !fmt::parse_double(f[1], q.fit_smape) ||
                !fmt::parse_double(f[2], q.cv_smape) ||
                !fmt::parse_double(f[3], q.r_squared) ||
                !fmt::parse_double(f[4], q.rss) || !parse_i64(f[5], hyps)) {
                r.problem(Severity::Warning,
                          "malformed QUALITY record, using defaults");
            } else if (have_quality) {
                r.problem(Severity::Warning, "duplicate QUALITY record");
            } else {
                q.hypotheses_searched = static_cast<int>(hyps);
                quality = q;
                have_quality = true;
            }
        } else if (tag == "TERM") {
            std::int64_t nfac = 0;
            modeling::Term term;
            if (f.size() < 3 || !parse_finite(f[1], term.coefficient) ||
                !parse_i64(f[2], nfac) || nfac < 0 ||
                f.size() != 3 + static_cast<std::size_t>(nfac) * 3) {
                section_error("malformed TERM record");
                continue;
            }
            bool factors_ok = true;
            for (std::int64_t i = 0; i < nfac; ++i) {
                modeling::Factor factor;
                std::int64_t param = 0;
                std::int64_t log_exp = 0;
                const std::size_t base = 3 + static_cast<std::size_t>(i) * 3;
                if (!parse_i64(f[base], param) || param < 0 ||
                    !parse_finite(f[base + 1], factor.poly_exp) ||
                    !parse_i64(f[base + 2], log_exp)) {
                    factors_ok = false;
                    break;
                }
                factor.param = static_cast<int>(param);
                factor.log_exp = static_cast<int>(log_exp);
                term.factors.push_back(factor);
            }
            if (!factors_ok) {
                section_error("malformed TERM factor");
            } else {
                terms.push_back(std::move(term));
            }
        } else if (tag == "FIT") {
            // Fit info only affects prediction intervals; corruption
            // degrades to point predictions (intervals collapse).
            std::int64_t d = 0;
            std::int64_t dim = 0;
            double resvar = 0.0;
            if (have_fit) {
                r.problem(Severity::Warning,
                          "duplicate FIT record, keeping the first");
                continue;
            }
            if (f.size() != 4 || !parse_i64(f[1], d) || d < 1 ||
                !parse_finite(f[2], resvar) || !parse_i64(f[3], dim) ||
                dim < 1 || dim > 64) {
                r.problem(Severity::Warning,
                          "malformed FIT record, dropping fit info");
                continue;
            }
            linalg::Matrix m(static_cast<std::size_t>(dim),
                             static_cast<std::size_t>(dim));
            bool cov_ok = true;
            for (std::int64_t row = 0; row < dim && cov_ok; ++row) {
                std::string cov_line;
                if (!r.next_line(cov_line)) {
                    cov_ok = false;
                    break;
                }
                const auto cf = split_tabs(cov_line);
                if (cf.empty() || cf[0] != "COV" ||
                    cf.size() != static_cast<std::size_t>(dim) + 1) {
                    cov_ok = false;
                    break;
                }
                for (std::int64_t col = 0; col < dim; ++col) {
                    double v = 0.0;
                    if (!parse_finite(cf[static_cast<std::size_t>(col) + 1],
                                      v)) {
                        cov_ok = false;
                        break;
                    }
                    m(static_cast<std::size_t>(row),
                      static_cast<std::size_t>(col)) = v;
                }
            }
            if (!cov_ok) {
                r.problem(Severity::Warning,
                          "malformed COV rows, dropping fit info");
                continue;
            }
            dof = static_cast<int>(d);
            residual_variance = resvar;
            cov = std::move(m);
            have_fit = true;
        } else if (tag == "COV") {
            r.problem(Severity::Warning, "stray COV record outside FIT");
        } else {
            r.problem(Severity::Warning,
                      "unknown model record '" + tag + "' skipped");
        }
    }
    if (!closed) {
        r.problem(Severity::Error, "truncated MODEL section (missing ENDMODEL)");
        section_ok = false;
    }
    if (out.skipped_unknown_key || out.key.empty()) {
        return out;
    }
    if (!have_params || !have_const) {
        section_error("MODEL section missing PARAMS or CONST");
    }
    for (const auto& term : terms) {
        for (const auto& factor : term.factors) {
            if (static_cast<std::size_t>(factor.param) >= param_names.size()) {
                section_error("TERM factor parameter index out of range");
            }
        }
    }
    if (!section_ok) {
        return out;
    }
    modeling::PerformanceModel pm(constant, std::move(terms),
                                  std::move(param_names));
    pm.set_quality(quality);
    if (have_fit) {
        if (cov.rows() != pm.terms().size() + 1) {
            r.problem(Severity::Warning,
                      "FIT covariance dimension does not match term count, "
                      "dropping fit info");
        } else {
            pm.set_fit_info(std::move(cov), residual_variance, dof);
        }
    }
    out.pm = std::move(pm);
    return out;
}

}  // namespace

EdpmReadResult read_edpm_diagnosed(std::istream& is) {
    Reader r(is);
    ServableModel model;
    bool have_name = false;
    bool have_spec = false;
    bool have_xs = false;
    bool have_epochv = false;
    bool structure_ok = true;
    std::map<std::string, modeling::PerformanceModel> models;

    const auto structural_error = [&](const std::string& reason) {
        r.problem(Severity::Error, reason);
        structure_ok = false;
    };

    const auto parse_point_vector = [&](const std::vector<std::string>& f,
                                        std::vector<double>& out,
                                        const char* what) {
        std::int64_t n = 0;
        if (f.size() < 2 || !parse_i64(f[1], n) || n < 1 ||
            f.size() != static_cast<std::size_t>(n) + 2) {
            structural_error(std::string("malformed ") + what + " record");
            return;
        }
        std::vector<double> values;
        values.reserve(static_cast<std::size_t>(n));
        for (std::int64_t i = 0; i < n; ++i) {
            double v = 0.0;
            if (!parse_finite(f[static_cast<std::size_t>(i) + 2], v)) {
                structural_error(std::string("bad number in ") + what +
                                 " record");
                return;
            }
            values.push_back(v);
        }
        out = std::move(values);
    };

    try {
        std::string line;
        if (!r.next_line(line) || line != "EDPM\t1") {
            r.problem(Severity::Error,
                      "missing or unsupported EDPM header (expected "
                      "'EDPM<TAB>1')");
            throw AbortParse{};
        }

        bool saw_end = false;
        while (r.next_line(line)) {
            if (line == "END") {
                saw_end = true;
                break;
            }
            if (line.empty()) {
                r.problem(Severity::Warning, "blank line skipped");
                continue;
            }
            const auto f = split_tabs(line);
            const std::string& tag = f[0];
            if (tag == "NAME") {
                if (have_name) {
                    structural_error("duplicate NAME record");
                } else if (f.size() != 2 || !valid_model_name(f[1])) {
                    structural_error("malformed NAME record (model names are "
                                     "[A-Za-z0-9._-], max 128 chars)");
                } else {
                    model.name = f[1];
                    have_name = true;
                }
            } else if (tag == "PROV") {
                // Free text: everything after the first tab.
                model.provenance =
                    line.size() > 5 ? line.substr(5) : std::string();
            } else if (tag == "SEED") {
                std::uint64_t seed = 0;
                if (f.size() != 2 || !parse_u64(f[1], seed)) {
                    // Provenance only; corruption never blocks serving.
                    r.problem(Severity::Warning,
                              "malformed SEED record, defaulting to 0");
                } else {
                    model.seed = seed;
                }
            } else if (tag == "SPEC") {
                std::int64_t batch = 0;
                std::int64_t m = 0;
                std::int64_t cores = 0;
                if (have_spec) {
                    structural_error("duplicate SPEC record");
                    continue;
                }
                if (f.size() != 8 || f[1].empty() || f[2].empty() ||
                    !parse_i64(f[5], batch) || batch < 1 ||
                    !parse_i64(f[6], m) || m < 1 || !parse_i64(f[7], cores) ||
                    cores < 1) {
                    structural_error("malformed SPEC record");
                    continue;
                }
                try {
                    model.strategy = parallel::parse_strategy(f[3]);
                    model.scaling = parallel::parse_scaling(f[4]);
                } catch (const ParseError& e) {
                    structural_error(e.what());
                    continue;
                }
                model.dataset = f[1];
                model.system_name = f[2];
                model.batch_per_worker = batch;
                model.model_parallel_degree = static_cast<int>(m);
                model.cores_per_rank = static_cast<int>(cores);
                have_spec = true;
            } else if (tag == "XS") {
                if (have_xs) {
                    structural_error("duplicate XS record");
                } else {
                    parse_point_vector(f, model.modeling_xs, "XS");
                    have_xs = !model.modeling_xs.empty();
                }
            } else if (tag == "EPOCHV") {
                if (have_epochv) {
                    structural_error("duplicate EPOCHV record");
                } else {
                    parse_point_vector(f, model.epoch_time_values, "EPOCHV");
                    have_epochv = !model.epoch_time_values.empty();
                }
            } else if (tag == "MODEL") {
                ModelSection section = read_model_section(r, f);
                if (section.skipped_unknown_key) {
                    continue;
                }
                if (!section.pm.has_value()) {
                    structure_ok = false;
                    continue;
                }
                if (models.count(section.key) != 0) {
                    structural_error("duplicate MODEL section '" +
                                     section.key + "'");
                } else {
                    models.emplace(section.key, std::move(*section.pm));
                }
            } else {
                r.problem(Severity::Warning,
                          "unknown record '" + tag + "' skipped");
            }
        }
        if (!saw_end) {
            structural_error("truncated file (missing END)");
        } else {
            long long trailing = 0;
            while (r.next_line(line)) {
                ++trailing;
            }
            if (trailing > 0) {
                std::ostringstream os;
                os << "ignored " << trailing
                   << " line(s) of trailing data after END";
                r.problem(Severity::Warning, os.str());
            }
        }

        // Completeness + semantic validation.
        if (!have_name) structural_error("missing NAME record");
        if (!have_spec) structural_error("missing SPEC record");
        if (!have_xs) structural_error("missing XS record");
        if (!have_epochv) structural_error("missing EPOCHV record");
        for (const char* key : kModelKeys) {
            if (structure_ok && models.count(key) == 0) {
                structural_error(std::string("missing MODEL section '") + key +
                                 "'");
            }
        }
        if (have_xs && have_epochv &&
            model.modeling_xs.size() != model.epoch_time_values.size()) {
            structural_error("XS and EPOCHV lengths differ");
        }
        if (have_xs) {
            for (std::size_t i = 0; i < model.modeling_xs.size(); ++i) {
                if (model.modeling_xs[i] <= 0.0 ||
                    (i > 0 &&
                     model.modeling_xs[i] <= model.modeling_xs[i - 1])) {
                    structural_error(
                        "XS values must be positive and strictly ascending");
                    break;
                }
            }
        }
        if (!structure_ok) {
            throw AbortParse{};
        }

        // Reconstruct the analytical step math from the SPEC parameters and
        // prove it is usable at every modeling point before serving.
        try {
            model.step_math = make_step_math_fn(
                model.dataset, model.strategy, model.model_parallel_degree,
                model.scaling, model.batch_per_worker);
            for (const double x : model.modeling_xs) {
                (void)model.step_math(
                    static_cast<int>(std::llround(x)));
            }
        } catch (const Error& e) {
            structural_error(std::string("step math reconstruction failed: ") +
                             e.what());
            throw AbortParse{};
        }

        model.epoch_time =
            EpochModel(models.at(kModelKeys[0]), models.at(kModelKeys[1]),
                       model.step_math);
        for (int p = 0; p < trace::kPhaseCount; ++p) {
            model.phase_time[p] =
                EpochModel(models.at(kModelKeys[2 + 2 * p]),
                           models.at(kModelKeys[3 + 2 * p]), model.step_math);
        }
    } catch (const AbortParse&) {
        return {std::nullopt, std::move(r.log)};
    }
    return {std::move(model), std::move(r.log)};
}

ServableModel make_servable(const ExperimentSpec& spec,
                            const ExperimentResult& result, std::string name) {
    if (!valid_model_name(name)) {
        throw InvalidArgumentError(
            "make_servable: model names are [A-Za-z0-9._-], max 128 chars");
    }
    if (!result.step_math_fn || result.modeling_xs.empty()) {
        throw InvalidArgumentError(
            "make_servable: result has no fitted models (run the experiment "
            "first)");
    }
    ServableModel out;
    out.name = std::move(name);
    out.provenance = spec.describe();
    out.seed = spec.seed;
    out.dataset = spec.dataset;
    out.system_name = spec.system.name;
    out.strategy = spec.strategy;
    out.scaling = spec.scaling;
    out.batch_per_worker = spec.batch_per_worker;
    out.model_parallel_degree = spec.model_parallel_degree;
    out.cores_per_rank = spec.system.cores_per_rank;
    out.modeling_xs = result.modeling_xs;
    out.epoch_time_values = result.epoch_time_values;
    out.epoch_time = result.epoch_time;
    out.phase_time = result.phase_time;
    out.step_math = result.step_math_fn;
    return out;
}

void write_edpm(std::ostream& os, const ServableModel& model) {
    if (!valid_model_name(model.name)) {
        throw InvalidArgumentError(
            "EDPM: model names are [A-Za-z0-9._-], max 128 chars");
    }
    check_text_field(model.provenance, "provenance");
    check_text_field(model.dataset, "dataset name");
    check_text_field(model.system_name, "system name");
    if (model.batch_per_worker < 1 || model.model_parallel_degree < 1 ||
        model.cores_per_rank < 1) {
        throw InvalidArgumentError("EDPM: SPEC values must be >= 1");
    }
    if (model.modeling_xs.empty() ||
        model.modeling_xs.size() != model.epoch_time_values.size()) {
        throw InvalidArgumentError(
            "EDPM: modeling points and epoch values must be non-empty and of "
            "equal length");
    }
    for (std::size_t i = 0; i < model.modeling_xs.size(); ++i) {
        checked_finite(model.modeling_xs[i], "modeling point");
        checked_finite(model.epoch_time_values[i], "epoch value");
        if (model.modeling_xs[i] <= 0.0 ||
            (i > 0 && model.modeling_xs[i] <= model.modeling_xs[i - 1])) {
            throw InvalidArgumentError(
                "EDPM: modeling points must be positive and strictly "
                "ascending");
        }
    }

    os << "EDPM\t" << kEdpmVersion << '\n';
    os << "NAME\t" << model.name << '\n';
    os << "PROV\t" << model.provenance << '\n';
    os << "SEED\t" << model.seed << '\n';
    os << "SPEC\t" << model.dataset << '\t' << model.system_name << '\t'
       << parallel::strategy_name(model.strategy) << '\t'
       << parallel::scaling_name(model.scaling) << '\t'
       << model.batch_per_worker << '\t' << model.model_parallel_degree
       << '\t' << model.cores_per_rank << '\n';
    os << "XS\t" << model.modeling_xs.size();
    for (const double x : model.modeling_xs) {
        os << '\t' << fmt::hexfloat(x);
    }
    os << '\n';
    os << "EPOCHV\t" << model.epoch_time_values.size();
    for (const double v : model.epoch_time_values) {
        os << '\t' << fmt::hexfloat(v);
    }
    os << '\n';
    const auto models = step_models(model);
    for (std::size_t i = 0; i < kModelKeys.size(); ++i) {
        write_model_section(os, kModelKeys[i], *models[i]);
    }
    os << "END\n";
    if (!os) {
        throw Error("EDPM: write failed");
    }
}

ServableModel read_edpm(std::istream& is) {
    EdpmReadResult result = read_edpm_diagnosed(is);
    if (!result.diagnostics.empty()) {
        const Diagnostic& first = result.diagnostics.entries().front();
        std::string what = first.reason;
        if (first.line > 0) {
            what += " (line " + std::to_string(first.line) + ")";
        }
        throw ParseError(what);
    }
    return std::move(*result.model);
}

void write_edpm_file(const std::string& path, const ServableModel& model) {
    std::ofstream os(path);
    if (!os) {
        throw Error("EDPM: cannot open '" + path + "' for writing");
    }
    write_edpm(os, model);
    os.flush();
    if (!os) {
        throw Error("EDPM: write to '" + path + "' failed");
    }
}

ServableModel read_edpm_file(const std::string& path) {
    std::ifstream is(path);
    if (!is) {
        throw Error("EDPM: cannot open '" + path + "'");
    }
    return read_edpm(is);
}

EdpmReadResult read_edpm_file_diagnosed(const std::string& path) {
    std::ifstream is(path);
    if (!is) {
        throw Error("EDPM: cannot open '" + path + "'");
    }
    return read_edpm_diagnosed(is);
}

}  // namespace extradeep::serve
