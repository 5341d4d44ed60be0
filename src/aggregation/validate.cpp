#include "aggregation/validate.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "obs/trace.hpp"
#include "trace/timeline.hpp"

namespace extradeep::aggregation {

namespace {

bool finite_nonneg(double v) { return std::isfinite(v) && v >= 0.0; }

void drop(RunVerdict& verdict, std::string reason, int rank = -1) {
    verdict.keep = false;
    verdict.diagnostics.add(Severity::Error, std::move(reason), -1, rank);
}

/// Checks one rank's events for metric sanity; returns false (and explains)
/// on the first violation.
bool validate_events(const trace::RankTrace& rank, RunVerdict& verdict) {
    for (const auto& e : rank.events) {
        if (!finite_nonneg(e.start) || !finite_nonneg(e.duration) ||
            !finite_nonneg(e.bytes) || e.visits < 0) {
            drop(verdict,
                 "validate_run: event '" + e.name +
                     "' has a non-finite or negative metric value",
                 rank.rank);
            return false;
        }
    }
    for (const auto& m : rank.marks) {
        if (!finite_nonneg(m.time) || m.epoch < 0 || m.step < -1) {
            drop(verdict, "validate_run: mark with invalid epoch/step/time",
                 rank.rank);
            return false;
        }
    }
    return true;
}

/// Checks mark pairing (via segment_steps) and per-(epoch, kind) strictly
/// increasing step indices; counts complete step windows.
bool validate_steps(const trace::RankTrace& rank, RunVerdict& verdict,
                    int* step_windows) {
    std::vector<trace::StepWindow> windows;
    try {
        windows = trace::segment_steps(rank);
    } catch (const ParseError& e) {
        drop(verdict, std::string("validate_run: ") + e.what(), rank.rank);
        return false;
    }
    // Key: (epoch, kind); step indices must be strictly increasing in time
    // order, which also rules out duplicated (epoch, step, kind) windows
    // that would silently collapse into one aggregation slot.
    std::map<std::pair<int, int>, int> last_step;
    int complete = 0;
    for (const auto& w : windows) {
        if (w.async_gap) continue;
        ++complete;
        const auto key = std::make_pair(
            w.epoch, w.kind == trace::StepKind::Train ? 0 : 1);
        const auto it = last_step.find(key);
        if (it != last_step.end() && w.step <= it->second) {
            std::ostringstream os;
            os << "validate_run: non-monotonic step index " << w.step
               << " after " << it->second << " in epoch " << w.epoch;
            drop(verdict, os.str(), rank.rank);
            return false;
        }
        last_step[key] = w.step;
    }
    *step_windows += complete;
    return true;
}

}  // namespace

RunVerdict validate_run(const profiling::ProfiledRun& run) {
    RunVerdict verdict;

    if (run.params.empty()) {
        drop(verdict, "validate_run: run has no execution parameters");
    }
    for (const auto& [key, value] : run.params) {
        if (!std::isfinite(value)) {
            drop(verdict,
                 "validate_run: non-finite value for parameter '" + key + "'");
        }
    }
    if (!finite_nonneg(run.profiling_wall_time)) {
        drop(verdict, "validate_run: non-finite or negative wall time");
    }
    if (run.ranks.empty()) {
        drop(verdict, "validate_run: run has no ranks");
        return verdict;
    }

    std::set<int> rank_ids;
    int step_windows = 0;
    for (const auto& rank : run.ranks) {
        if (rank.rank < 0) {
            drop(verdict, "validate_run: negative rank id", rank.rank);
            continue;
        }
        if (!rank_ids.insert(rank.rank).second) {
            drop(verdict, "validate_run: duplicate rank id", rank.rank);
            continue;
        }
        if (!validate_events(rank, verdict)) {
            continue;
        }
        if (!validate_steps(rank, verdict, &step_windows)) {
            continue;
        }
    }
    if (verdict.keep && step_windows == 0) {
        drop(verdict, "validate_run: only 0 complete step window(s), need 1");
    }
    return verdict;
}

ExperimentVerdict validate_experiment(
    std::span<const std::vector<profiling::ProfiledRun>> configs) {
    const obs::Span span{"validate.experiment"};
    // Per-run invariants, reduced to facts; the cross-run stage is shared
    // with the streaming ingestion path (which builds the facts itself).
    std::vector<std::vector<ValidatedRunFacts>> facts(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        facts[c].reserve(configs[c].size());
        for (const auto& run : configs[c]) {
            ValidatedRunFacts f;
            f.params = run.params;
            f.n_ranks = run.ranks.size();
            f.repetition = run.repetition;
            f.verdict = validate_run(run);
            facts[c].push_back(std::move(f));
        }
    }
    return validate_experiment_facts(facts);
}

ExperimentVerdict validate_experiment_facts(
    std::span<const std::vector<ValidatedRunFacts>> configs) {
    ExperimentVerdict out;
    out.keep_run.reserve(configs.size());
    out.keep_config.reserve(configs.size());

    for (std::size_t c = 0; c < configs.size(); ++c) {
        const auto& runs = configs[c];
        const std::string ctx = "configuration " + std::to_string(c) + ": ";
        std::vector<bool> keep(runs.size(), true);

        // Per-run verdicts, scoped into the experiment log.
        for (std::size_t r = 0; r < runs.size(); ++r) {
            const RunVerdict& v = runs[r].verdict;
            for (const auto& d : v.diagnostics.entries()) {
                Diagnostic scoped = d;
                scoped.reason =
                    ctx + "repetition " + std::to_string(r) + ": " + d.reason;
                out.diagnostics.add(std::move(scoped));
            }
            keep[r] = v.keep;
        }

        // Params must be identical across the surviving repetitions (they
        // describe the same measurement point); deviants are dropped.
        const ValidatedRunFacts* reference = nullptr;
        for (std::size_t r = 0; r < runs.size(); ++r) {
            if (!keep[r]) continue;
            if (!reference) {
                reference = &runs[r];
            } else if (runs[r].params != reference->params) {
                keep[r] = false;
                out.diagnostics.add(
                    Severity::Error,
                    ctx + "repetition " + std::to_string(r) +
                        ": params differ from the other repetitions");
            }
        }

        // Rank completeness across repetitions: keep only runs with the
        // modal rank count.
        std::map<std::size_t, int> freq;
        for (std::size_t r = 0; r < runs.size(); ++r) {
            if (keep[r]) ++freq[runs[r].n_ranks];
        }
        std::size_t modal = 0;
        int best = 0;
        for (const auto& [n_ranks, n] : freq) {
            if (n > best) {  // ties resolved toward the smaller count
                best = n;
                modal = n_ranks;
            }
        }
        for (std::size_t r = 0; r < runs.size(); ++r) {
            if (keep[r] && runs[r].n_ranks != modal) {
                keep[r] = false;
                std::ostringstream os;
                os << ctx << "repetition " << r << ": " << runs[r].n_ranks
                   << " ranks, expected " << modal
                   << " like the other repetitions";
                out.diagnostics.add(Severity::Error, os.str());
            }
        }

        // Duplicate repetition indices do not bias the medians (repetitions
        // are aggregated by position), but indicate a collection problem.
        std::set<int> rep_ids;
        for (std::size_t r = 0; r < runs.size(); ++r) {
            if (keep[r] && !rep_ids.insert(runs[r].repetition).second) {
                out.diagnostics.add(Severity::Warning,
                                    ctx + "duplicate repetition index " +
                                        std::to_string(runs[r].repetition));
            }
        }

        const std::size_t kept =
            static_cast<std::size_t>(std::count(keep.begin(), keep.end(), true));
        const bool config_ok = kept > 0;
        if (!config_ok) {
            out.diagnostics.add(Severity::Error,
                                ctx + "dropped: only 0 of " +
                                    std::to_string(runs.size()) +
                                    " repetition(s) usable, need 1");
        }

        out.runs_kept += config_ok ? kept : 0;
        out.runs_dropped += runs.size() - (config_ok ? kept : 0);
        out.configs_kept += config_ok ? 1 : 0;
        out.configs_dropped += config_ok ? 0 : 1;
        out.keep_config.push_back(config_ok);
        if (!config_ok) {
            std::fill(keep.begin(), keep.end(), false);
        }
        out.keep_run.push_back(std::move(keep));
    }
    return out;
}

}  // namespace extradeep::aggregation
