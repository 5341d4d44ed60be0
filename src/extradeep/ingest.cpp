#include "extradeep/ingest.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "aggregation/stream.hpp"
#include "common/error.hpp"
#include "common/parallel_for.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "profiling/edp_stream.hpp"

namespace extradeep {

namespace {

/// Groups runs by their full parameter map and orders configurations by the
/// primary parameter, repetitions by repetition index.
std::vector<std::vector<DigestedRun>> group_by_configuration(
    std::map<std::map<std::string, double>, std::vector<DigestedRun>>&&
        groups,
    const std::string& primary_parameter) {
    std::vector<std::vector<DigestedRun>> configs;
    configs.reserve(groups.size());
    for (auto& [params, runs] : groups) {
        // Repetition order on disk is arbitrary; sort for reproducibility.
        std::stable_sort(runs.begin(), runs.end(),
                         [](const DigestedRun& a, const DigestedRun& b) {
                             return a.repetition < b.repetition;
                         });
        configs.push_back(std::move(runs));
    }
    std::stable_sort(configs.begin(), configs.end(),
                     [&](const auto& a, const auto& b) {
                         return a.front().params.at(primary_parameter) <
                                b.front().params.at(primary_parameter);
                     });
    return configs;
}

void record_ingest_metrics(const IngestResult& result) {
    if (obs::trace_enabled()) {
        obs::MetricsRegistry& metrics = obs::global_metrics();
        metrics.counter("extradeep_ingest_runs_total")
            .increment(result.runs_total);
        metrics.counter("extradeep_ingest_runs_dropped_total")
            .increment(result.runs_total - result.runs_kept);
        metrics.counter("extradeep_ingest_configs_total")
            .increment(result.configs_total);
    }
}

/// Cross-run validation + per-configuration aggregation over reduced run
/// summaries, the assembly stage both public entry points share. It uses
/// validate_experiment_facts and the ConfigAggregator core, so diagnostics
/// and aggregates are bit-identical to validate_experiment + aggregate_runs
/// over the full runs.
IngestResult ingest_streamed_runs(std::span<std::vector<DigestedRun>> configs,
                                  const IngestOptions& options) {
    const obs::Span ingest_span{"ingest.runs"};
    IngestResult result;
    result.data = aggregation::ExperimentData(options.primary_parameter);
    result.configs_total = configs.size();
    for (const auto& runs : configs) {
        result.runs_total += runs.size();
    }

    std::vector<std::vector<aggregation::ValidatedRunFacts>> facts(
        configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        facts[c].reserve(configs[c].size());
        for (const auto& run : configs[c]) {
            aggregation::ValidatedRunFacts f;
            f.params = run.params;
            f.n_ranks = run.n_ranks;
            f.repetition = run.repetition;
            f.verdict = run.verdict;
            facts[c].push_back(std::move(f));
        }
    }
    aggregation::ExperimentVerdict verdict = [&] {
        const obs::Span validate_span{"ingest.validate_experiment"};
        return aggregation::validate_experiment_facts(facts);
    }();
    result.diagnostics.merge(verdict.diagnostics);

    for (std::size_t c = 0; c < configs.size(); ++c) {
        if (!verdict.keep_config[c]) {
            continue;
        }
        std::size_t kept = 0;
        try {
            const obs::Span aggregate_span{"ingest.aggregate_config"};
            aggregation::ConfigAggregator agg;
            for (std::size_t r = 0; r < configs[c].size(); ++r) {
                if (!verdict.keep_run[c][r]) continue;
                agg.add_run(configs[c][r].params, configs[c][r].aggregate);
                ++kept;
            }
            result.data.add(agg.finish());
        } catch (const Error& e) {
            result.diagnostics.add(
                Severity::Error,
                "configuration " + std::to_string(c) + " dropped: " + e.what());
            continue;
        }
        result.configs_kept += 1;
        result.runs_kept += kept;
    }
    record_ingest_metrics(result);
    return result;
}

}  // namespace

EdpDigest digest_edp(std::istream& is,
                     const profiling::EdpReadOptions& read_options,
                     int discard_warmup_epochs) {
    const obs::Span span{"ingest.stream_edp"};
    profiling::EdpStreamReader reader(is, read_options);

    profiling::ProfiledRun skeleton;  // params/rep/wall + marks-only ranks
    // In-flight rank block; the event vector keeps its capacity across
    // ranks, and the name table lives for the run. Event assignment to
    // step windows orders the whole rank's events by start time, so a rank
    // must be complete before it can be reduced bit-identically to
    // aggregate_runs over the parsed run.
    trace::RankTrace current;  // rank id + marks
    std::vector<aggregation::KernelEvent> events;
    aggregation::KernelNames names;
    bool have_rank = false;
    aggregation::RunAggregator run_agg;
    // A rank whose marks do not segment makes the whole aggregate unusable;
    // validation is guaranteed to drop such a run (validate_steps runs
    // segment_steps on the same marks), so the aggregate is never consumed.
    bool aggregate_ok = true;

    const auto finalize_rank = [&] {
        if (!have_rank) return;
        if (aggregate_ok) {
            try {
                run_agg.add_rank_values(aggregation::aggregate_rank_events(
                    current.marks, events, names.names(),
                    discard_warmup_epochs));
            } catch (const ParseError&) {
                aggregate_ok = false;
            }
        }
        skeleton.ranks.push_back(std::move(current));
        current = trace::RankTrace{};
        events.clear();
        have_rank = false;
    };

    profiling::EdpRecord rec;
    while (reader.next(rec)) {
        switch (rec.kind) {
            case profiling::EdpRecord::Kind::Param:
                skeleton.params.insert_or_assign(std::string(rec.name),
                                                 rec.number);
                break;
            case profiling::EdpRecord::Kind::Repetition:
                skeleton.repetition = rec.index;
                break;
            case profiling::EdpRecord::Kind::WallTime:
                skeleton.profiling_wall_time = rec.number;
                break;
            case profiling::EdpRecord::Kind::RankBegin:
                finalize_rank();
                current.rank = rec.index;
                have_rank = true;
                break;
            case profiling::EdpRecord::Kind::Mark:
                current.marks.push_back(rec.mark);
                break;
            case profiling::EdpRecord::Kind::Event:
                // The name is a view into the reader's buffer; interning
                // looks it up without building a string.
                events.push_back({names.intern(rec.name), rec.event.category,
                                  rec.event.start, rec.event.duration,
                                  rec.event.bytes, rec.event.visits});
                break;
            case profiling::EdpRecord::Kind::End:
                break;
        }
    }
    finalize_rank();

    EdpDigest out;
    out.parse_log = reader.take_diagnostics();
    out.ok = !out.parse_log.has_errors();
    if (!out.ok) {
        return out;  // quarantined by the caller; aggregate unused
    }
    // Validation sees exactly what validate_run on the parsed run would
    // see: the parser guarantees event metric sanity, and segment_steps /
    // step monotonicity depend only on the marks, so a marks-only skeleton
    // yields the identical verdict and diagnostics.
    out.run.verdict = aggregation::validate_run(skeleton);
    out.run.params = std::move(skeleton.params);
    out.run.repetition = skeleton.repetition;
    out.run.n_ranks = skeleton.ranks.size();
    if (out.run.verdict.keep && aggregate_ok) {
        out.run.aggregate = run_agg.finish();
    }
    return out;
}

std::string IngestResult::summary() const {
    std::ostringstream os;
    os << "kept " << runs_kept << "/" << runs_total << " runs, "
       << configs_kept << "/" << configs_total << " configurations";
    if (!diagnostics.empty()) {
        os << "; " << diagnostics.summary();
    }
    return os.str();
}

IngestResult ingest_runs(
    std::span<const std::vector<profiling::ProfiledRun>> configs,
    const IngestOptions& options) {
    // Reduce each run up front (validate_run + per-rank fold), so no copies
    // of the kept runs are made.
    std::vector<std::vector<DigestedRun>> summaries(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        summaries[c].reserve(configs[c].size());
        for (const auto& run : configs[c]) {
            DigestedRun s;
            s.params = run.params;
            s.repetition = run.repetition;
            s.n_ranks = run.ranks.size();
            s.verdict = aggregation::validate_run(run);
            if (s.verdict.keep) {
                try {
                    aggregation::RunAggregator run_agg;
                    for (const auto& rank_trace : run.ranks) {
                        run_agg.add_rank(
                            rank_trace,
                            options.aggregation.discard_warmup_epochs);
                    }
                    s.aggregate = run_agg.finish();
                } catch (const ParseError&) {
                    // validate_run keeps only runs whose marks segment, so
                    // this is unreachable; the empty aggregate would surface
                    // as a dropped configuration.
                }
            }
            summaries[c].push_back(std::move(s));
        }
    }
    return ingest_streamed_runs(summaries, options);
}

IngestResult ingest_edp_files(std::span<const std::string> paths,
                              const IngestOptions& options) {
    const obs::Span files_span{"ingest.edp_files"};
    struct Slot {
        EdpDigest file;
        std::exception_ptr error;
    };
    std::vector<Slot> slots(paths.size());
    // Each thread (the caller included) pulls the next file index, so files
    // of unequal size still balance across threads.
    const int threads = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(resolve_num_threads(options.num_threads)),
        std::max<std::size_t>(paths.size(), 1)));
    std::atomic<std::size_t> next{0};
    ThreadPool pool(threads);
    pool.parallel_for(static_cast<std::size_t>(threads),
                      [&](int, std::size_t, std::size_t) {
        for (std::size_t i = next++; i < paths.size(); i = next++) {
            try {
                std::ifstream is(paths[i]);
                if (!is) {
                    throw Error("EDP: cannot open for reading: " + paths[i]);
                }
                slots[i].file =
                    digest_edp(is, profiling::EdpReadOptions{},
                               options.aggregation.discard_warmup_epochs);
            } catch (...) {
                slots[i].error = std::current_exception();
            }
        }
    });

    // Merge in path order: diagnostics and drop decisions are deterministic
    // regardless of num_threads.
    DiagnosticLog parse_log;
    std::size_t dropped_files = 0;
    std::map<std::map<std::string, double>, std::vector<DigestedRun>> groups;
    for (std::size_t i = 0; i < paths.size(); ++i) {
        const std::string& path = paths[i];
        Slot& slot = slots[i];
        if (slot.error) {
            try {
                std::rethrow_exception(slot.error);
            } catch (const Error& e) {
                parse_log.add(Severity::Error, path + ": " + e.what());
                ++dropped_files;
                continue;
            }
        }
        parse_log.merge(slot.file.parse_log, path + ": ");
        if (!slot.file.ok) {
            parse_log.add(Severity::Error,
                          path + ": file quarantined (" +
                              slot.file.parse_log.summary() + ")");
            ++dropped_files;
            continue;
        }
        if (slot.file.run.params.find(options.primary_parameter) ==
            slot.file.run.params.end()) {
            parse_log.add(Severity::Error,
                          path + ": run lacks primary parameter '" +
                              options.primary_parameter + "'");
            ++dropped_files;
            continue;
        }
        groups[slot.file.run.params].push_back(std::move(slot.file.run));
    }

    std::vector<std::vector<DigestedRun>> configs =
        group_by_configuration(std::move(groups), options.primary_parameter);

    IngestResult result = ingest_streamed_runs(configs, options);
    result.runs_total += dropped_files;
    // Parse diagnostics come first: they precede validation logically.
    DiagnosticLog merged(DiagnosticLog::kDefaultCapacity);
    merged.merge(parse_log);
    merged.merge(result.diagnostics);
    result.diagnostics = std::move(merged);
    return result;
}

}  // namespace extradeep
