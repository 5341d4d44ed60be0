#include "fleet/continuous.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "extradeep/ingest.hpp"
#include "obs/trace.hpp"
#include "serve/serialize.hpp"

namespace extradeep::fleet {

namespace fs = std::filesystem;

namespace {

/// A quiescence deadline this far off (about 146 years) counts as none, so
/// adding it to the steady clock cannot overflow.
constexpr std::uint64_t kNoDeadline =
    static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max() / 2);

/// First Error-severity diagnostic (fallback: summary) as a single-line
/// reason for quarantine messages.
std::string first_error_reason(const DiagnosticLog& log) {
    for (const auto& d : log.entries()) {
        if (d.severity == Severity::Error) {
            std::string reason = d.reason;
            std::replace(reason.begin(), reason.end(), '\n', ' ');
            return reason;
        }
    }
    return log.summary();
}

}  // namespace

FleetService::FleetService(FleetOptions options,
                           std::shared_ptr<serve::ModelRegistry> registry)
    : options_(std::move(options)),
      registry_(std::move(registry)),
      clock_(options_.clock != nullptr ? options_.clock
                                       : &obs::steady_clock_instance()),
      spool_(options_.spool_dir),
      pool_(options_.fit_threads + 1) {
    if (registry_ == nullptr) {
        throw InvalidArgumentError("FleetService: null registry");
    }
    if (options_.models_dir.empty()) {
        throw InvalidArgumentError("FleetService: models_dir required");
    }
    if (options_.min_runs < 1 || options_.window < 1) {
        throw InvalidArgumentError(
            "FleetService: require min_runs >= 1, window >= 1");
    }
    if (options_.fit_threads < 1) {
        throw InvalidArgumentError("FleetService: require fit_threads >= 1");
    }
    std::error_code ec;
    fs::create_directories(options_.models_dir, ec);
    if (ec) {
        throw Error("FleetService: cannot create models dir " +
                    options_.models_dir + ": " + ec.message());
    }
    // Restart story: previous exports come back immediately (keep-last-good
    // across process restarts); the spool is re-ingested by poll_once.
    registry_->load_directory(options_.models_dir);
}

FleetService::~FleetService() { stop(); }

void FleetService::quarantine(const std::string& reason) {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.quarantined;
    }
    if (quarantined_counter_ != nullptr) {
        quarantined_counter_->increment();
    }
    throw Error("quarantined: " + reason);
}

std::string FleetService::handle_ingest(const std::string& experiment,
                                        const std::string& payload) {
    if (!valid_experiment_name(experiment)) {
        throw Error("invalid experiment name (want [A-Za-z0-9._-], max 128)");
    }
    if (payload.size() > kMaxPayloadBytes) {
        throw Error("payload too large (" + std::to_string(payload.size()) +
                    " > " + std::to_string(kMaxPayloadBytes) + " bytes)");
    }
    std::istringstream edp(serve::unescape_lines(payload));
    return ingest_run(experiment, edp, "push");
}

std::string FleetService::ingest_run(const std::string& experiment,
                                     std::istream& edp,
                                     const std::string& source) {
    const obs::Span span{"fleet.ingest"};
    // Parse, validate and reduce in one pass (Fig. 2 steps (1)-(2)); only
    // O(kernels) survives.
    EdpDigest digest;
    try {
        digest = digest_edp(edp,
                            profiling::EdpReadOptions{.max_diagnostics = 64},
                            options_.spec.sampling.discard_warmup_epochs);
    } catch (const Error& e) {
        quarantine(source + ": " + e.what());
    }
    if (!digest.ok) {
        quarantine(source + ": parse: " + first_error_reason(digest.parse_log));
    }
    DigestedRun& run = digest.run;
    if (!run.verdict.keep) {
        quarantine(source + ": validation: " +
                   first_error_reason(run.verdict.diagnostics));
    }
    const auto x1_it = run.params.find("x1");
    if (x1_it == run.params.end()) {
        quarantine(source + ": missing parameter x1");
    }
    const double x1 = x1_it->second;
    if (!std::isfinite(x1) || x1 < 1.0 || x1 != std::floor(x1)) {
        quarantine(source + ": parameter x1 must be a positive integer");
    }

    const std::uint64_t now = clock_->now_ns();
    std::uint64_t gen = 0;
    std::uint64_t pending = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ExperimentState& st = experiments_[experiment];
        auto slot_it = st.configs.find(x1);
        if (slot_it == st.configs.end()) {
            ConfigSlot fresh;
            fresh.params = run.params;
            slot_it = st.configs.emplace(x1, std::move(fresh)).first;
        } else if (slot_it->second.params != run.params) {
            ++stats_.quarantined;
            if (quarantined_counter_ != nullptr) {
                quarantined_counter_->increment();
            }
            throw Error("quarantined: " + source +
                        ": params mismatch with configuration x1=" +
                        fmt::shortest(x1));
        }
        ConfigSlot& slot = slot_it->second;
        slot.window.push_back(
            std::make_shared<const aggregation::RunAggregate>(
                std::move(run.aggregate)));
        while (slot.window.size() >
               static_cast<std::size_t>(options_.window)) {
            slot.window.pop_front();
        }
        gen = ++st.ingest_gen;
        st.last_arrival_ns = now;
        pending = st.ingest_gen - st.dispatched_gen;
        ++stats_.accepted;
        drain_cv_.notify_all();
    }
    wake_poller();
    if (accepted_counter_ != nullptr) {
        accepted_counter_->increment();
    }
    return "accepted=1 experiment=" + experiment +
           " x1=" + fmt::shortest(x1) +
           " ranks=" + std::to_string(run.n_ranks) +
           " pending=" + std::to_string(pending) +
           " gen=" + std::to_string(gen);
}

void FleetService::scan_spool() {
    if (options_.spool_dir.empty()) {
        return;
    }
    for (const SpoolFile& file : spool_.scan()) {
        try {
            std::ifstream is(file.path, std::ios::binary);
            if (!is) {
                throw Error("cannot open " + file.path);
            }
            ingest_run(file.experiment, is, file.path);
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.spool_files;
        } catch (const Error&) {
            // Quarantined (already counted) or unreadable: the loop
            // must survive any single bad spool file.
        }
    }
}

int FleetService::poll_once() {
    scan_spool();
    return dispatch_due(false);
}

int FleetService::dispatch_due(bool force, std::uint64_t* wait_ns) {
    std::vector<FitJob> jobs;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Read under the lock: a run accepted between an earlier read and
        // the lock would have arrived "after now", and the unsigned wait
        // below would wrap into an early dispatch.
        const std::uint64_t now = clock_->now_ns();
        for (auto& [name, st] : experiments_) {
            const std::uint64_t pending = st.ingest_gen - st.dispatched_gen;
            if (pending == 0) {
                continue;
            }
            const std::uint64_t waited = now - st.last_arrival_ns;
            const bool due =
                force ||
                pending >= static_cast<std::uint64_t>(options_.min_runs) ||
                waited >= options_.quiescence_ns;
            if (!due) {
                if (wait_ns != nullptr) {
                    *wait_ns = std::min(*wait_ns,
                                        options_.quiescence_ns - waited);
                }
                continue;
            }
            FitJob job;
            job.experiment = name;
            job.generation = st.ingest_gen;
            job.configs.reserve(st.configs.size());
            for (const auto& [x1, slot] : st.configs) {
                (void)x1;
                job.configs.push_back(slot);  // fits hold no lock
            }
            st.dispatched_gen = st.ingest_gen;
            ++jobs_in_flight_;
            jobs.push_back(std::move(job));
        }
    }
    for (auto& job : jobs) {
        auto shared_job = std::make_shared<FitJob>(std::move(job));
        pool_.submit([this, shared_job]() { run_fit_job(*shared_job); });
    }
    return static_cast<int>(jobs.size());
}

void FleetService::run_fit_job(FitJob job) {
    const obs::Span span{"fleet.refit"};
    const std::uint64_t start_ns = clock_->now_ns();
    try {
        aggregation::ExperimentData data{"x1"};
        for (const ConfigSlot& slot : job.configs) {
            aggregation::ConfigAggregator agg;
            for (const auto& run : slot.window) {
                agg.add_run(slot.params, *run);
            }
            data.add(agg.finish());
        }
        if (data.size() <
            static_cast<std::size_t>(aggregation::kMinModelingPoints)) {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.refits_skipped;
        } else {
            const ExperimentSpec& spec = options_.spec;
            ExperimentResult result;
            result.step_math_fn = make_step_math_fn(
                spec.dataset, spec.strategy, spec.model_parallel_degree,
                spec.scaling, spec.batch_per_worker);
            std::array<std::vector<double>, trace::kPhaseCount> phase_train;
            std::array<std::vector<double>, trace::kPhaseCount> phase_val;
            std::vector<double> total_train;
            std::vector<double> total_val;
            result.data = std::move(data);
            for (const auto& config : result.data.configs()) {
                const int ranks = static_cast<int>(config.params.at("x1"));
                const parallel::StepMath sm = result.step_math_fn(ranks);
                result.step_math[ranks] = sm;
                result.modeling_xs.push_back(static_cast<double>(ranks));
                result.epoch_time_values.push_back(
                    aggregation::derived_epoch_total(
                        config, sm, aggregation::Metric::Time));
                double train_sum = 0.0;
                double val_sum = 0.0;
                for (int p = 0; p < trace::kPhaseCount; ++p) {
                    const auto phase = static_cast<trace::Phase>(p);
                    const double t = config.phase_metric(
                        phase, aggregation::Metric::Time, true);
                    const double v = config.phase_metric(
                        phase, aggregation::Metric::Time, false);
                    phase_train[p].push_back(t);
                    phase_val[p].push_back(v);
                    train_sum += t;
                    val_sum += v;
                }
                total_train.push_back(train_sum);
                total_val.push_back(val_sum);
            }
            // Refit parallelism comes from concurrent jobs on the pool;
            // each fit is serial.
            const modeling::ModelGenerator generator;
            const auto design = generator.design(result.modeling_xs);
            result.epoch_time =
                EpochModel(generator.fit(design, total_train),
                           generator.fit(design, total_val),
                           result.step_math_fn);
            for (int p = 0; p < trace::kPhaseCount; ++p) {
                result.phase_time[p] =
                    EpochModel(generator.fit(design, phase_train[p]),
                               generator.fit(design, phase_val[p]),
                               result.step_math_fn);
            }
            const serve::ServableModel servable =
                serve::make_servable(spec, result, job.experiment);
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ++stats_.refits;
            }
            if (refit_counter_ != nullptr) {
                refit_counter_->increment();
            }
            if (refit_latency_ != nullptr) {
                refit_latency_->observe(
                    static_cast<double>(clock_->now_ns() - start_ns) / 1000.0);
            }
            install_model(job.experiment, job.generation, servable);
        }
    } catch (const std::exception&) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.refit_failures;
    }
    finish_job(job.experiment, job.generation);
}

bool FleetService::install_model(const std::string& experiment,
                                 std::uint64_t generation,
                                 const serve::ServableModel& model) {
    // One install at a time: the generation check below stays valid until
    // installed_gen is advanced, and export + reload never interleave.
    std::lock_guard<std::mutex> install_lock(install_mutex_);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const ExperimentState& st = experiments_[experiment];
        if (generation <= st.installed_gen) {
            ++stats_.stale_discarded;
            if (stale_counter_ != nullptr) {
                stale_counter_->increment();
            }
            return false;  // a newer fit already serves; discard, no export
        }
    }
    const std::uint64_t swap_start = clock_->now_ns();
    const std::string path =
        options_.models_dir + "/" + experiment + serve::kEdpmExtension;
    write_file_atomically(path, [&](const std::string& tmp) {
        serve::write_edpm_file(tmp, model);
    });
    registry_->reload();  // keep-last-good hot swap
    const std::uint64_t swap_ns = clock_->now_ns() - swap_start;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ExperimentState& st = experiments_[experiment];
        st.installed_gen = std::max(st.installed_gen, generation);
        ++stats_.swaps;
    }
    if (swap_counter_ != nullptr) {
        swap_counter_->increment();
    }
    if (swap_latency_ != nullptr) {
        swap_latency_->observe(static_cast<double>(swap_ns) / 1000.0);
    }
    return true;
}

void FleetService::finish_job(const std::string& experiment,
                              std::uint64_t generation) {
    std::lock_guard<std::mutex> lock(mutex_);
    ExperimentState& st = experiments_[experiment];
    st.fitted_gen = std::max(st.fitted_gen, generation);
    --jobs_in_flight_;
    drain_cv_.notify_all();
}

void FleetService::drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        bool pending = false;
        bool fitted = true;
        for (const auto& [name, st] : experiments_) {
            (void)name;
            if (st.ingest_gen > st.dispatched_gen) {
                pending = true;
            }
            if (st.fitted_gen < st.ingest_gen) {
                fitted = false;
            }
        }
        if (pending) {
            lock.unlock();
            dispatch_due(true);
            lock.lock();
            continue;
        }
        if (jobs_in_flight_ == 0 && fitted) {
            return;
        }
        drain_cv_.wait(lock);
    }
}

void FleetService::start(int interval_ms) {
    std::lock_guard<std::mutex> lock(poller_mutex_);
    if (poller_.joinable()) {
        return;
    }
    poller_stop_ = false;
    const auto interval = std::chrono::milliseconds(std::max(interval_ms, 1));
    poller_ = std::thread([this, interval]() { dispatch_loop(interval); });
}

void FleetService::dispatch_loop(std::chrono::milliseconds scan_interval) {
    using Steady = std::chrono::steady_clock;
    const bool spool = !options_.spool_dir.empty();
    Steady::time_point next_scan = Steady::now();
    std::unique_lock<std::mutex> lock(poller_mutex_);
    while (!poller_stop_) {
        // Cleared before the debounce check: a run accepted from here on
        // sets it again, so no arrival is missed while this pass runs.
        poller_woken_ = false;
        lock.unlock();
        if (spool && Steady::now() >= next_scan) {
            scan_spool();
            next_scan = Steady::now() + scan_interval;
        }
        std::uint64_t wait_ns = kNoDeadline;
        dispatch_due(false, &wait_ns);
        // Sleep until a run arrives or stop(), the earliest quiescence
        // deadline, or the next spool scan, whichever comes first.
        Steady::time_point wake_at =
            spool ? next_scan : Steady::time_point::max();
        if (wait_ns < kNoDeadline) {
            wake_at = std::min(
                wake_at, Steady::now() + std::chrono::nanoseconds(wait_ns));
        }
        lock.lock();
        const auto woken = [this]() { return poller_stop_ || poller_woken_; };
        if (wake_at == Steady::time_point::max()) {
            poller_cv_.wait(lock, woken);
        } else {
            poller_cv_.wait_until(lock, wake_at, woken);
        }
    }
}

void FleetService::wake_poller() {
    {
        std::lock_guard<std::mutex> lock(poller_mutex_);
        poller_woken_ = true;
    }
    poller_cv_.notify_one();
}

void FleetService::stop() {
    {
        std::lock_guard<std::mutex> lock(poller_mutex_);
        poller_stop_ = true;
        poller_cv_.notify_all();
    }
    if (poller_.joinable()) {
        poller_.join();
    }
}

std::uint64_t FleetService::staleness_locked() const {
    std::uint64_t total = 0;
    for (const auto& [name, st] : experiments_) {
        (void)name;
        total += st.ingest_gen - st.installed_gen;
    }
    return total;
}

FleetStats FleetService::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    FleetStats out = stats_;
    out.staleness_runs = staleness_locked();
    out.experiments = experiments_.size();
    return out;
}

std::string FleetService::fleet_stats_line() {
    const FleetStats s = stats();
    std::ostringstream os;
    os << "accepted=" << s.accepted << " quarantined=" << s.quarantined
       << " refits=" << s.refits << " skipped=" << s.refits_skipped
       << " failed=" << s.refit_failures << " swaps=" << s.swaps
       << " stale=" << s.stale_discarded << " spool=" << s.spool_files
       << " staleness=" << s.staleness_runs
       << " experiments=" << s.experiments
       << " queued=" << pool_.queued_tasks();
    return os.str();
}

void FleetService::attach_metrics(obs::MetricsRegistry& metrics) {
    accepted_counter_ = &metrics.counter("extradeep_fleet_runs_total", "state",
                                         "accepted");
    quarantined_counter_ = &metrics.counter("extradeep_fleet_runs_total",
                                            "state", "quarantined");
    refit_counter_ = &metrics.counter("extradeep_fleet_refits_total");
    swap_counter_ = &metrics.counter("extradeep_fleet_swaps_total");
    stale_counter_ = &metrics.counter("extradeep_fleet_stale_fits_total");
    queued_gauge_ = &metrics.gauge("extradeep_fleet_pool_queued_tasks");
    staleness_gauge_ = &metrics.gauge("extradeep_fleet_staleness_runs");
    refit_latency_ = &metrics.histogram(
        "extradeep_fleet_refit_latency_us",
        obs::MetricsRegistry::default_latency_buckets_us());
    swap_latency_ = &metrics.histogram(
        "extradeep_fleet_swap_latency_us",
        obs::MetricsRegistry::default_latency_buckets_us());
}

void FleetService::update_metrics() {
    if (queued_gauge_ != nullptr) {
        queued_gauge_->set(static_cast<double>(pool_.queued_tasks()));
    }
    if (staleness_gauge_ != nullptr) {
        std::lock_guard<std::mutex> lock(mutex_);
        staleness_gauge_->set(static_cast<double>(staleness_locked()));
    }
}

}  // namespace extradeep::fleet
