#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "aggregation/stream.hpp"
#include "common/parallel_for.hpp"
#include "extradeep/runner.hpp"
#include "fleet/spool.hpp"
#include "obs/clock.hpp"
#include "serve/query.hpp"
#include "serve/registry.hpp"

namespace extradeep::fleet {

/// Upper bound on one `ingest` payload (escaped bytes).
inline constexpr std::size_t kMaxPayloadBytes = 8u << 20;
/// Request-line cap of a daemon that serves the `ingest` verb: a line
/// carries a whole escaped EDP run, far beyond serve::kMaxRequestLine.
inline constexpr std::size_t kMaxIngestLine = 32u << 20;

/// Policy knobs of the continuous-modeling loop (DESIGN.md §14).
struct FleetOptions {
    /// Export directory: one `<experiment>.edpm` per fitted experiment,
    /// written atomically (tmp + rename) and hot-swapped into the registry
    /// via reload(). Created if missing.
    std::string models_dir;
    /// Spool directory scanned by poll_once and the started loop
    /// (`<spool>/<experiment>/*.edp`); empty = push-only (runs arrive via
    /// the `ingest` verb exclusively).
    std::string spool_dir;
    /// Template experiment: defines the step math, provenance, sampling
    /// (warmup discard), and seed recorded in exported models. The runs
    /// themselves arrive at ingest time; modeling_ranks/repetitions of the
    /// template are not used.
    ExperimentSpec spec;
    /// Debounce: a refit is dispatched once an experiment has at least this
    /// many un-fitted runs ...
    int min_runs = 3;
    /// ... or at least one un-fitted run that has been waiting longer than
    /// this quiescence window (no newer arrival since).
    std::uint64_t quiescence_ns = 200'000'000;
    /// Sliding window: newest runs retained per configuration (x1 value).
    /// Re-fits aggregate over the window, so the model tracks drift with a
    /// memory of `window` runs per point.
    int window = 6;
    /// Background fit workers (the refit ThreadPool); each refit job is
    /// one serial fit. Must be >= 1 (the constructor rejects less).
    int fit_threads = 2;
    /// Time source for debounce and latency metrics; nullptr = steady clock.
    /// Inject an obs::FakeClock to make debounce decisions deterministic.
    const obs::Clock* clock = nullptr;
};

/// Counter snapshot behind the `fleet-stats` verb (all totals since start).
struct FleetStats {
    std::uint64_t accepted = 0;     ///< runs folded into a window
    std::uint64_t quarantined = 0;  ///< runs rejected (parse/validate/params)
    std::uint64_t refits = 0;       ///< fit jobs that produced a model
    std::uint64_t refits_skipped = 0;  ///< jobs skipped (< 5 configs)
    std::uint64_t refit_failures = 0;  ///< jobs that threw (kept loop alive)
    std::uint64_t swaps = 0;           ///< models exported + hot-swapped
    std::uint64_t stale_discarded = 0;  ///< fits outrun by a newer install
    std::uint64_t spool_files = 0;      ///< spool files ingested
    std::uint64_t staleness_runs = 0;  ///< Σ accepted-but-not-yet-served runs
    std::size_t experiments = 0;
};

/// The continuous-modeling fleet daemon core: accepts profile runs while
/// serving, incrementally re-aggregates them, re-fits affected experiments
/// on a background pool, and hot-swaps the exported models into the shared
/// ModelRegistry — predictions keep flowing from the last good model during
/// every re-fit (keep-last-good, DESIGN.md §14).
///
/// Ingest path (push via the serve `ingest` verb, or spool files picked up
/// by the spool scan — both run the identical pipeline): the streaming
/// digest_edp (tolerant parse, validate_run on the marks, per-rank
/// reduction; O(kernels) retained per run) → x1 checks → sliding window
/// per configuration. A run that fails any stage is quarantined: counted,
/// reported as an `err` line (or a diagnostic), and guaranteed to leave the
/// aggregate untouched — corrupt input can never poison the models.
///
/// Debounce and generations: every accepted run bumps the experiment's
/// ingest generation. A refit is due when the un-fitted backlog reaches
/// min_runs or a run has waited out the quiescence window. The started
/// loop dispatches it at once: an accepted run wakes it, and between
/// arrivals it sleeps until the earliest quiescence deadline. Each fit job
/// carries the generation it observed; an install only proceeds if its
/// generation exceeds the highest installed one, so a slow stale fit can
/// never overwrite a newer model (it is counted as stale_discarded
/// instead). Staleness — the total number of accepted runs not yet
/// reflected in served models — is exported as a gauge and reaches zero
/// exactly when the loop has caught up (drain()).
///
/// Thread safety: all public methods are thread-safe; fits run without any
/// service lock held.
class FleetService final : public serve::FleetHandler,
                           public std::enable_shared_from_this<FleetService> {
public:
    /// Creates models_dir if missing and primes `registry` from it
    /// (load_directory), so a restarted daemon serves its previous exports
    /// immediately. Throws InvalidArgumentError on bad options.
    FleetService(FleetOptions options,
                 std::shared_ptr<serve::ModelRegistry> registry);
    ~FleetService() override;

    FleetService(const FleetService&) = delete;
    FleetService& operator=(const FleetService&) = delete;

    // serve::FleetHandler ----------------------------------------------------
    std::string handle_ingest(const std::string& experiment,
                              const std::string& payload) override;
    std::string fleet_stats_line() override;
    void attach_metrics(obs::MetricsRegistry& metrics) override;
    void update_metrics() override;

    /// One step of the continuous loop, the deterministic seam of the
    /// started loop: scans the spool (if configured) for new runs, then
    /// applies the debounce policy and dispatches due refit jobs to the
    /// pool. Returns the number of jobs dispatched. Never throws:
    /// quarantined spool files are counted and skipped.
    int poll_once();

    /// Starts the dispatch loop on a background thread until stop(). It
    /// dispatches a refit as soon as it falls due: at the arrival that
    /// brings a backlog to min_runs, or at the earliest quiescence deadline
    /// of a pending experiment. `interval_ms` paces only the spool scans
    /// (unused without a spool). Idempotent start; stop() is called by the
    /// destructor.
    void start(int interval_ms);
    void stop();

    /// Force-dispatches every pending run and blocks until all dispatched
    /// fits have completed and installed (staleness 0 unless skipped/failed).
    void drain();

    /// Counter snapshot (also the data behind fleet_stats_line()).
    FleetStats stats() const;

    /// Installs an already-fitted model under the generation protocol: the
    /// atomic export + registry hot swap happens only if `generation`
    /// exceeds the experiment's highest installed generation; otherwise the
    /// model is discarded as stale. Returns true if installed. Public as the
    /// deterministic test seam for the stale-fit guard (the refit jobs go
    /// through exactly this path).
    bool install_model(const std::string& experiment, std::uint64_t generation,
                       const serve::ServableModel& model);

    const std::shared_ptr<serve::ModelRegistry>& registry() const {
        return registry_;
    }
    const FleetOptions& options() const { return options_; }

private:
    /// Sliding per-configuration window of reduced runs. The runs are
    /// immutable and shared with fit-job snapshots, so a dispatch copies
    /// pointers, not kernel maps.
    struct ConfigSlot {
        std::map<std::string, double> params;
        std::deque<std::shared_ptr<const aggregation::RunAggregate>> window;
    };

    /// All mutable state of one experiment (guarded by mutex_).
    struct ExperimentState {
        std::map<double, ConfigSlot> configs;  ///< keyed by x1
        std::uint64_t ingest_gen = 0;      ///< accepted runs, monotonically
        std::uint64_t dispatched_gen = 0;  ///< highest gen handed to a fit
        std::uint64_t fitted_gen = 0;      ///< highest gen whose fit finished
        std::uint64_t installed_gen = 0;   ///< highest gen serving traffic
        std::uint64_t last_arrival_ns = 0;
    };

    /// Immutable inputs of one fit job, snapshotted under the lock.
    struct FitJob {
        std::string experiment;
        std::uint64_t generation = 0;
        std::vector<ConfigSlot> configs;  ///< ascending x1
    };

    /// Shared ingest pipeline over one EDP run; `source` labels
    /// diagnostics ("push"/path). Returns the response payload; throws
    /// Error on quarantine.
    std::string ingest_run(const std::string& experiment, std::istream& edp,
                           const std::string& source);
    [[noreturn]] void quarantine(const std::string& reason);

    /// Ingests the spool files not seen before (no-op without a spool).
    void scan_spool();

    /// Applies the debounce policy and submits due jobs. Caller holds no
    /// lock. Returns jobs dispatched. If `wait_ns` is given and an
    /// experiment is left pending, sets it to the time until the earliest
    /// quiescence deadline; otherwise leaves it untouched.
    int dispatch_due(bool force, std::uint64_t* wait_ns = nullptr);

    /// Body of the started loop (see start()).
    void dispatch_loop(std::chrono::milliseconds scan_interval);
    /// Wakes the started loop to re-apply the debounce policy.
    void wake_poller();

    /// Runs one fit job on a pool worker (never throws).
    void run_fit_job(FitJob job);
    /// Marks a job's generation as fitted and wakes drain().
    void finish_job(const std::string& experiment, std::uint64_t generation);

    std::uint64_t staleness_locked() const;

    FleetOptions options_;
    std::shared_ptr<serve::ModelRegistry> registry_;
    const obs::Clock* clock_;
    SpoolScanner spool_;

    mutable std::mutex mutex_;
    std::condition_variable drain_cv_;
    std::map<std::string, ExperimentState> experiments_;
    FleetStats stats_;
    int jobs_in_flight_ = 0;

    std::mutex install_mutex_;  ///< serialises export + reload, not fits

    std::mutex poller_mutex_;
    std::thread poller_;
    std::condition_variable poller_cv_;
    bool poller_stop_ = false;
    bool poller_woken_ = false;  ///< a run arrived since the last dispatch

    // Instruments (engine registry); null until attach_metrics.
    obs::Counter* accepted_counter_ = nullptr;
    obs::Counter* quarantined_counter_ = nullptr;
    obs::Counter* refit_counter_ = nullptr;
    obs::Counter* swap_counter_ = nullptr;
    obs::Counter* stale_counter_ = nullptr;
    obs::Gauge* queued_gauge_ = nullptr;
    obs::Gauge* staleness_gauge_ = nullptr;
    obs::Histogram* refit_latency_ = nullptr;
    obs::Histogram* swap_latency_ = nullptr;

    /// Declared last so it is destroyed first: destruction drops queued fit
    /// jobs and waits for running ones, which still use the members above.
    ThreadPool pool_;
};

}  // namespace extradeep::fleet
