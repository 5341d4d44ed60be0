#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/diagnostics.hpp"
#include "extradeep/models.hpp"
#include "extradeep/runner.hpp"

namespace extradeep::serve {

/// EDPM ("Extra-Deep Performance Model") is the on-disk model format of the
/// serving subsystem — the persistent artifact that makes fitted models
/// reusable without re-running the experiment (paper Sec. 3.3: the models,
/// not the measurements, are what downstream what-if analysis consumes).
///
/// It is a versioned, tab-separated text format (schema `extradeep-model/1`,
/// file extension `.edpm`), one file per fitted experiment:
///
///   EDPM<TAB>1
///   NAME<TAB>cifar10-weak
///   PROV<TAB>CIFAR-10 on DEEP, data parallelism, weak scaling, B=256, reps=5
///   SEED<TAB>1
///   SPEC<TAB>CIFAR-10<TAB>DEEP<TAB>data parallelism<TAB>weak scaling<TAB>256<TAB>1<TAB>8
///   XS<TAB>5<TAB>0x1p+1<TAB>0x1p+2<TAB>...
///   EPOCHV<TAB>5<TAB>...
///   MODEL<TAB>epoch.train
///   PARAMS<TAB>1<TAB>x1
///   CONST<TAB>0x1.91eb851eb851fp+1
///   QUALITY<TAB><fit_smape><TAB><cv_smape><TAB><r2><TAB><rss><TAB><hypotheses>
///   TERM<TAB><coefficient><TAB><nfactors>{<TAB><param><TAB><poly><TAB><log>}*
///   FIT<TAB><dof><TAB><residual_variance><TAB><dim>
///   COV<TAB><dim values>          (dim rows)
///   ENDMODEL
///   ...                           (8 MODEL sections, see kModelKeys)
///   END
///
/// Every floating-point value is encoded as a C99 hexadecimal literal
/// (fmt::hexfloat), so a write/read cycle reproduces each double bit for
/// bit — the schema's round-trip guarantee. The QUALITY line is the only
/// place non-finite values are accepted on read (degenerate fits may carry
/// them); everything else rejects NaN/infinity at the boundary.
///
/// The analytical step math (Eqs. 2-3) is not stored as data: the SPEC
/// record carries the five defining parameters and the loader reconstructs
/// the exact StepMathFn via make_step_math_fn (pure integer arithmetic over
/// the dataset preset, hence bit-identical to the fit-time function).

inline constexpr int kEdpmVersion = 1;
inline constexpr char kEdpmExtension[] = ".edpm";

/// The eight persisted PMNF models of one experiment: the per-step
/// train/validation models of the epoch total and of each phase total.
inline constexpr std::array<const char*, 8> kModelKeys = {
    "epoch.train",
    "epoch.val",
    "phase.computation.train",
    "phase.computation.val",
    "phase.communication.train",
    "phase.communication.val",
    "phase.memory.train",
    "phase.memory.val",
};

/// A fitted experiment in servable form: everything the query engine needs
/// (predict / speedup / efficiency / cost / search), decoupled from the
/// simulator and the raw measurements.
struct ServableModel {
    /// Registry key. Restricted to [A-Za-z0-9._-] so it is always a single
    /// protocol token; max 128 characters.
    std::string name;
    std::string provenance;  ///< ExperimentSpec::describe(), free text
    std::uint64_t seed = 0;

    // The experiment parameters that define the analytical step math and
    // the Eq. 14 cost unit.
    std::string dataset;
    std::string system_name;
    parallel::StrategyKind strategy = parallel::StrategyKind::Data;
    parallel::ScalingMode scaling = parallel::ScalingMode::Weak;
    std::int64_t batch_per_worker = 0;
    int model_parallel_degree = 1;
    int cores_per_rank = 1;  ///< rho in Eq. 14

    /// Modeling points (ascending) and the derived per-epoch training time
    /// at each (Eq. 6) — the baselines of speedup/efficiency queries.
    std::vector<double> modeling_xs;
    std::vector<double> epoch_time_values;

    EpochModel epoch_time;  ///< T_epoch(x1)
    std::array<EpochModel, trace::kPhaseCount> phase_time;

    /// Reconstructed analytical step counts for any rank count.
    StepMathFn step_math;
};

/// Export hook: packages a finished experiment into servable form. The
/// epoch/phase models and step math are shared with the result; `name` must
/// satisfy the registry-key restriction. Throws InvalidArgumentError on an
/// invalid name or an unfitted result.
ServableModel make_servable(const ExperimentSpec& spec,
                            const ExperimentResult& result, std::string name);

/// Serialises a servable model. Throws InvalidArgumentError on invalid
/// names/values (non-finite model coefficients, mismatched point vectors)
/// and Error if the stream write fails.
void write_edpm(std::ostream& os, const ServableModel& model);

/// Outcome of a diagnosing model load.
struct EdpmReadResult {
    /// Present unless an Error-severity problem made the model unusable.
    /// Warnings alone (unknown tags, dropped fit info, trailing data) still
    /// yield a model; a loaded model NEVER silently differs in its
    /// predictions — anything that would change predict output (corrupt
    /// CONST/TERM/SPEC/XS records) quarantines the whole file instead.
    std::optional<ServableModel> model;
    DiagnosticLog diagnostics;

    bool ok() const { return model.has_value() && !diagnostics.has_errors(); }
};

/// Parses a model; throws ParseError carrying the first diagnostic
/// read_edpm_diagnosed records, whatever its severity, as
/// "<reason> (line N)" (version mismatches, truncated files, duplicate or
/// missing sections, trailing data after END, ...). One contract with the
/// EDP reader (DESIGN.md §8).
ServableModel read_edpm(std::istream& is);

/// Parses a model and never throws on malformed content: every problem is
/// returned as a diagnostic and a corrupt file comes back quarantined
/// (model == nullopt).
EdpmReadResult read_edpm_diagnosed(std::istream& is);

/// File-based convenience wrappers. Both throw Error on I/O failure: an
/// unopenable file is an environment problem, not dirty data.
void write_edpm_file(const std::string& path, const ServableModel& model);
ServableModel read_edpm_file(const std::string& path);
EdpmReadResult read_edpm_file_diagnosed(const std::string& path);

}  // namespace extradeep::serve
