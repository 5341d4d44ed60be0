#pragma once

#include <cstdint>
#include <string>

#include "sim/simulator.hpp"

namespace extradeep::profiling {

/// How much of a training run is executed and profiled to obtain one
/// measurement (paper Sec. 2.2). The *efficient* strategy is the paper's
/// contribution: run only two epochs with five training and five validation
/// steps each, discard the first (warm-up) epoch, and extrapolate - which
/// cuts profiling time by ~95 % versus profiling full epochs.
struct SamplingStrategy {
    enum class Kind { Standard, Efficient };

    Kind kind = Kind::Efficient;
    int epochs = 2;
    std::int64_t train_steps_per_epoch = 5;  ///< -1 = full n_t
    std::int64_t val_steps_per_epoch = 5;    ///< -1 = full n_v
    int discard_warmup_epochs = 1;  ///< leading epochs excluded from modeling

    /// The paper's default: 5 training + 5 validation steps from 2 epochs,
    /// first epoch discarded as warm-up.
    static SamplingStrategy efficient();

    /// Standard profiling: the full epoch is executed and profiled
    /// (2 epochs so the warm-up epoch can still be discarded).
    static SamplingStrategy standard();

    /// Translates into simulator trace options for one repetition.
    sim::TraceOptions trace_options(std::uint64_t run_seed) const;
};

}  // namespace extradeep::profiling
