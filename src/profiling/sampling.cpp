#include "profiling/sampling.hpp"


namespace extradeep::profiling {

SamplingStrategy SamplingStrategy::efficient() {
    SamplingStrategy s;
    s.kind = Kind::Efficient;
    s.epochs = 2;
    s.train_steps_per_epoch = 5;
    s.val_steps_per_epoch = 5;
    s.discard_warmup_epochs = 1;
    return s;
}

SamplingStrategy SamplingStrategy::standard() {
    SamplingStrategy s;
    s.kind = Kind::Standard;
    s.epochs = 2;
    s.train_steps_per_epoch = -1;
    s.val_steps_per_epoch = -1;
    s.discard_warmup_epochs = 1;
    return s;
}

sim::TraceOptions SamplingStrategy::trace_options(std::uint64_t run_seed) const {
    sim::TraceOptions o;
    o.epochs = epochs;
    o.train_steps_per_epoch = train_steps_per_epoch;
    o.val_steps_per_epoch = val_steps_per_epoch;
    o.run_seed = run_seed;
    return o;
}

}  // namespace extradeep::profiling
