#pragma once

#include <string>

namespace extradeep::advisor {

/// Collective-algorithm choice of a scenario's `collective:` transform.
/// `None` keeps the system's automatic selection.
enum class CollectiveAlgo { None, Ring, Tree };

/// A canonical what-if scenario: the reduced form of a '+'-joined list of
/// transform tokens (see parse_scenario). Every field is a *combined*
/// magnitude, so two specs that are permutations of each other reduce to the
/// same Scenario — the representation itself guarantees the advisor's
/// order-independence property for commutative transforms.
struct Scenario {
    /// Interconnect upgrade factor f: every link's latency is divided by f
    /// and its bandwidth multiplied by f. 1.0 = no change.
    double interconnect = 1.0;
    /// Latency-only improvement factor (alpha / f). 1.0 = no change.
    double latency = 1.0;
    /// Bandwidth-only improvement factor (beta * f). 1.0 = no change.
    double bandwidth = 1.0;
    /// Fraction of communication hidden under computation, in [0, 1].
    double overlap = 0.0;
    /// Pinned gradient-allreduce algorithm (collective swap).
    CollectiveAlgo collective = CollectiveAlgo::None;
    /// Fuse the top-k compute kernels into one launch; k < 2 is a no-op.
    int fuse = 0;

    /// True when the effective latency and bandwidth factors are equal, the
    /// algorithm is untouched, and no fusion applies — the case where every
    /// communication closed form scales by exactly 1/factor.
    bool is_uniform_link_scaling() const;

    /// Combined latency improvement factor (interconnect * latency).
    double latency_factor() const { return interconnect * latency; }
    /// Combined bandwidth improvement factor (interconnect * bandwidth).
    double bandwidth_factor() const { return interconnect * bandwidth; }

    /// Canonical single-token rendering, e.g. "interconnect:2+overlap:0.5";
    /// "identity" when it changes nothing (all magnitudes neutral). Parsing
    /// the result reproduces the Scenario exactly.
    std::string canonical_spec() const;
};

/// Parses a scenario specification: one or more `name:value` transforms
/// joined by '+'. Supported transforms:
///   interconnect:<f>   f > 0, scales every link (alpha/f, beta*f)
///   latency:<f>        f > 0, scales link latencies only (alpha/f)
///   bandwidth:<f>      f > 0, scales link bandwidths only (beta*f)
///   overlap:<f>        f in [0, 1], hides f of comm under compute
///   collective:<algo>  ring | tree, pins the allreduce algorithm
///   fuse:<k>           k >= 0, fuses the top-k compute kernels
/// Repeated transforms compose: factors multiply, overlap fractions combine
/// as 1 - (1-a)(1-b), fuse takes the maximum k. Conflicting collective
/// algorithms, unknown names, and out-of-range values throw
/// InvalidArgumentError.
Scenario parse_scenario(const std::string& spec);

}  // namespace extradeep::advisor
