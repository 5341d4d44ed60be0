#include "advisor/scenario.hpp"

#include <cmath>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/format.hpp"

namespace extradeep::advisor {

namespace {

double factor_value(const std::string& value, const std::string& name) {
    double v = 0.0;
    if (!fmt::parse_double(value, v) || !std::isfinite(v) || v <= 0.0) {
        throw InvalidArgumentError("scenario: " + name +
                                   " needs a positive finite factor, got '" +
                                   value + "'");
    }
    return v;
}

void apply_token(Scenario& sc, const std::string& token) {
    const std::size_t colon = token.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= token.size()) {
        throw InvalidArgumentError("scenario: transform must be name:value, "
                                   "got '" + token + "'");
    }
    const std::string name = token.substr(0, colon);
    const std::string value = token.substr(colon + 1);
    if (name == "interconnect") {
        sc.interconnect *= factor_value(value, name);
    } else if (name == "latency") {
        sc.latency *= factor_value(value, name);
    } else if (name == "bandwidth") {
        sc.bandwidth *= factor_value(value, name);
    } else if (name == "overlap") {
        double f = 0.0;
        if (!fmt::parse_double(value, f) || !std::isfinite(f) || f < 0.0 ||
            f > 1.0) {
            throw InvalidArgumentError(
                "scenario: overlap needs a fraction in [0, 1], got '" + value +
                "'");
        }
        // Overlapping fractions compose on the *remaining* visible share, so
        // composition is commutative and overlap:0 is an exact no-op.
        sc.overlap = 1.0 - (1.0 - sc.overlap) * (1.0 - f);
    } else if (name == "collective") {
        CollectiveAlgo algo = CollectiveAlgo::None;
        if (value == "ring") {
            algo = CollectiveAlgo::Ring;
        } else if (value == "tree") {
            algo = CollectiveAlgo::Tree;
        } else {
            throw InvalidArgumentError(
                "scenario: collective must be ring or tree, got '" + value +
                "'");
        }
        if (sc.collective != CollectiveAlgo::None && sc.collective != algo) {
            throw InvalidArgumentError(
                "scenario: conflicting collective algorithms");
        }
        sc.collective = algo;
    } else if (name == "fuse") {
        double k = 0.0;
        if (!fmt::parse_double(value, k) || !std::isfinite(k) || k < 0.0 ||
            k != std::floor(k) || k > 1e6) {
            throw InvalidArgumentError(
                "scenario: fuse needs a non-negative integer k, got '" +
                value + "'");
        }
        sc.fuse = std::max(sc.fuse, static_cast<int>(k));
    } else {
        throw InvalidArgumentError("scenario: unknown transform '" + name +
                                   "'");
    }
}

}  // namespace

bool Scenario::is_uniform_link_scaling() const {
    return latency_factor() == bandwidth_factor() &&
           collective == CollectiveAlgo::None;
}

std::string Scenario::canonical_spec() const {
    std::vector<std::string> parts;
    if (collective == CollectiveAlgo::Ring) {
        parts.push_back("collective:ring");
    } else if (collective == CollectiveAlgo::Tree) {
        parts.push_back("collective:tree");
    }
    if (interconnect != 1.0) {
        parts.push_back("interconnect:" + fmt::shortest(interconnect));
    }
    if (latency != 1.0) {
        parts.push_back("latency:" + fmt::shortest(latency));
    }
    if (bandwidth != 1.0) {
        parts.push_back("bandwidth:" + fmt::shortest(bandwidth));
    }
    if (overlap != 0.0) {
        parts.push_back("overlap:" + fmt::shortest(overlap));
    }
    if (fuse >= 2) {
        parts.push_back("fuse:" + std::to_string(fuse));
    }
    if (parts.empty()) {
        return "identity";
    }
    std::ostringstream os;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0) {
            os << '+';
        }
        os << parts[i];
    }
    return os.str();
}

Scenario parse_scenario(const std::string& spec) {
    if (spec.empty()) {
        throw InvalidArgumentError("scenario: empty specification");
    }
    Scenario sc;
    if (spec == "identity") {
        return sc;
    }
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t plus = spec.find('+', pos);
        const std::string token =
            spec.substr(pos, plus == std::string::npos ? std::string::npos
                                                       : plus - pos);
        if (token.empty()) {
            throw InvalidArgumentError("scenario: empty transform in '" +
                                       spec + "'");
        }
        apply_token(sc, token);
        if (plus == std::string::npos) {
            break;
        }
        pos = plus + 1;
    }
    if (!std::isfinite(sc.interconnect) || !std::isfinite(sc.latency) ||
        !std::isfinite(sc.bandwidth) || sc.interconnect <= 0.0 ||
        sc.latency <= 0.0 || sc.bandwidth <= 0.0) {
        throw InvalidArgumentError(
            "scenario: combined link factors out of range");
    }
    return sc;
}

}  // namespace extradeep::advisor
