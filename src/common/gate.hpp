#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace extradeep::gate {

/// Shared threshold-gate core. The regression gates (eval accuracy,
/// what-if advisor, fleet drift, plan budget, ledger performance) all
/// enforce the same "rules match samples" semantics: wildcard scope "*",
/// wildcard noise (negative), optional min/max bounds, and the
/// unmatched-rule-is-a-violation guard - a renamed metric or removed case
/// must not silently disable its threshold. This is the single
/// implementation; eval::check_gate maps the standard metric records onto
/// Sample and renders Violation into the gate's message strings.

/// One measured data point a gate rule can match.
struct Sample {
    std::string scope;      ///< case name / ledger workload / plan case
    double noise = -1.0;    ///< noise level; negative = not applicable
    std::string metric;
    double value = 0.0;
};

/// One gate rule. `scope` may be "*" (match any sample scope); `noise` may
/// be negative (match any noise level). At least one of min/max is set by
/// every parsed rule.
struct Rule {
    std::string scope = "*";
    double noise = -1.0;
    std::string metric;
    std::optional<double> min;
    std::optional<double> max;
};

/// A structured gate violation. The indices point back into the rule and
/// sample vectors handed to check_rules so the front-end can format
/// messages against its records.
struct Violation {
    enum class Kind { BelowMin, AboveMax, Unmatched };
    Kind kind = Kind::Unmatched;
    std::size_t rule = 0;    ///< index into the rules vector
    std::size_t sample = 0;  ///< index into samples (meaningless for Unmatched)
    double bound = 0.0;      ///< the breached min/max (0 for Unmatched)
};

struct Outcome {
    bool pass = true;
    std::size_t rules_checked = 0;
    /// Sum over rules of the number of samples each rule matched.
    std::size_t samples_matched = 0;
    std::vector<Violation> violations;
};

/// Checks every rule against every sample. Iteration is rule-major and
/// sample-minor, and a sample breaching both bounds emits BelowMin before
/// AboveMax, so violation order is stable. A rule that matched no sample at
/// all yields one Unmatched violation.
Outcome check_rules(const std::vector<Sample>& samples,
                    const std::vector<Rule>& rules);

/// Parses a thresholds document, the one rule dialect of every gate:
///   {"thresholds": [{"case": "*", "noise": 0.0,
///                    "metric": "exponent_recovery", "min": 1.0}, ...]}
/// "case" and "noise" are optional (wildcards when omitted). Throws
/// ParseError on malformed JSON, a missing "thresholds" array, an empty
/// one (it would disable the gate), a rule without a "metric" string,
/// non-string case, non-number noise/min/max, or a rule with neither min
/// nor max.
std::vector<Rule> parse_rules(const std::string& json_text);

}  // namespace extradeep::gate
