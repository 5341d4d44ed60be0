#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/gate.hpp"
#include "eval/scorer.hpp"

namespace extradeep::eval {

/// One machine-readable data point. The (case, noise, metric, value, seed)
/// tuple is the stable record schema of every BENCH_*.json and the only
/// input the threshold gates read.
struct MetricRecord {
    std::string case_name;
    double noise = 0.0;
    std::string metric;
    double value = 0.0;
    std::uint64_t seed = 1;
};

/// Flattens a score into records. Deterministic metrics come first
/// (exponent_recovery, smape_in_range, extrap_error_{2x,4x,8x},
/// pi_coverage, and cost_smape when applicable), then throughput metrics
/// (fit_seconds, hypotheses_searched, hypotheses_per_sec), which are
/// machine-dependent and never gated.
std::vector<MetricRecord> to_records(const CaseScore& score);
std::vector<MetricRecord> to_records(const std::vector<CaseScore>& scores);

/// Human-readable results table (one row per case x noise).
std::string render_table(const std::vector<CaseScore>& scores);

/// Serialises records as a BENCH_*.json document:
///   {"schema": "<schema>", "git_rev": "...", <payload> "records": [...]}
/// The schema tag names the producing harness (extradeep-eval/1,
/// extradeep-whatif/1, extradeep-fleet/1, extradeep-plan/1,
/// extradeep-ledger-gate/1). `payload` carries a tool's nested data beside
/// the standard records (the planner's arms and rounds, the ledger runs'
/// environments): zero or more top-level members inserted
/// verbatim, each rendered as `  "key": value,\n`. Numbers are rendered
/// locale-independently and round-trip exactly enough for gate checking;
/// a non-finite value throws InvalidArgumentError.
std::string bench_json(const std::vector<MetricRecord>& records,
                       const std::string& git_rev,
                       const std::string& schema = "extradeep-eval/1",
                       const std::string& payload = "");

/// Writes a report document to `path` (the tools' --out). Throws Error if
/// the file cannot be opened or the write fails, checked after flush and
/// close (a full disk must not pass as "wrote N records").
void write_report(const std::string& path, const std::string& document);

/// Reads and parses a thresholds file (gate::parse_rules). Throws Error if
/// it cannot be read and ParseError if it is malformed.
std::vector<gate::Rule> load_thresholds_file(const std::string& path);

/// Result of checking records against thresholds.
struct GateResult {
    bool pass = true;
    std::size_t rules_checked = 0;
    std::size_t records_matched = 0;
    std::vector<std::string> violations;
};

/// Rules match records by case (gate::Rule::scope), noise and metric. A
/// rule must match at least one record, otherwise the gate fails - a
/// renamed metric or removed case must not silently disable its threshold.
GateResult check_gate(const std::vector<MetricRecord>& records,
                      const std::vector<gate::Rule>& rules);

/// The --thresholds runner of every tool: loads `path`, checks `records`,
/// prints "gate: N rules, M records matched", then either "<name> gate
/// passed" (returns 0) or one "GATE VIOLATION: ..." line per violation and
/// "<name> gate FAILED (K violations)" on stderr (returns 1). An unreadable
/// or malformed thresholds file throws instead.
int run_thresholds(const std::vector<MetricRecord>& records,
                   const std::string& path, const std::string& gate_name);

/// The same runner over rules already loaded (ledger-gate checks only the
/// rules of the workload it was asked to run).
int run_thresholds(const std::vector<MetricRecord>& records,
                   const std::vector<gate::Rule>& rules,
                   const std::string& gate_name);

}  // namespace extradeep::eval
