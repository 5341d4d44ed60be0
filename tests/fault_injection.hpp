#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "profiling/profiler.hpp"

/// Deterministic fault-injection library for the EDP ingestion path.
///
/// All mutators are pure functions of (input bytes, Rng state): the same
/// seed always produces the same mutated corpus, so every fuzz failure is
/// reproducible from its seed alone. The mutators model the corruption
/// modes of real multi-rank profile collection: truncated transfers,
/// dropped fields, editor-injected whitespace, duplicated rank blocks,
/// corrupted numbers, and reordered lines.
namespace extradeep::edpfuzz {

using MutatorFn = std::string (*)(const std::string&, Rng&);

/// Cuts the input at a random byte offset (lost trailing data).
std::string truncate_bytes(const std::string& input, Rng& rng);

/// Removes one tab-separated field from a random line.
std::string delete_field(const std::string& input, Rng& rng);

/// Removes one whole line.
std::string delete_line(const std::string& input, Rng& rng);

/// Duplicates one whole line.
std::string duplicate_line(const std::string& input, Rng& rng);

/// Inserts a tab or newline at a random byte offset.
std::string inject_whitespace(const std::string& input, Rng& rng);

/// Duplicates one RANK block (header through the line before the next
/// RANK/END). Falls back to duplicate_line when the input has no RANK line.
std::string duplicate_rank_block(const std::string& input, Rng& rng);

/// The corrupt numeric tokens corrupt_number draws from ("nan", "inf",
/// "1e999", "-1", "12x", "", ...).
const std::vector<std::string>& corrupt_number_tokens();

/// Replaces one field of a random line with a corrupt numeric token
/// (one of corrupt_number_tokens()).
std::string corrupt_number(const std::string& input, Rng& rng);

/// Deterministically shuffles all lines (Fisher-Yates over rng, so the
/// permutation does not depend on the standard library).
std::string shuffle_lines(const std::string& input, Rng& rng);

/// All mutators with stable names, for parameterised tests and reporting.
const std::vector<std::pair<std::string, MutatorFn>>& mutators();

/// Applies `count` randomly chosen mutators in sequence.
std::string apply_random_mutations(const std::string& input, Rng& rng,
                                   int count);

/// A randomized ProfiledRun for round-trip fuzzing. All floating-point
/// values lie on a 1/16 grid so that the 12-significant-digit EDP encoding
/// is exact and round-trips bit-identically. Includes empty-rank and
/// zero-event edge cases (and, with some probability, zero ranks).
profiling::ProfiledRun random_run(Rng& rng);

/// A structurally coherent run (properly nested epoch/step marks, events
/// inside their step windows, consistent kernel categories) suitable for
/// aggregation property tests. All values lie on the exact 1/16 grid.
profiling::ProfiledRun coherent_run(Rng& rng,
                                    std::map<std::string, double> params,
                                    int repetition, int n_ranks);

}  // namespace extradeep::edpfuzz
