#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hw/system.hpp"
#include "obs/session.hpp"

namespace extradeep::cli {

/// The command-line front door shared by every tool main: one flag cursor
/// and one copy of each value parser. Each main walks its flags with
/// next(), reads values with the typed getters, and fills its own options
/// struct; nothing here knows which flags a tool accepts.
///
/// Every getter reads the whole token: a partial parse ("4x", "80abc", "")
/// throws InvalidArgumentError naming the flag and the bad value, e.g.
/// "--threads: expected an integer, got '4x'".
class Args {
public:
    /// Cursor over argv[first .. argc).
    Args(int argc, char** argv, int first = 1);

    /// Advances to the next token; false at the end.
    bool next(std::string& arg);

    /// The token after `flag`; throws if the command line ends first.
    std::string value(const std::string& flag);
    int int_value(const std::string& flag);
    /// Non-negative integer (seeds, byte and millisecond counts).
    std::uint64_t u64_value(const std::string& flag);
    /// Finite floating-point number.
    double double_value(const std::string& flag);

private:
    int argc_;
    char** argv_;
    int i_;
};

/// "2,4,8" -> {2, 4, 8}; every entry a positive integer (--ranks).
std::vector<int> parse_rank_list(const std::string& arg);

/// "0,0.05" -> {0.0, 0.05}; every entry a finite sigma >= 0 (--noise).
std::vector<double> parse_noise_list(const std::string& arg);

/// DEEP / JURECA (either case) -> the system preset (--system).
hw::SystemSpec parse_system(const std::string& name);

/// Whole file as a string; throws Error("<what>: cannot read '<path>'").
std::string read_text_file(const std::string& path, const std::string& what);

/// Short git revision of the working directory for the BENCH_*.json
/// git_rev field, or "unknown" outside a checkout.
std::string git_revision();

/// Observability session for one tool run: `trace` (the --trace SPEC, when
/// given) wins over the EXTRADEEP_TRACE environment. When tracing is on
/// and `x1` is set, it becomes the self-profile x1 parameter unless the
/// spec named one explicitly (tools pass their resolved thread count).
std::unique_ptr<obs::ObsSession> open_obs_session(
    const std::optional<std::string>& trace, std::optional<int> x1);

}  // namespace extradeep::cli
