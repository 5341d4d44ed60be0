// Differential test of the EDP number grammar. Every token is fed through the
// public read_edp as one numeric field of an E or P line, and the outcome
// (the parsed value's bits, or the ParseError text) must equal that of the
// std::stod/std::stoll parsers below, which are the reader's number parsers
// as they were before the std::from_chars fast path. The fast path may only
// ever answer a token the way the reference does.

#include <gtest/gtest.h>

#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/format.hpp"
#include "fault_injection.hpp"
#include "profiling/edp_io.hpp"

namespace {

using extradeep::ParseError;
namespace fmt = extradeep::fmt;
namespace profiling = extradeep::profiling;

// ---- Reference parsers: std::stod / std::stoll on the whole token. --------

double ref_double(const std::string& s, const char* what) {
    double v = 0.0;
    try {
        std::size_t idx = 0;
        v = std::stod(s, &idx);
        if (idx != s.size()) {
            throw ParseError(std::string("EDP: trailing junk in ") + what);
        }
    } catch (const std::invalid_argument&) {
        throw ParseError(std::string("EDP: bad number for ") + what + ": '" +
                         s + "'");
    } catch (const std::out_of_range&) {
        throw ParseError(std::string("EDP: number out of range for ") + what);
    }
    if (!std::isfinite(v)) {
        throw ParseError(std::string("EDP: non-finite value for ") + what +
                         ": '" + s + "'");
    }
    return v;
}

double ref_nonneg_double(const std::string& s, const char* what) {
    const double v = ref_double(s, what);
    if (v < 0.0) {
        throw ParseError(std::string("EDP: negative value for ") + what +
                         ": '" + s + "'");
    }
    return v;
}

long long ref_int(const std::string& s, const char* what) {
    try {
        std::size_t idx = 0;
        const long long v = std::stoll(s, &idx);
        if (idx != s.size()) {
            throw ParseError(std::string("EDP: trailing junk in ") + what);
        }
        return v;
    } catch (const std::invalid_argument&) {
        throw ParseError(std::string("EDP: bad integer for ") + what + ": '" +
                         s + "'");
    } catch (const std::out_of_range&) {
        throw ParseError(std::string("EDP: integer out of range for ") + what);
    }
}

// ---- Outcomes: "bits <hex>" / "int <n>" / "error <text>". ----------------

std::string bits_outcome(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    char buf[32];
    std::snprintf(buf, sizeof buf, "bits %016" PRIx64, bits);
    return buf;
}

std::string int_outcome(long long v) { return "int " + std::to_string(v); }

/// The numeric fields the test drives: the four of an E line and the value
/// of a P line.
enum class Slot { Start, Duration, Visits, Bytes, Param };

bool is_last_field(Slot slot) {
    return slot == Slot::Bytes || slot == Slot::Param;
}

std::string reference_outcome(Slot slot, std::string token) {
    // The reader strips one trailing '\r' per line (CRLF tolerance); only a
    // token in the line's last field sees that.
    if (is_last_field(slot) && !token.empty() && token.back() == '\r') {
        token.pop_back();
    }
    try {
        switch (slot) {
            case Slot::Start:
                return bits_outcome(ref_nonneg_double(token, "event start"));
            case Slot::Duration:
                return bits_outcome(
                    ref_nonneg_double(token, "event duration"));
            case Slot::Visits: {
                const long long v = ref_int(token, "event visits");
                if (v < 0) {
                    throw ParseError("EDP: negative value for event visits");
                }
                return int_outcome(v);
            }
            case Slot::Bytes:
                return bits_outcome(ref_nonneg_double(token, "event bytes"));
            case Slot::Param:
                return bits_outcome(ref_double(token, "param value"));
        }
    } catch (const ParseError& e) {
        return std::string("error ") + e.what();
    }
    return "unreachable";
}

/// "p<i>", built in two steps: GCC 12 warns (-Wrestrict, a false positive)
/// on a literal + std::to_string temporary.
std::string param_name(std::size_t i) {
    std::string name("p");
    name += std::to_string(i);
    return name;
}

std::string record_line(Slot slot, const std::string& token, std::size_t i) {
    const std::string e = "E\tk\tCUDA kernel\t";
    switch (slot) {
        case Slot::Start: return e + token + "\t0\t1\t0";
        case Slot::Duration: return e + "0\t" + token + "\t1\t0";
        case Slot::Visits: return e + "0\t0\t" + token + "\t0";
        case Slot::Bytes: return e + "0\t0\t1\t" + token;
        case Slot::Param: return "P\t" + param_name(i) + "\t" + token;
    }
    return "";
}

/// Parses every token in `slot` with one tolerant read_edp over one line per
/// token: an accepted line yields its value, a rejected one the warning the
/// reader logged at its line (the ParseError text a strict read throws).
std::vector<std::string> reader_outcomes(Slot slot,
                                         const std::vector<std::string>& tokens) {
    // Header on line 1, RANK on line 2, token i on line 3 + i.
    std::string text = "EDP\t1\nRANK\t0\n";
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        text += record_line(slot, tokens[i], i) + "\n";
    }
    text += "END\n";
    std::istringstream is(text);
    profiling::EdpReadOptions options;
    options.max_diagnostics = tokens.size() + 1;
    const profiling::EdpReadResult result = profiling::read_edp(is, options);
    EXPECT_TRUE(result.ok());

    std::map<long long, std::string> errors;
    for (const auto& d : result.diagnostics.entries()) {
        errors[d.line] = "error " + d.reason;
    }
    const std::vector<extradeep::trace::TraceEvent> none;
    const auto& events =
        result.run.ranks.empty() ? none : result.run.ranks[0].events;
    std::size_t next_event = 0;
    std::vector<std::string> out;
    out.reserve(tokens.size());
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const auto err = errors.find(static_cast<long long>(i) + 3);
        if (err != errors.end()) {
            out.push_back(err->second);
            continue;
        }
        if (slot == Slot::Param) {
            const auto it = result.run.params.find(param_name(i));
            out.push_back(it == result.run.params.end()
                              ? "missing"
                              : bits_outcome(it->second));
            continue;
        }
        if (next_event >= events.size()) {
            out.push_back("missing");
            continue;
        }
        const auto& ev = events[next_event++];
        switch (slot) {
            case Slot::Start: out.push_back(bits_outcome(ev.start)); break;
            case Slot::Duration:
                out.push_back(bits_outcome(ev.duration));
                break;
            case Slot::Visits: out.push_back(int_outcome(ev.visits)); break;
            default: out.push_back(bits_outcome(ev.bytes)); break;
        }
    }
    EXPECT_EQ(next_event, events.size());
    return out;
}

std::string printf_token(const char* format, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, format, v);
    return buf;
}

std::vector<std::string> edge_tokens() {
    std::vector<std::string> tokens;
    for (const std::string& junk : extradeep::edpfuzz::corrupt_number_tokens()) {
        tokens.push_back(junk);
        tokens.push_back(" " + junk);
        tokens.push_back(junk + " ");
        tokens.push_back("+" + junk);
        tokens.push_back("\r" + junk);
        tokens.push_back(junk + "\r");
    }
    const char* fixed[] = {
        // Hex floats (strtod grammar only).
        "0x1p3", "0x1.8p+1", "-0x1.91eb8p+1", "0x1p-1074", "0X1P3", "0x.8p1",
        "0x1p", "0xg",
        // Subnormals, DBL_MIN and its neighbours, underflow to zero.
        "4.9e-324", "2.2250738585072009e-308", "1e-310", "-1e-310",
        "2.2250738585072011e-308", "2.2250738585072012e-308",
        "2.2250738585072013e-308", "2.2250738585072014e-308",
        "-2.2250738585072014e-308", "2.2250738585072019e-308", "1e-400",
        "-1e-400", "0e-999",
        // DBL_MAX and overflow.
        "1.7976931348623157e308", "1.7976931348623158e308",
        "1.7976931348623159e308", "1.8e308", "-1.8e308",
        // Zeros and fragments.
        "0", "-0", "+0", "0.0", "-0.0", "0e0", ".0", "0.", ".", "-", "e5",
        "1e", "1e+", "1.5e-3", "00012", "1.0",
        // Integer limits and one step past them.
        "9223372036854775807", "-9223372036854775808", "9223372036854775808",
        "-9223372036854775809"};
    for (const char* t : fixed) tokens.push_back(t);
    const double limits[] = {DBL_MAX, -DBL_MAX, DBL_MIN, 0.0, -0.0};
    for (double v : limits) {
        tokens.push_back(printf_token("%.17g", v));
        tokens.push_back(fmt::shortest(v));
        tokens.push_back(printf_token("%a", v));
    }
    return tokens;
}

std::vector<std::string> random_tokens(std::size_t patterns) {
    std::mt19937_64 rng(20231112);
    std::vector<std::string> tokens;
    tokens.reserve(2 * patterns);
    for (std::size_t i = 0; i < patterns; ++i) {
        const std::uint64_t bits = rng();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        tokens.push_back(printf_token("%.17g", v));
        tokens.push_back(fmt::shortest(v));
    }
    return tokens;
}

void expect_matches_reference(const std::vector<std::string>& tokens) {
    for (Slot slot : {Slot::Start, Slot::Duration, Slot::Visits, Slot::Bytes,
                      Slot::Param}) {
        const std::vector<std::string> actual = reader_outcomes(slot, tokens);
        ASSERT_EQ(actual.size(), tokens.size());
        int mismatches = 0;
        for (std::size_t i = 0; i < tokens.size(); ++i) {
            const std::string expected = reference_outcome(slot, tokens[i]);
            if (actual[i] != expected && ++mismatches <= 10) {
                ADD_FAILURE() << "slot " << static_cast<int>(slot)
                              << ", token '" << tokens[i] << "': reader "
                              << actual[i] << ", reference " << expected;
            }
        }
        EXPECT_EQ(mismatches, 0) << "slot " << static_cast<int>(slot);
    }
}

}  // namespace

TEST(EdpNumbers, FastPathMatchesStodReference) {
    expect_matches_reference(edge_tokens());
    expect_matches_reference(random_tokens(100000));
}
