#include "common/format.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace extradeep::fmt {

std::string fixed(double value, int decimals) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

std::string percent(double value, int decimals) {
    return fixed(value, decimals) + "%";
}

std::string seconds(double secs) {
    const double a = std::abs(secs);
    char buf[64];
    if (a < 1e-3) {
        std::snprintf(buf, sizeof(buf), "%.3g us", secs * 1e6);
    } else if (a < 1.0) {
        std::snprintf(buf, sizeof(buf), "%.3g ms", secs * 1e3);
    } else if (a < 120.0) {
        std::snprintf(buf, sizeof(buf), "%.3g s", secs);
    } else if (a < 7200.0) {
        std::snprintf(buf, sizeof(buf), "%.3g min", secs / 60.0);
    } else {
        std::snprintf(buf, sizeof(buf), "%.3g h", secs / 3600.0);
    }
    return buf;
}

std::string bytes(double n) {
    char buf[64];
    const double a = std::abs(n);
    if (a < 1024.0) {
        std::snprintf(buf, sizeof(buf), "%.0f B", n);
    } else if (a < 1024.0 * 1024.0) {
        std::snprintf(buf, sizeof(buf), "%.2f KiB", n / 1024.0);
    } else if (a < 1024.0 * 1024.0 * 1024.0) {
        std::snprintf(buf, sizeof(buf), "%.2f MiB", n / (1024.0 * 1024.0));
    } else {
        std::snprintf(buf, sizeof(buf), "%.2f GiB", n / (1024.0 * 1024.0 * 1024.0));
    }
    return buf;
}

std::string count(std::int64_t n) {
    const bool neg = n < 0;
    std::string digits = std::to_string(neg ? -n : n);
    std::string out;
    int seen = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (seen && seen % 3 == 0) {
            out.push_back(',');
        }
        out.push_back(*it);
        ++seen;
    }
    if (neg) out.push_back('-');
    return std::string(out.rbegin(), out.rend());
}

std::string shortest(double value) {
    if (std::isnan(value)) return "nan";
    if (std::isinf(value)) return value > 0.0 ? "inf" : "-inf";
    char buf[64];
    // std::to_chars emits the shortest round-trip significand, so no
    // precision below its digit count can round-trip and the search starts
    // there. It still renders with %.*g and checks with strtod: %.*g rounds
    // correctly rather than picking the closest round-tripping digits, so
    // the first precision that parses back to the identical bit pattern may
    // be one more; 17 (max_digits10) always succeeds.
    const std::to_chars_result sci = std::to_chars(
        buf, buf + sizeof(buf), value, std::chars_format::scientific);
    int first = 0;
    for (const char* c = buf; c != sci.ptr && *c != 'e'; ++c) {
        first += *c >= '0' && *c <= '9' ? 1 : 0;
    }
    for (int digits = first; digits <= 17; ++digits) {
        std::snprintf(buf, sizeof(buf), "%.*g", digits, value);
        char* end = nullptr;
        const double back = std::strtod(buf, &end);
        if (end != nullptr && *end == '\0' && back == value &&
            std::signbit(back) == std::signbit(value)) {
            return buf;
        }
    }
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string hexfloat(double value) {
    if (std::isnan(value)) return "nan";
    if (std::isinf(value)) return value > 0.0 ? "inf" : "-inf";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", value);
    return buf;
}

bool parse_double(std::string_view text, double& out) {
    if (text.empty()) return false;
    // strtod needs NUL termination; inputs here are short numeric tokens.
    const std::string token(text);
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return false;
    if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL)) return false;
    out = v;
    return true;
}

std::string coeff(double value) {
    const double a = std::abs(value);
    char buf[64];
    if (value == 0.0) {
        return "0";
    }
    if (a >= 1e-3 && a < 1e5) {
        std::snprintf(buf, sizeof(buf), "%.4g", value);
    } else {
        std::snprintf(buf, sizeof(buf), "%.3e", value);
    }
    return buf;
}

}  // namespace extradeep::fmt
