#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <vector>

#include "common/error.hpp"
#include "common/format.hpp"
#include "common/table.hpp"

using extradeep::InvalidArgumentError;
using extradeep::Table;
namespace fmt = extradeep::fmt;

TEST(Table, RendersHeaderAndRows) {
    Table t({"name", "value"});
    t.add_row({"alpha", "1.5"});
    t.add_row({"beta", "22.0"});
    const std::string s = t.to_string();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("22.0"), std::string::npos);
    EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, NumericColumnsRightAligned) {
    Table t({"k", "v"});
    t.add_row({"a", "1"});
    t.add_row({"b", "100"});
    const std::string s = t.to_string();
    // "  1" must be padded to the width of "100".
    EXPECT_NE(s.find("|   1 |"), std::string::npos);
}

TEST(Table, ThrowsOnWrongCellCount) {
    Table t({"a", "b"});
    EXPECT_THROW(t.add_row({"only one"}), InvalidArgumentError);
}

TEST(Table, ThrowsOnNoHeaders) {
    EXPECT_THROW(Table({}), InvalidArgumentError);
}

TEST(Format, Fixed) {
    EXPECT_EQ(fmt::fixed(3.14159, 2), "3.14");
    EXPECT_EQ(fmt::fixed(-1.0, 0), "-1");
}

TEST(Format, Percent) {
    EXPECT_EQ(fmt::percent(12.34), "12.3%");
    EXPECT_EQ(fmt::percent(5.0, 0), "5%");
}

TEST(Format, SecondsAdaptiveUnits) {
    EXPECT_EQ(fmt::seconds(1.23e-6), "1.23 us");
    EXPECT_EQ(fmt::seconds(0.00123), "1.23 ms");
    EXPECT_EQ(fmt::seconds(12.3), "12.3 s");
    EXPECT_EQ(fmt::seconds(600.0), "10 min");
    EXPECT_EQ(fmt::seconds(7200.0), "2 h");
}

TEST(Format, BytesAdaptiveUnits) {
    EXPECT_EQ(fmt::bytes(512), "512 B");
    EXPECT_EQ(fmt::bytes(2048), "2.00 KiB");
    EXPECT_EQ(fmt::bytes(3.5 * 1024 * 1024), "3.50 MiB");
    EXPECT_EQ(fmt::bytes(2.0 * 1024 * 1024 * 1024), "2.00 GiB");
}

TEST(Format, CountThousandsSeparators) {
    EXPECT_EQ(fmt::count(0), "0");
    EXPECT_EQ(fmt::count(999), "999");
    EXPECT_EQ(fmt::count(1000), "1,000");
    EXPECT_EQ(fmt::count(1234567), "1,234,567");
    EXPECT_EQ(fmt::count(-42000), "-42,000");
}

TEST(Format, Coeff) {
    EXPECT_EQ(fmt::coeff(0.0), "0");
    EXPECT_EQ(fmt::coeff(1.5), "1.5");
    // Tiny magnitudes switch to scientific notation.
    EXPECT_NE(fmt::coeff(1e-7).find("e-"), std::string::npos);
    EXPECT_NE(fmt::coeff(1e9).find("e+"), std::string::npos);
}

TEST(Format, ShortestRoundTripsEveryBit) {
    const double cases[] = {0.0,
                            -0.0,
                            0.1,
                            0.1 + 0.2,
                            1.0 / 3.0,
                            std::nextafter(1.0, 2.0),
                            3.141592653589793,
                            -6.02214076e23,
                            2.2250738585072014e-308,
                            1.7976931348623157e308};
    for (const double v : cases) {
        const std::string s = fmt::shortest(v);
        double back = 0.0;
        ASSERT_TRUE(fmt::parse_double(s, back)) << s;
        EXPECT_EQ(back, v) << s;
        EXPECT_EQ(std::signbit(back), std::signbit(v)) << s;
    }
    // Shortest means *shortest*: values with a short exact decimal keep it.
    EXPECT_EQ(fmt::shortest(0.1), "0.1");
    EXPECT_EQ(fmt::shortest(2.0), "2");
    EXPECT_EQ(fmt::shortest(0.0), "0");
}

TEST(Format, ShortestNonFinite) {
    EXPECT_EQ(fmt::shortest(std::numeric_limits<double>::quiet_NaN()), "nan");
    EXPECT_EQ(fmt::shortest(std::numeric_limits<double>::infinity()), "inf");
    EXPECT_EQ(fmt::shortest(-std::numeric_limits<double>::infinity()), "-inf");
}

namespace {

/// The unseeded shortest-round-trip search: every precision from 1 up.
/// fmt::shortest must render every double byte for byte like this.
std::string reference_shortest(double value) {
    if (std::isnan(value)) return "nan";
    if (std::isinf(value)) return value > 0.0 ? "inf" : "-inf";
    char buf[64];
    for (int digits = 1; digits <= 17; ++digits) {
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

}  // namespace

TEST(Format, ShortestMatchesUnseededSearch) {
    std::vector<double> cases = {0.0, -0.0, DBL_MAX, -DBL_MAX, DBL_MIN,
                                 DBL_TRUE_MIN, 0.1, 1.0 / 3.0};
    // Every power of two and its neighbours one ulp away, both signs: the
    // round-trip interval is asymmetric exactly there.
    for (int e = -1074; e <= 1023; ++e) {
        const double p = std::ldexp(1.0, e);
        for (const double v : {std::nextafter(p, 0.0), p,
                               std::nextafter(p, DBL_MAX)}) {
            cases.push_back(v);
            cases.push_back(-v);
        }
    }
    std::mt19937_64 rng(20260417);
    // Subnormals: the smallest ones, then random mantissas.
    for (std::uint64_t m = 1; m <= 2000; ++m) {
        cases.push_back(std::bit_cast<double>(m));
    }
    for (int i = 0; i < 10000; ++i) {
        cases.push_back(std::bit_cast<double>(rng() & ((1ULL << 52) - 1)));
    }
    // Random bit patterns over the whole range (NaN and inf included).
    for (int i = 0; i < 100000; ++i) {
        cases.push_back(std::bit_cast<double>(rng()));
    }
    std::size_t mismatches = 0;
    for (const double v : cases) {
        const std::string got = fmt::shortest(v);
        const std::string want = reference_shortest(v);
        if (got != want && ++mismatches <= 10) {
            ADD_FAILURE() << std::hexfloat << v << ": got " << got
                          << ", want " << want;
        }
    }
    EXPECT_EQ(mismatches, 0u) << "of " << cases.size() << " values";
}

TEST(Format, HexfloatRoundTripsEveryBit) {
    const double cases[] = {0.0, -0.0, 0.1 + 0.2, 1.0 / 3.0,
                            std::nextafter(1.0, 2.0), -1.5e-300, 1.5e300};
    for (const double v : cases) {
        const std::string s = fmt::hexfloat(v);
        double back = 0.0;
        ASSERT_TRUE(fmt::parse_double(s, back)) << s;
        EXPECT_EQ(back, v) << s;
        EXPECT_EQ(std::signbit(back), std::signbit(v)) << s;
    }
}

TEST(Format, ParseDoubleRejectsJunk) {
    double v = 0.0;
    EXPECT_FALSE(fmt::parse_double("", v));
    EXPECT_FALSE(fmt::parse_double("12x", v));
    EXPECT_FALSE(fmt::parse_double("1.5 ", v));
    EXPECT_FALSE(fmt::parse_double("1e999", v));  // overflow, not literal inf
    EXPECT_TRUE(fmt::parse_double("inf", v));
    EXPECT_TRUE(std::isinf(v));
    EXPECT_TRUE(fmt::parse_double("nan", v));
    EXPECT_TRUE(std::isnan(v));
    EXPECT_TRUE(fmt::parse_double("0x1.8p+1", v));
    EXPECT_EQ(v, 3.0);
}
