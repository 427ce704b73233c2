/**
 * @file
 * Unit tests for the flat JSONL parser's numeric edge cases: model
 * files and observation records round-trip doubles at 17 significant
 * digits, so exponents, signed zero, and overflow handling must be
 * exact and loud.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/flatjson.hh"

namespace hetsim::json
{
namespace
{

double parseNumber(const std::string &token)
{
    std::string error;
    const auto obj = parseFlatObject("{\"x\":" + token + "}", error);
    EXPECT_TRUE(obj.has_value()) << error;
    if (!obj)
        return 0.0;
    const auto it = obj->find("x");
    EXPECT_NE(it, obj->end());
    EXPECT_EQ(it->second.kind, Value::Kind::Number);
    return it->second.number;
}

std::string parseError(const std::string &token)
{
    std::string error;
    const auto obj = parseFlatObject("{\"x\":" + token + "}", error);
    EXPECT_FALSE(obj.has_value()) << "accepted: " << token;
    return error;
}

TEST(FlatJson, ExponentForms)
{
    EXPECT_DOUBLE_EQ(parseNumber("1e3"), 1000.0);
    EXPECT_DOUBLE_EQ(parseNumber("1.5E-3"), 0.0015);
    EXPECT_DOUBLE_EQ(parseNumber("2.5e+2"), 250.0);
    EXPECT_DOUBLE_EQ(parseNumber("9.8813129168249309e-324"),
                     9.8813129168249309e-324); // denormal survives
}

TEST(FlatJson, NegativeZeroKeepsItsSign)
{
    const double z = parseNumber("-0.0");
    EXPECT_EQ(z, 0.0);
    EXPECT_TRUE(std::signbit(z));
}

TEST(FlatJson, SeventeenDigitRoundTrip)
{
    // The precision save() emits: parse must return the same bits.
    EXPECT_EQ(parseNumber("0.30000000000000004"), 0.1 + 0.2);
    EXPECT_EQ(parseNumber("2.2250738585072014e-308"),
              2.2250738585072014e-308);
}

TEST(FlatJson, OverflowIsALoudError)
{
    EXPECT_NE(parseError("1e999").find("number out of range"),
              std::string::npos);
    EXPECT_NE(parseError("-1e999").find("number out of range"),
              std::string::npos);
}

TEST(FlatJson, UnderflowIsAcceptedAsNearestRepresentable)
{
    // ERANGE with a tiny result is not an error: the nearest
    // representable value (possibly zero) is good enough.
    EXPECT_EQ(parseNumber("1e-999"), 0.0);
}

TEST(FlatJson, MalformedNumbersAreRejected)
{
    EXPECT_NE(parseError("1e").find("malformed number"),
              std::string::npos);
    EXPECT_NE(parseError("1.2.3").find("malformed number"),
              std::string::npos);
    // Hex stops the number scanner at 'x'; rejected, message aside.
    EXPECT_FALSE(parseError("0x10").empty());
}

// The strict scalar parsers the CLI, the job loader and the fault spec
// share: the whole text must be the number, and the range is checked.
TEST(FlatJson, StrictRealParsers)
{
    EXPECT_EQ(parsePositive("0.5"), 0.5);
    EXPECT_EQ(parsePositive("2e3"), 2000.0);
    for (const char *bad : {"", "0", "-1", "1x", "x", "1 ", "nan", "inf",
                            "-inf", "infinity", "1e400"})
        EXPECT_FALSE(parsePositive(bad).has_value()) << bad;

    EXPECT_EQ(parseFraction("0"), 0.0);
    EXPECT_EQ(parseFraction("1"), 1.0);
    for (const char *bad : {"", "-0.1", "1.5", "0.5x", "nan", "-nan",
                            "inf", "1e400"})
        EXPECT_FALSE(parseFraction(bad).has_value()) << bad;

    const auto freq = parseCoreMem("925:1500");
    ASSERT_TRUE(freq.has_value());
    EXPECT_EQ(freq->first, 925.0);
    EXPECT_EQ(freq->second, 1500.0);
    for (const char *bad : {"", "925", "925:", ":1500", "0:810",
                            "925:-1", "a:b", "925:1500x", "nan:1500",
                            "925:inf"})
        EXPECT_FALSE(parseCoreMem(bad).has_value()) << bad;
}

} // namespace
} // namespace hetsim::json
