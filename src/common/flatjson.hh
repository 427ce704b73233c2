/**
 * @file
 * Strict parsing of one flat JSON object per line.
 *
 * Both JSONL front-ends - serve job files and fleet topology files -
 * share this minimal parser: one `{"key": scalar, ...}` object per
 * line, scalars limited to strings, numbers, and booleans.  Nested
 * objects/arrays and null are rejected on purpose: the records are
 * flat, and rejecting structure we would silently ignore keeps a bad
 * input file loud.
 *
 * The strict scalar validators (integers: digits only, no sign, no
 * trailing junk, no overflow; reals: no trailing junk) live here too,
 * so the CLI and every line-oriented front-end reject "3x" or "-1"
 * the same way.
 */

#ifndef HETSIM_COMMON_FLATJSON_HH
#define HETSIM_COMMON_FLATJSON_HH

#include <map>
#include <optional>
#include <string>
#include <utility>

#include "common/types.hh"

namespace hetsim::json
{

/** One scalar JSON value: a string, a number, or a boolean. */
struct Value
{
    enum class Kind
    {
        String,
        Number,
        Boolean,
    };

    Kind kind = Kind::String;
    std::string text; ///< string contents or raw number token
    double number = 0.0;
    bool boolean = false;
};

/** Key -> scalar map of one parsed flat object. */
using Object = std::map<std::string, Value>;

/**
 * Parse @p line as one flat JSON object.  Duplicate keys, trailing
 * characters, unterminated strings, and non-scalar values are errors.
 * @return nullopt and set @p error on any malformed input.
 */
std::optional<Object> parseFlatObject(const std::string &line,
                                      std::string &error);

/** Strictly parse digits-only text into a u64 (no sign, no junk). */
std::optional<u64> parseU64(const std::string &text);

/** Strictly parse an (optionally negative) integer. */
std::optional<long> parseLong(const std::string &text);

/** Strictly parse a finite number > 0 (strtod syntax, no trailing
 *  junk; inf, nan and values that overflow to inf are rejected). */
std::optional<double> parsePositive(const std::string &text);

/** Strictly parse a fraction in [0, 1] (strtod syntax, no junk,
 *  no nan). */
std::optional<double> parseFraction(const std::string &text);

/** Strictly parse a "core:mem" pair of positive numbers (MHz). */
std::optional<std::pair<double, double>>
parseCoreMem(const std::string &text);

} // namespace hetsim::json

#endif // HETSIM_COMMON_FLATJSON_HH
