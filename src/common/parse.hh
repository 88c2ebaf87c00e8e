/**
 * @file
 * Strict textual number parsing shared by every user-input surface.
 *
 * The CLI layer, the config tree and the store/serve query parsers all
 * accept numbers typed by a user (or replayed from a sweep script).
 * Each used to call strtoll/strtod with slightly different checking, so
 * "8x" or an out-of-range literal could slip through one surface and be
 * rejected by another. These helpers centralize the policy:
 *
 *  - the whole token must parse (trailing garbage is an error);
 *  - empty strings are an error, reported distinctly;
 *  - out-of-range values (ERANGE) are an error, never silently
 *    saturated — a sweep point that saturates would be cached and
 *    served under a fingerprint describing a different configuration;
 *  - unsigned parses reject a minus sign anywhere (strtoull wraps
 *    negative input).
 *
 * Callers that treat failure as a user error combine the returned
 * status with parseStatusName() in their fatal() message.
 *
 * The same surfaces share the boolean spelling table (parseBool) and
 * the list split (splitList) for comma-separated values.
 */

#ifndef P5SIM_COMMON_PARSE_HH
#define P5SIM_COMMON_PARSE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace p5 {

/** Why a textual number failed to parse (Ok when it did not). */
enum class ParseStatus
{
    Ok,
    Empty,      ///< empty (or all-whitespace) input
    Invalid,    ///< not a number, or trailing garbage after one
    OutOfRange, ///< parses but overflows the target type
};

/** Human-readable reason for an error status ("" for Ok). */
const char *parseStatusName(ParseStatus status);

/**
 * Parse @p text as a signed 64-bit integer (base auto-detected like
 * strtoll: 0x hex, leading-0 octal). @p out is written only on Ok.
 */
ParseStatus parseInt64(const std::string &text, std::int64_t &out);

/** Parse @p text as an unsigned 64-bit integer; rejects any '-'. */
ParseStatus parseUint64(const std::string &text, std::uint64_t &out);

/**
 * Parse @p text as a double. Overflow (ERANGE to ±HUGE_VAL) is an
 * error; gradual underflow to a subnormal or zero is accepted.
 */
ParseStatus parseFloat64(const std::string &text, double &out);

/**
 * Parse @p text as a boolean: "true", "1", "yes", "on" or "false",
 * "0", "no", "off". Returns false (leaving @p out alone) otherwise.
 */
bool parseBool(const std::string &text, bool &out);

/**
 * Split @p text at every @p sep. Empty pieces are kept, so n
 * separators always give n + 1 pieces and "" gives one empty piece.
 */
std::vector<std::string> splitList(const std::string &text,
                                   char sep = ',');

} // namespace p5

#endif // P5SIM_COMMON_PARSE_HH
