/**
 * @file
 * Logging and error-reporting helpers in the gem5 style.
 *
 * panic()  — internal simulator bug; aborts.
 * fatal()  — user/configuration error; throws p5::Error.
 * warn()   — suspicious but non-fatal condition.
 * inform() — status message.
 *
 * All of them accept printf-style formatting.
 */

#ifndef P5SIM_COMMON_LOG_HH
#define P5SIM_COMMON_LOG_HH

#include <cstdarg>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace p5 {

/**
 * What fatal() throws: a user or input error, carrying the message and
 * printing nothing. driverMain turns it into "fatal: <msg>" and exit
 * code 1; callers that recover (serve, store lookups, trace check, the
 * job runner and the checkpoint manager) catch it. DESIGN "Errors".
 */
class Error : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Verbosity control: messages below this level are suppressed. */
enum class LogLevel { Silent = 0, Fatal = 1, Warn = 2, Inform = 3 };

/** Set the global log verbosity. Returns the previous level. */
LogLevel setLogLevel(LogLevel level);

/** Current global log verbosity. */
LogLevel logLevel();

/** Report an internal simulator bug and abort. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a user or input error: throw p5::Error with the message. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a suspicious condition; execution continues. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report an informational status message. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Number of warn() calls since process start (used by tests). */
std::uint64_t warnCount();

/**
 * Report a p5check invariant violation; logged at Warn verbosity with a
 * distinct prefix and counted separately so harnesses can assert that a
 * run was violation-free (see checkFailCount()).
 */
void checkfail(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Number of checkfail() calls since process start. */
std::uint64_t checkFailCount();

namespace detail {
/** Shared formatting helper for the log front-ends. */
std::string vformat(const char *fmt, va_list ap);
} // namespace detail

} // namespace p5

#endif // P5SIM_COMMON_LOG_HH
