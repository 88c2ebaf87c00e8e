/**
 * @file
 * Minimal command-line flag parser for the p5sim driver, bench and
 * example binaries.
 *
 * Supports flags of the form "--name=value", "--name value" and boolean
 * "--name", plus repeatable flags (declareMulti) that accumulate every
 * occurrence in order — the driver's "--set key=value" and
 * "--sweep key=v1,v2" use those. Unknown flags are fatal so that typos
 * in experiment sweeps do not silently run the wrong configuration.
 */

#ifndef P5SIM_COMMON_CLI_HH
#define P5SIM_COMMON_CLI_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace p5 {

/** Parsed command line with typed accessors and defaults. */
class Cli
{
  public:
    /**
     * Declare a flag before parse().
     *
     * @param name flag name without leading dashes.
     * @param default_value textual default.
     * @param help one-line description for usage().
     */
    void declare(const std::string &name, const std::string &default_value,
                 const std::string &help);

    /**
     * Declare a repeatable flag: every "--name=value" occurrence is
     * appended to the list returned by list(). A repeatable flag has no
     * default and no scalar accessors.
     */
    void declareMulti(const std::string &name, const std::string &help);

    /**
     * Parse argv; fatal() on unknown flags. "--help" prints usage and
     * exits unless setExitOnHelp(false) was called, in which case
     * helpRequested() reports it and parsing continues.
     */
    void parse(int argc, const char *const *argv);

    /** In-process help handling for the driver (and its tests). */
    void setExitOnHelp(bool exit_on_help) { exitOnHelp_ = exit_on_help; }
    bool helpRequested() const { return helpRequested_; }

    /**
     * Typed accessors. A valued flag given bare ("--json" at the end
     * of the line or before another flag) carries no value: str(),
     * integer(), real() and list() fatal() on it, boolean() reads it
     * as true.
     */
    std::string str(const std::string &name) const;
    std::int64_t integer(const std::string &name) const;
    double real(const std::string &name) const;
    bool boolean(const std::string &name) const;

    /** True iff the flag was declared. */
    bool declared(const std::string &name) const
    {
        return flags_.count(name) != 0;
    }

    /** True iff the flag was explicitly set on the command line. */
    bool isSet(const std::string &name) const;

    /** All values of a repeatable flag, in command-line order. */
    const std::vector<std::string> &list(const std::string &name) const;

    /** Render usage text. */
    std::string usage(const std::string &prog) const;

  private:
    struct Flag
    {
        std::string value;
        std::string help;
        bool set = false;
        bool multi = false;
        bool implied = false; ///< a bare occurrence set "true"
        std::vector<std::string> values;
    };

    const Flag &find(const std::string &name) const;

    /** find(), refusing a flag whose value was only implied. */
    const Flag &findValued(const std::string &name) const;

    std::map<std::string, Flag> flags_;
    std::vector<std::string> order_;
    bool exitOnHelp_ = true;
    bool helpRequested_ = false;
};

} // namespace p5

#endif // P5SIM_COMMON_CLI_HH
