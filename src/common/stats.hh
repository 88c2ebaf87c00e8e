/**
 * @file
 * Lightweight statistics package.
 *
 * Simulator components expose named statistics through a StatGroup so that
 * experiment harnesses and tests can read them generically, and a full dump
 * can be produced at the end of a run.
 */

#ifndef P5SIM_COMMON_STATS_HH
#define P5SIM_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace p5 {

/** A monotonically increasing event counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

    /** Overwrite the count (checkpoint restore only). */
    void restore(std::uint64_t v) { value_ = v; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * A named collection of scalar statistics.
 *
 * Components register counters (by pointer) or derived values (by callback)
 * under dotted names; value() and dump() read them on demand.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Register a counter under @p stat_name. Pointer must outlive group. */
    void registerCounter(const std::string &stat_name, const Counter *c);

    /** Register a derived (computed on read) statistic. */
    void registerDerived(const std::string &stat_name,
                         double (*fn)(const void *), const void *ctx);

    /**
     * Register a per-quantum time-series under @p series_name. Series
     * live in their own namespace: they are emitted by dumpJson()
     * (after the scalars, as JSON arrays) but deliberately do not
     * appear in names()/value()/dump(), so the *scalar* stat set — the
     * identity that the fast-forward and perf-gate machinery compares —
     * is unchanged by attaching a sampler. Pointer must outlive group.
     */
    void registerSeries(const std::string &series_name,
                        const std::vector<double> *v);

    /** True iff @p stat_name is registered. */
    bool has(const std::string &stat_name) const;

    /** True iff a series named @p series_name is registered. */
    bool hasSeries(const std::string &series_name) const;

    /** All registered series names, sorted. */
    std::vector<std::string> seriesNames() const;

    /** Read a series by name; fatal() if unknown. */
    const std::vector<double> &series(const std::string &series_name) const;

    /** Read a statistic by name; fatal() if unknown. */
    double value(const std::string &stat_name) const;

    /** All registered statistic names, sorted. */
    std::vector<std::string> names() const;

    /** Write "group.stat value" lines to @p os. */
    void dump(std::ostream &os) const;

    /**
     * Emit one JSON object member per statistic (sorted by name) at
     * @p w's current position. Counters that hold integral values are
     * written as JSON integers, derived values as doubles.
     */
    void dumpJson(class JsonWriter &w) const;

    const std::string &name() const { return name_; }

  private:
    struct Entry
    {
        const Counter *counter = nullptr;
        double (*fn)(const void *) = nullptr;
        const void *ctx = nullptr;
    };

    std::string name_;
    std::map<std::string, Entry> entries_;
    std::map<std::string, const std::vector<double> *> series_;
};

} // namespace p5

#endif // P5SIM_COMMON_STATS_HH
