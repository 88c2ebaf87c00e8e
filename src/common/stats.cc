#include "common/stats.hh"

#include <algorithm>

#include "common/json.hh"
#include "common/log.hh"

namespace p5 {

void
StatGroup::registerCounter(const std::string &stat_name, const Counter *c)
{
    if (entries_.count(stat_name))
        panic("stat '%s.%s' registered twice", name_.c_str(),
              stat_name.c_str());
    Entry e;
    e.counter = c;
    entries_[stat_name] = e;
}

void
StatGroup::registerDerived(const std::string &stat_name,
                           double (*fn)(const void *), const void *ctx)
{
    if (entries_.count(stat_name))
        panic("stat '%s.%s' registered twice", name_.c_str(),
              stat_name.c_str());
    Entry e;
    e.fn = fn;
    e.ctx = ctx;
    entries_[stat_name] = e;
}

void
StatGroup::registerSeries(const std::string &series_name,
                          const std::vector<double> *v)
{
    if (series_.count(series_name))
        panic("series '%s.%s' registered twice", name_.c_str(),
              series_name.c_str());
    series_[series_name] = v;
}

bool
StatGroup::has(const std::string &stat_name) const
{
    return entries_.count(stat_name) != 0;
}

bool
StatGroup::hasSeries(const std::string &series_name) const
{
    return series_.count(series_name) != 0;
}

const std::vector<double> &
StatGroup::series(const std::string &series_name) const
{
    auto it = series_.find(series_name);
    if (it == series_.end())
        fatal("unknown series '%s.%s'", name_.c_str(),
              series_name.c_str());
    return *it->second;
}

double
StatGroup::value(const std::string &stat_name) const
{
    auto it = entries_.find(stat_name);
    if (it == entries_.end())
        fatal("unknown stat '%s.%s'", name_.c_str(), stat_name.c_str());
    const Entry &e = it->second;
    if (e.counter)
        return static_cast<double>(e.counter->value());
    return e.fn(e.ctx);
}

std::vector<std::string>
StatGroup::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &kv : entries_)
        out.push_back(kv.first);
    return out;
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &kv : entries_)
        os << name_ << '.' << kv.first << ' ' << value(kv.first) << '\n';
}

void
StatGroup::dumpJson(JsonWriter &w) const
{
    w.beginObject();
    for (const auto &kv : entries_) {
        const Entry &e = kv.second;
        if (e.counter)
            w.member(kv.first, e.counter->value());
        else
            w.member(kv.first, e.fn(e.ctx));
    }
    for (const auto &kv : series_) {
        w.key(kv.first);
        w.beginArray();
        for (double v : *kv.second)
            w.value(v);
        w.endArray();
    }
    w.endObject();
}

} // namespace p5
