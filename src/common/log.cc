#include "common/log.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace p5 {

namespace {

std::atomic<LogLevel> g_level{LogLevel::Warn};
std::atomic<std::uint64_t> g_warn_count{0};
std::atomic<std::uint64_t> g_checkfail_count{0};

void
emit(const char *prefix, const char *fmt, va_list ap)
{
    std::string body = detail::vformat(fmt, ap);
    std::fprintf(stderr, "%s: %s\n", prefix, body.c_str());
}

} // namespace

namespace detail {

std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap_copy;
    va_copy(ap_copy, ap);
    int needed = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (needed < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<std::size_t>(needed));
}

} // namespace detail

LogLevel
setLogLevel(LogLevel level)
{
    return g_level.exchange(level);
}

LogLevel
logLevel()
{
    return g_level.load();
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string message = detail::vformat(fmt, ap);
    va_end(ap);
    throw Error(message);
}

void
warn(const char *fmt, ...)
{
    g_warn_count.fetch_add(1);
    if (logLevel() < LogLevel::Warn)
        return;
    va_list ap;
    va_start(ap, fmt);
    emit("warn", fmt, ap);
    va_end(ap);
}

void
inform(const char *fmt, ...)
{
    if (logLevel() < LogLevel::Inform)
        return;
    va_list ap;
    va_start(ap, fmt);
    emit("info", fmt, ap);
    va_end(ap);
}

std::uint64_t
warnCount()
{
    return g_warn_count.load();
}

void
checkfail(const char *fmt, ...)
{
    g_checkfail_count.fetch_add(1);
    if (logLevel() < LogLevel::Warn)
        return;
    va_list ap;
    va_start(ap, fmt);
    emit("p5check", fmt, ap);
    va_end(ap);
}

std::uint64_t
checkFailCount()
{
    return g_checkfail_count.load();
}

} // namespace p5
