#include "common/parse.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace p5 {

namespace {

bool
allWhitespace(const std::string &text)
{
    for (char c : text)
        if (!std::isspace(static_cast<unsigned char>(c)))
            return false;
    return true;
}

} // namespace

const char *
parseStatusName(ParseStatus status)
{
    switch (status) {
      case ParseStatus::Ok:
        return "";
      case ParseStatus::Empty:
        return "empty value";
      case ParseStatus::Invalid:
        return "not a number (or trailing garbage)";
      case ParseStatus::OutOfRange:
        return "out of range";
    }
    return "?";
}

ParseStatus
parseInt64(const std::string &text, std::int64_t &out)
{
    if (text.empty() || allWhitespace(text))
        return ParseStatus::Empty;
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 0);
    if (end == text.c_str() || *end != '\0')
        return ParseStatus::Invalid;
    if (errno == ERANGE)
        return ParseStatus::OutOfRange;
    out = v;
    return ParseStatus::Ok;
}

ParseStatus
parseUint64(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || allWhitespace(text))
        return ParseStatus::Empty;
    // strtoull accepts "-1" and wraps; an unsigned field must not.
    if (text.find('-') != std::string::npos)
        return ParseStatus::Invalid;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    if (end == text.c_str() || *end != '\0')
        return ParseStatus::Invalid;
    if (errno == ERANGE)
        return ParseStatus::OutOfRange;
    out = v;
    return ParseStatus::Ok;
}

ParseStatus
parseFloat64(const std::string &text, double &out)
{
    if (text.empty() || allWhitespace(text))
        return ParseStatus::Empty;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        return ParseStatus::Invalid;
    // ERANGE covers both overflow (±HUGE_VAL) and gradual underflow
    // (a subnormal or zero); only overflow loses the value.
    if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL))
        return ParseStatus::OutOfRange;
    out = v;
    return ParseStatus::Ok;
}

bool
parseBool(const std::string &text, bool &out)
{
    if (text == "true" || text == "1" || text == "yes" || text == "on")
        out = true;
    else if (text == "false" || text == "0" || text == "no" ||
             text == "off")
        out = false;
    else
        return false;
    return true;
}

std::vector<std::string>
splitList(const std::string &text, char sep)
{
    std::vector<std::string> out(1);
    for (char c : text) {
        if (c == sep)
            out.emplace_back();
        else
            out.back() += c;
    }
    return out;
}

} // namespace p5
