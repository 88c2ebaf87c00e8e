#include "common/cli.hh"

#include <cstdio>
#include <string_view>

#include "common/log.hh"
#include "common/parse.hh"

namespace p5 {

void
Cli::declare(const std::string &name, const std::string &default_value,
             const std::string &help)
{
    if (flags_.count(name))
        panic("CLI flag '--%s' declared twice", name.c_str());
    Flag f;
    f.value = default_value;
    f.help = help;
    flags_[name] = f;
    order_.push_back(name);
}

void
Cli::declareMulti(const std::string &name, const std::string &help)
{
    if (flags_.count(name))
        panic("CLI flag '--%s' declared twice", name.c_str());
    Flag f;
    f.help = help;
    f.multi = true;
    flags_[name] = f;
    order_.push_back(name);
}

void
Cli::parse(int argc, const char *const *argv)
{
    const auto isFlag = [](std::string_view arg) {
        return arg.substr(0, 2) == "--";
    };
    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        if (!isFlag(arg))
            fatal("unexpected positional argument '%s'", argv[i]);
        arg.remove_prefix(2);

        if (arg == "help") {
            if (!exitOnHelp_) {
                helpRequested_ = true;
                continue;
            }
            std::fputs(usage(argv[0]).c_str(), stdout);
            std::exit(0);
        }

        // "--name=value" splits at the first '='; the value may hold
        // more of them ("--set=a=1") or be empty ("--name=").
        const std::size_t eq = arg.find('=');
        const bool have_value = eq != std::string_view::npos;
        const std::string name(arg.substr(0, eq));
        std::string value;
        if (have_value)
            value = arg.substr(eq + 1);

        auto it = flags_.find(name);
        if (it == flags_.end())
            fatal("unknown flag '--%s' (try --help)", name.c_str());

        bool implied = false;
        if (!have_value) {
            // "--flag value" if the next token is not a flag, else boolean.
            if (i + 1 < argc && !isFlag(argv[i + 1])) {
                value = argv[++i];
            } else {
                value = "true";
                implied = true;
            }
        }
        Flag &f = it->second;
        if (f.multi) {
            f.values.push_back(value);
            f.implied = f.implied || implied;
        } else {
            f.value = value;
            f.implied = implied;
        }
        f.set = true;
    }
}

const Cli::Flag &
Cli::find(const std::string &name) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        panic("CLI flag '--%s' read but never declared", name.c_str());
    return it->second;
}

const Cli::Flag &
Cli::findValued(const std::string &name) const
{
    const Flag &f = find(name);
    if (f.implied)
        fatal("flag '--%s' needs a value", name.c_str());
    return f;
}

std::string
Cli::str(const std::string &name) const
{
    if (find(name).multi)
        panic("CLI flag '--%s' is repeatable; use list()", name.c_str());
    return findValued(name).value;
}

std::int64_t
Cli::integer(const std::string &name) const
{
    const std::string &v = findValued(name).value;
    std::int64_t out = 0;
    const ParseStatus status = parseInt64(v, out);
    if (status != ParseStatus::Ok)
        fatal("flag '--%s' expects an integer, got '%s' (%s)",
              name.c_str(), v.c_str(), parseStatusName(status));
    return out;
}

double
Cli::real(const std::string &name) const
{
    const std::string &v = findValued(name).value;
    double out = 0.0;
    const ParseStatus status = parseFloat64(v, out);
    if (status != ParseStatus::Ok)
        fatal("flag '--%s' expects a number, got '%s' (%s)",
              name.c_str(), v.c_str(), parseStatusName(status));
    return out;
}

bool
Cli::boolean(const std::string &name) const
{
    const std::string &v = find(name).value;
    bool out = false;
    if (parseBool(v, out))
        return out;
    fatal("flag '--%s' expects a boolean, got '%s'", name.c_str(),
          v.c_str());
}

bool
Cli::isSet(const std::string &name) const
{
    return find(name).set;
}

const std::vector<std::string> &
Cli::list(const std::string &name) const
{
    if (!find(name).multi)
        panic("CLI flag '--%s' is not repeatable", name.c_str());
    return findValued(name).values;
}

std::string
Cli::usage(const std::string &prog) const
{
    std::string out = "usage: " + prog + " [flags]\n";
    for (const auto &name : order_) {
        const Flag &f = flags_.at(name);
        if (f.multi)
            out += "  --" + name + " (repeatable)  " + f.help + "\n";
        else
            out += "  --" + name + " (default: " + f.value + ")  " +
                   f.help + "\n";
    }
    return out;
}

} // namespace p5
