#include "util/cli.hpp"

#include <algorithm>
#include <utility>

namespace smq::util {

Flags &
Flags::addFlag(std::string name, bool takesValue,
               std::function<bool(const std::string &)> store)
{
    flags_.push_back({std::move(name), takesValue, std::move(store)});
    return *this;
}

Flags &
Flags::add(std::string name, bool &target, bool value)
{
    return addFlag(std::move(name), false,
                   [&target, value](const std::string &) {
                       target = value;
                       return true;
                   });
}

Flags &
Flags::add(std::string name, std::string &target)
{
    return addFlag(std::move(name), true, [&target](const std::string &v) {
        target = v;
        return true;
    });
}

Flags &
Flags::add(std::string name, std::uint64_t &target)
{
    return addFlag(std::move(name), true, [&target](const std::string &v) {
        const std::optional<std::uint64_t> n = parseUnsigned(v);
        if (n)
            target = *n;
        return n.has_value();
    });
}

Flags &
Flags::add(std::string name, double &target)
{
    return addFlag(std::move(name), true, [&target](const std::string &v) {
        const std::optional<double> x = parseReal(v);
        if (x)
            target = *x;
        return x.has_value();
    });
}

Flags &
Flags::add(std::string name, std::vector<std::string> &target)
{
    return addFlag(std::move(name), true, [&target](const std::string &v) {
        target.push_back(v);
        return true;
    });
}

std::string
Flags::parse(const std::vector<std::string> &args,
             std::vector<std::string> *positionals) const
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg.rfind("--", 0) != 0) {
            if (positionals == nullptr)
                return "unexpected argument " + arg;
            positionals->push_back(arg);
            continue;
        }
        const auto flag =
            std::find_if(flags_.begin(), flags_.end(),
                         [&](const Flag &f) { return f.name == arg; });
        if (flag == flags_.end())
            return "unknown flag " + arg;
        if (!flag->takesValue) {
            flag->store(arg);
            continue;
        }
        if (i + 1 == args.size())
            return arg + " needs a value";
        const std::string &value = args[++i];
        if (!flag->store(value))
            return "bad " + arg + " value '" + value + "'";
    }
    return "";
}

} // namespace smq::util
