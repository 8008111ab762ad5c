/**
 * @file
 * The one parser for input from outside the program: command-line
 * flags, environment variables, and the numbers read from files and
 * requests.
 *
 * parseUnsigned() and parseReal() read a whole token or nothing: no
 * sign, no surrounding space, no partial parse, no wrap. Each front
 * end declares its flags once in a Flags table, each with the
 * variable it sets; Flags::parse() applies the arguments in order (a
 * later flag wins) and reports the first unknown flag, missing value
 * or malformed number. There is one spelling, `--name VALUE`.
 *
 * The two number parsers are inline so that smq_obs, which links no
 * other smq_* library, reads JSON integers through them too.
 */

#ifndef SMQ_UTIL_CLI_HPP
#define SMQ_UTIL_CLI_HPP

#include <charconv>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace smq::util {

/** Decimal digits only, within std::uint64_t; nullopt otherwise. */
inline std::optional<std::uint64_t>
parseUnsigned(std::string_view text)
{
    // from_chars takes no sign, no space and no base prefix for an
    // unsigned type, and reports overflow instead of wrapping.
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (text.empty() || error != std::errc() || stop != end)
        return std::nullopt;
    return value;
}

/**
 * A finite decimal number without a sign ("3600", "0.35", "1e-3");
 * nullopt for anything else, "nan", "inf" and "1e400" included.
 */
inline std::optional<double>
parseReal(std::string_view text)
{
    double value = 0.0;
    const char *end = text.data() + text.size();
    if (text.empty() || text.front() == '-')
        return std::nullopt;
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc() || stop != end || !std::isfinite(value))
        return std::nullopt;
    return value;
}

/** A front end's flags, each declared once with the variable it sets. */
class Flags
{
  public:
    /** A switch: `--name` sets @p target to @p value. */
    Flags &add(std::string name, bool &target, bool value = true);
    /** `--name VALUE`, kept verbatim. */
    Flags &add(std::string name, std::string &target);
    /** `--name N`, read by parseUnsigned. */
    Flags &add(std::string name, std::uint64_t &target);
    /** `--name X`, read by parseReal. */
    Flags &add(std::string name, double &target);
    /** A repeatable `--name VALUE`: each occurrence is appended. */
    Flags &add(std::string name, std::vector<std::string> &target);

    /**
     * Apply @p args in order. A token that does not start with "--"
     * is a positional, appended to @p positionals (an error when that
     * is null). Returns the first error ("unknown flag --x", "--x
     * needs a value", "bad --x value 'y'"), or "" when all parsed.
     */
    std::string parse(const std::vector<std::string> &args,
                      std::vector<std::string> *positionals =
                          nullptr) const;

  private:
    struct Flag
    {
        std::string name;
        bool takesValue = false;
        /** Stores the value (a switch ignores it); false if malformed. */
        std::function<bool(const std::string &)> store;
    };

    Flags &addFlag(std::string name, bool takesValue,
                   std::function<bool(const std::string &)> store);

    std::vector<Flag> flags_;
};

} // namespace smq::util

#endif // SMQ_UTIL_CLI_HPP
