/**
 * @file
 * Minimal JSON reading/writing for the observability artifacts.
 *
 * Scope is deliberately small: enough to round-trip RunManifest files
 * and to validate the Chrome-trace / JSONL outputs in tests. Numbers
 * keep their source text so 64-bit counters parse exactly (a double
 * would silently lose precision past 2^53).
 */

#ifndef SMQ_OBS_JSON_HPP
#define SMQ_OBS_JSON_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace smq::obs {

/** One parsed JSON value (tree-owning, order-preserving objects). */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    std::string text; ///< string payload, or the literal of a number
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return kind == Kind::Null; }

    /** Object member by key, or nullptr when absent / not an object. */
    const JsonValue *find(std::string_view key) const;

    /** @throws std::runtime_error when absent — for required fields. */
    const JsonValue &at(std::string_view key) const;

    /** @throws std::runtime_error on kind mismatch. */
    bool asBool() const;
    double asDouble() const;
    /** Decimal digits only, within range ("-5", "1.5", "1e3" throw). */
    std::uint64_t asU64() const;
    const std::string &asString() const;
};

/**
 * Parse one JSON document. @throws std::runtime_error with a byte
 * offset on malformed input or trailing garbage.
 */
JsonValue parseJson(std::string_view source);

/** Escape @p raw for inclusion inside a JSON string literal. */
std::string escapeJson(std::string_view raw);

/**
 * Write @p value as a JSON number with 17 significant digits, so a
 * double reads back bit-exactly. Bare "inf"/"nan" would be invalid
 * JSON (and the parser keeps number literals as text), so they are
 * written as 0.
 */
void writeJsonNumber(std::ostream &out, double value);

} // namespace smq::obs

#endif // SMQ_OBS_JSON_HPP
