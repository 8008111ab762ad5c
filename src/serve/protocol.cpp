#include "serve/protocol.hpp"

#include <exception>
#include <sstream>

#include "obs/json.hpp"

namespace smq::serve {

namespace {

ParsedRequest
fail(ErrorCode code, std::string message)
{
    ParsedRequest outcome;
    outcome.error = code;
    outcome.message = std::move(message);
    return outcome;
}

/**
 * Read an optional bounded u64 field into @p target. asU64 takes a
 * plain non-negative integer literal in range only, so "-5", "1.5"
 * and "1e3" are bad_field replies, not huge or truncated shot counts.
 */
bool
takeU64(const obs::JsonValue &object, const char *name,
        std::uint64_t minimum, std::uint64_t maximum,
        std::uint64_t &target, ParsedRequest &error)
{
    const obs::JsonValue *field = object.find(name);
    if (field == nullptr)
        return true;
    std::optional<std::uint64_t> value;
    try {
        value = field->asU64();
    } catch (const std::exception &) {
        // not a whole number: value stays empty
    }
    if (!value || *value < minimum || *value > maximum) {
        std::ostringstream message;
        message << name << " must be an integer in [" << minimum << ", "
                << maximum << "]";
        error = fail(ErrorCode::BadField, message.str());
        return false;
    }
    target = *value;
    return true;
}

/** Read an optional bool field into @p target. */
bool
takeBool(const obs::JsonValue &object, const char *name, bool &target,
         ParsedRequest &error)
{
    const obs::JsonValue *field = object.find(name);
    if (field == nullptr)
        return true;
    if (field->kind != obs::JsonValue::Kind::Bool) {
        error = fail(ErrorCode::BadField,
                     std::string(name) + " must be a boolean");
        return false;
    }
    target = field->boolean;
    return true;
}

/**
 * Read the optional `trace` object: `id` required (32 lowercase hex
 * chars), `parent` optional (16). Absence is fine — the daemon
 * derives a context — but a present-and-malformed context is a
 * bad_field, not something to silently drop: a client that *meant*
 * to correlate spans should learn its ids never matched.
 */
bool
takeTrace(const obs::JsonValue &object, obs::TraceContext &target,
          ParsedRequest &error)
{
    const obs::JsonValue *trace = object.find("trace");
    if (trace == nullptr)
        return true;
    if (trace->kind != obs::JsonValue::Kind::Object) {
        error = fail(ErrorCode::BadField, "trace must be an object");
        return false;
    }
    const obs::JsonValue *id = trace->find("id");
    if (id == nullptr || id->kind != obs::JsonValue::Kind::String) {
        error = fail(ErrorCode::BadField,
                     "trace.id must be a string of 32 hex chars");
        return false;
    }
    std::string parent;
    const obs::JsonValue *parent_field = trace->find("parent");
    if (parent_field != nullptr) {
        if (parent_field->kind != obs::JsonValue::Kind::String) {
            error = fail(ErrorCode::BadField,
                         "trace.parent must be a string of 16 hex chars");
            return false;
        }
        parent = parent_field->text;
    }
    std::optional<obs::TraceContext> context =
        obs::TraceContext::fromHex(id->text, parent);
    if (!context) {
        error = fail(ErrorCode::BadField,
                     "trace.id/parent must be 32/16 lowercase hex chars");
        return false;
    }
    target = *context;
    return true;
}

} // namespace

std::optional<RequestType>
requestTypeFromString(std::string_view text)
{
    for (RequestType type : kAllRequestTypes) {
        if (text == toString(type))
            return type;
    }
    return std::nullopt;
}

ParsedRequest
parseRequest(const std::string &line)
{
    obs::JsonValue root;
    try {
        root = obs::parseJson(line);
    } catch (const std::exception &e) {
        return fail(ErrorCode::BadRequest,
                    std::string("malformed JSON: ") + e.what());
    }
    if (root.kind != obs::JsonValue::Kind::Object)
        return fail(ErrorCode::BadRequest, "request must be a JSON object");

    const obs::JsonValue *type_field = root.find("type");
    if (type_field == nullptr)
        return fail(ErrorCode::BadRequest, "missing required field: type");
    if (type_field->kind != obs::JsonValue::Kind::String)
        return fail(ErrorCode::BadRequest, "type must be a string");
    std::optional<RequestType> type =
        requestTypeFromString(type_field->text);
    if (!type)
        return fail(ErrorCode::UnknownType,
                    "unknown request type: " + type_field->text);

    Request request;
    request.type = *type;

    switch (*type) {
      case RequestType::Status:
      case RequestType::Result:
      case RequestType::Cancel: {
          const obs::JsonValue *id = root.find("id");
          if (id == nullptr)
              return fail(ErrorCode::BadRequest,
                          "missing required field: id");
          if (id->kind != obs::JsonValue::Kind::String || id->text.empty())
              return fail(ErrorCode::BadField,
                          "id must be a non-empty string");
          request.id = id->text;
          break;
      }
      case RequestType::Submit: {
          const obs::JsonValue *benchmark = root.find("benchmark");
          if (benchmark == nullptr)
              return fail(ErrorCode::BadRequest,
                          "missing required field: benchmark");
          if (benchmark->kind != obs::JsonValue::Kind::String ||
              benchmark->text.empty())
              return fail(ErrorCode::BadField,
                          "benchmark must be a non-empty string");
          const obs::JsonValue *device = root.find("device");
          if (device == nullptr)
              return fail(ErrorCode::BadRequest,
                          "missing required field: device");
          if (device->kind != obs::JsonValue::Kind::String ||
              device->text.empty())
              return fail(ErrorCode::BadField,
                          "device must be a non-empty string");
          SubmitSpec &spec = request.submit;
          spec.benchmark = benchmark->text;
          spec.device = device->text;
          ParsedRequest error;
          if (!takeU64(root, "shots", 1, kMaxShots, spec.shots, error) ||
              !takeU64(root, "repetitions", 1, kMaxRepetitions,
                       spec.repetitions, error) ||
              !takeU64(root, "seed", 0, UINT64_MAX, spec.seed, error) ||
              !takeU64(root, "fault_seed", 0, UINT64_MAX, spec.faultSeed,
                       error) ||
              !takeBool(root, "faults", spec.faults, error) ||
              !takeBool(root, "wait", spec.wait, error))
              return error;
          if (!takeTrace(root, spec.trace, error))
              return error;
          break;
      }
      case RequestType::Stats:
      case RequestType::Shutdown:
          break;
    }

    ParsedRequest outcome;
    outcome.request = std::move(request);
    outcome.error = ErrorCode::BadRequest;
    return outcome;
}

std::string
errorLine(ErrorCode code, const std::string &message)
{
    std::ostringstream out;
    out << "{\"ok\":false,\"error\":\"" << toString(code)
        << "\",\"message\":\"" << obs::escapeJson(message) << "\"}";
    return out.str();
}

} // namespace smq::serve
