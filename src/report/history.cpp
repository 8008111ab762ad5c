#include "report/history.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/fsio.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"

namespace smq::report {

HistoryRecord
HistoryRecord::fromManifest(const obs::RunManifest &manifest)
{
    HistoryRecord rec;
    rec.tool = manifest.tool;
    rec.gitRev = manifest.gitRev;
    rec.deviceTableVersion = manifest.deviceTableVersion;
    rec.seed = manifest.seed;
    rec.shots = manifest.shots;
    rec.repetitions = manifest.repetitions;
    rec.jobs = manifest.jobs;
    rec.faultsEnabled = manifest.faultsEnabled;
    rec.faultSeed = manifest.faultSeed;
    rec.cacheHits = manifest.cacheHits;
    rec.cacheMisses = manifest.cacheMisses;
    rec.stages = manifest.stages;
    rec.counters = manifest.counters;
    rec.extra = manifest.extra;
    return rec;
}

std::string
HistoryRecord::toJsonLine() const
{
    std::ostringstream out;
    out << "{\"schema\":\"" << obs::escapeJson(schema) << "\""
        << ",\"tool\":\"" << obs::escapeJson(tool) << "\""
        << ",\"git_rev\":\"" << obs::escapeJson(gitRev) << "\""
        << ",\"device_table_version\":\""
        << obs::escapeJson(deviceTableVersion) << "\""
        << ",\"config\":{\"seed\":" << seed << ",\"shots\":" << shots
        << ",\"repetitions\":" << repetitions << ",\"jobs\":" << jobs
        << ",\"faults\":" << (faultsEnabled ? "true" : "false")
        << ",\"fault_seed\":" << faultSeed << "}"
        << ",\"cache\":{\"hits\":" << cacheHits
        << ",\"misses\":" << cacheMisses << "}";

    out << ",\"stages\":{";
    bool first = true;
    for (const auto &[name, s] : stages) {
        out << (first ? "" : ",") << "\"" << obs::escapeJson(name)
            << "\":{\"count\":" << s.count
            << ",\"total_ns\":" << s.totalNs << ",\"min_ns\":" << s.minNs
            << ",\"max_ns\":" << s.maxNs << "}";
        first = false;
    }
    out << "},\"counters\":{";
    first = true;
    for (const auto &[name, value] : counters) {
        out << (first ? "" : ",") << "\"" << obs::escapeJson(name)
            << "\":" << value;
        first = false;
    }
    out << "},\"values\":{";
    first = true;
    for (const auto &[name, value] : values) {
        out << (first ? "" : ",") << "\"" << obs::escapeJson(name)
            << "\":";
        obs::writeJsonNumber(out, value);
        first = false;
    }
    out << "},\"extra\":{";
    first = true;
    for (const auto &[key, value] : extra) {
        out << (first ? "" : ",") << "\"" << obs::escapeJson(key)
            << "\":\"" << obs::escapeJson(value) << "\"";
        first = false;
    }
    out << "}}";
    return out.str();
}

HistoryRecord
HistoryRecord::fromJsonLine(const std::string &line)
{
    obs::JsonValue root = obs::parseJson(line);
    HistoryRecord rec;
    rec.schema = root.at("schema").asString();
    if (rec.schema.rfind(kHistorySchemaPrefix, 0) != 0)
        throw std::runtime_error("history: unknown schema '" +
                                 rec.schema + "'");
    rec.tool = root.at("tool").asString();
    // Everything below is best-effort so records written by a newer
    // schema version (extra fields, relaxed requirements) still load.
    if (const obs::JsonValue *v = root.find("git_rev"))
        rec.gitRev = v->asString();
    if (const obs::JsonValue *v = root.find("device_table_version"))
        rec.deviceTableVersion = v->asString();
    if (const obs::JsonValue *config = root.find("config")) {
        if (const obs::JsonValue *v = config->find("seed"))
            rec.seed = v->asU64();
        if (const obs::JsonValue *v = config->find("shots"))
            rec.shots = v->asU64();
        if (const obs::JsonValue *v = config->find("repetitions"))
            rec.repetitions = v->asU64();
        if (const obs::JsonValue *v = config->find("jobs"))
            rec.jobs = v->asU64();
        if (const obs::JsonValue *v = config->find("faults"))
            rec.faultsEnabled = v->asBool();
        if (const obs::JsonValue *v = config->find("fault_seed"))
            rec.faultSeed = v->asU64();
    }
    if (const obs::JsonValue *cache = root.find("cache")) {
        if (const obs::JsonValue *v = cache->find("hits"))
            rec.cacheHits = v->asU64();
        if (const obs::JsonValue *v = cache->find("misses"))
            rec.cacheMisses = v->asU64();
    }
    if (const obs::JsonValue *stages = root.find("stages")) {
        for (const auto &[name, s] : stages->object) {
            rec.stages[name] = obs::StageRollup{
                s.at("count").asU64(), s.at("total_ns").asU64(),
                s.at("min_ns").asU64(), s.at("max_ns").asU64()};
        }
    }
    if (const obs::JsonValue *counters = root.find("counters")) {
        for (const auto &[name, v] : counters->object)
            rec.counters[name] = v.asU64();
    }
    if (const obs::JsonValue *vals = root.find("values")) {
        for (const auto &[name, v] : vals->object)
            rec.values[name] = v.asDouble();
    }
    if (const obs::JsonValue *extra = root.find("extra")) {
        for (const auto &[key, v] : extra->object)
            rec.extra[key] = v.asString();
    }
    return rec;
}

bool
HistoryRecord::sameConfig(const HistoryRecord &other) const
{
    return tool == other.tool && shots == other.shots &&
           repetitions == other.repetitions &&
           faultsEnabled == other.faultsEnabled;
}

HistoryLoad
loadHistory(const std::string &path)
{
    HistoryLoad load;
    std::ifstream in(path);
    if (!in)
        return load; // first run: no store yet
    std::string line;
    bool last_was_corrupt = false;
    bool saw_any_line = false;
    while (std::getline(in, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        saw_any_line = true;
        try {
            load.records.push_back(HistoryRecord::fromJsonLine(line));
            last_was_corrupt = false;
        } catch (const std::exception &) {
            ++load.skippedLines;
            last_was_corrupt = true;
        }
    }
    load.corruptTail = saw_any_line && last_was_corrupt;
    obs::counter(obs::names::kHistoryLoaded).add(load.records.size());
    obs::counter(obs::names::kHistorySkipped).add(load.skippedLines);
    return load;
}

bool
appendHistory(const std::string &path, const HistoryRecord &record,
              std::string *error)
{
    if (!obs::appendLineDurable(path, record.toJsonLine(), error))
        return false;
    obs::counter(obs::names::kHistoryAppends).add();
    return true;
}

bool
compactHistory(const std::string &path, std::size_t keepLast)
{
    HistoryLoad load = loadHistory(path);
    std::size_t first = 0;
    if (keepLast > 0 && load.records.size() > keepLast)
        first = load.records.size() - keepLast;
    std::ostringstream out;
    for (std::size_t i = first; i < load.records.size(); ++i)
        out << load.records[i].toJsonLine() << "\n";
    return obs::atomicWriteFile(path, out.str());
}

} // namespace smq::report
