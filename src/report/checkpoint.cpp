#include "report/checkpoint.hpp"

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <istream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/fsio.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"

namespace smq::report {

namespace {

// v3: per-run backend plan token appended to each cell record.
constexpr const char *kCacheVersion = "smq-fig2-cache-v3";

/** Common prefix of every journal schema version this loader reads. */
constexpr const char *kSchemaPrefix = "smq-checkpoint-v";

/** The fields both readers derive instead of storing them. */
void
deriveLoadedFields(core::BenchmarkRun &run)
{
    run.tooLarge = run.status == core::RunStatus::TooLarge;
    if (!run.scores.empty())
        run.summary = stats::summarize(run.scores);
}

void
writeStringArray(std::ostream &out, const std::vector<std::string> &v)
{
    out << "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out << (i ? "," : "") << "\"" << obs::escapeJson(v[i]) << "\"";
    out << "]";
}

template <typename Doubles>
void
writeDoubleArray(std::ostream &out, const Doubles &v)
{
    out << "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out << ",";
        obs::writeJsonNumber(out, v[i]);
    }
    out << "]";
}

std::vector<std::string>
readStringArray(const obs::JsonValue &value)
{
    std::vector<std::string> out;
    for (const obs::JsonValue &item : value.array)
        out.push_back(item.asString());
    return out;
}

std::string
journalPath(const std::string &dir)
{
    return dir + "/" + kCheckpointFile;
}

/** Hook thresholds from the environment; negative = disabled. */
long
envCellCount(const char *name)
{
    const char *text = std::getenv(name);
    if (text == nullptr || *text == '\0')
        return -1;
    char *end = nullptr;
    long value = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || value < 0)
        return -1;
    return value;
}

CheckpointHeader
headerFromJson(const obs::JsonValue &root)
{
    CheckpointHeader header;
    if (const obs::JsonValue *v = root.find("tool"))
        header.tool = v->asString();
    header.config = root.at("config").asString();
    header.shardIndex =
        static_cast<std::size_t>(root.at("shard_index").asU64());
    header.shardCount =
        static_cast<std::size_t>(root.at("shard_count").asU64());
    header.devices = readStringArray(root.at("devices"));
    header.benchmarks = readStringArray(root.at("benchmarks"));
    return header;
}

GridRow
rowFromJson(const obs::JsonValue &root)
{
    GridRow row;
    row.benchmark = root.at("benchmark").asString();
    row.isErrorCorrection = root.at("error_correction").asBool();
    const std::vector<obs::JsonValue> &f = root.at("features").array;
    const std::vector<obs::JsonValue> &s = root.at("stats").array;
    if (f.size() != 6 || s.size() != 6)
        throw std::runtime_error("row: features and stats need 6 entries");
    row.features.communication = f[0].asDouble();
    row.features.criticalDepth = f[1].asDouble();
    row.features.entanglement = f[2].asDouble();
    row.features.parallelism = f[3].asDouble();
    row.features.liveness = f[4].asDouble();
    row.features.measurement = f[5].asDouble();
    row.stats.numQubits = s[0].asU64();
    row.stats.depth = s[1].asU64();
    row.stats.gateCount = s[2].asU64();
    row.stats.twoQubitGates = s[3].asU64();
    row.stats.measurements = s[4].asU64();
    row.stats.resets = s[5].asU64();
    return row;
}

core::BenchmarkRun
cellFromJson(const obs::JsonValue &root)
{
    core::BenchmarkRun run;
    run.benchmark = root.at("benchmark").asString();
    run.device = root.at("device").asString();
    run.status = static_cast<core::RunStatus>(
        static_cast<int>(root.at("status").asU64()));
    run.cause = static_cast<core::FailureCause>(
        static_cast<int>(root.at("cause").asU64()));
    // A non-final record is an interrupted cell, whatever its cause.
    if (!root.at("final").asBool())
        run.cause = core::FailureCause::Interrupted;
    run.plannedRepetitions = root.at("planned").asU64();
    run.attempts = root.at("attempts").asU64();
    run.errorBarScale = root.at("error_bar").asDouble();
    run.swapsInserted = root.at("swaps").asU64();
    run.physicalTwoQubitGates = root.at("phys_2q").asU64();
    // Optional: journals predating the backend planner carry no plan.
    if (const obs::JsonValue *v = root.find("plan"))
        run.plan = v->asString();
    for (const obs::JsonValue &v : root.at("scores").array)
        run.scores.push_back(v.asDouble());
    deriveLoadedFields(run);
    return run;
}

} // namespace

std::string
serializeGrid(const Fig2Grid &grid)
{
    std::ostringstream out;
    out.precision(17);
    out << kCacheVersion << "\n" << grid.deviceNames.size() << "\n";
    for (const std::string &name : grid.deviceNames)
        out << name << "\n";
    out << grid.rows.size() << "\n";
    for (const GridRow &row : grid.rows) {
        out << row.benchmark << "\n" << row.isErrorCorrection << "\n";
        for (double v : row.features.asArray())
            out << v << " ";
        out << "\n"
            << row.stats.numQubits << " " << row.stats.depth << " "
            << row.stats.gateCount << " " << row.stats.twoQubitGates
            << " " << row.stats.measurements << " " << row.stats.resets
            << "\n";
        for (const core::BenchmarkRun &run : row.runs) {
            // Plan tokens are space-free by construction ('-' stands
            // for "never planned"), so the record stays >>-parseable.
            out << static_cast<int>(run.status) << " "
                << static_cast<int>(run.cause) << " "
                << run.plannedRepetitions << " " << run.attempts << " "
                << run.errorBarScale << " " << run.swapsInserted << " "
                << run.physicalTwoQubitGates << " "
                << (run.plan.empty() ? "-" : run.plan) << " "
                << run.scores.size();
            for (double s : run.scores)
                out << " " << s;
            out << "\n";
        }
    }
    return out.str();
}

bool
parseGrid(std::istream &in, Fig2Grid &grid)
{
    std::string version;
    std::getline(in, version);
    if (version != kCacheVersion)
        return false;
    std::size_t n_devices = 0;
    in >> n_devices;
    in.ignore();
    grid.deviceNames.resize(n_devices);
    for (std::string &name : grid.deviceNames)
        std::getline(in, name);
    std::size_t n_rows = 0;
    in >> n_rows;
    in.ignore();
    grid.rows.resize(n_rows);
    for (GridRow &row : grid.rows) {
        std::getline(in, row.benchmark);
        in >> row.isErrorCorrection;
        in >> row.features.communication >> row.features.criticalDepth >>
            row.features.entanglement >> row.features.parallelism >>
            row.features.liveness >> row.features.measurement;
        in >> row.stats.numQubits >> row.stats.depth >>
            row.stats.gateCount >> row.stats.twoQubitGates >>
            row.stats.measurements >> row.stats.resets;
        row.runs.resize(n_devices);
        for (std::size_t d = 0; d < n_devices; ++d) {
            core::BenchmarkRun &run = row.runs[d];
            run.benchmark = row.benchmark;
            run.device = grid.deviceNames[d];
            int status = 0, cause = 0;
            std::size_t n_scores = 0;
            std::string plan;
            in >> status >> cause >> run.plannedRepetitions >>
                run.attempts >> run.errorBarScale >> run.swapsInserted >>
                run.physicalTwoQubitGates >> plan >> n_scores;
            run.plan = plan == "-" ? "" : plan;
            run.status = static_cast<core::RunStatus>(status);
            run.cause = static_cast<core::FailureCause>(cause);
            run.scores.resize(n_scores);
            for (double &s : run.scores)
                in >> s;
            deriveLoadedFields(run);
        }
        in.ignore();
    }
    return static_cast<bool>(in);
}

std::map<std::string, double>
gridScoreValues(const Fig2Grid &grid)
{
    std::map<std::string, double> values;
    for (const GridRow &row : grid.rows) {
        for (std::size_t d = 0; d < row.runs.size(); ++d) {
            const core::BenchmarkRun &run = row.runs[d];
            if (!core::scoreable(run.status) || run.scores.empty())
                continue;
            values["score." + row.benchmark + "@" + grid.deviceNames[d]] =
                run.summary.mean;
        }
    }
    return values;
}

std::string
CheckpointHeader::toJsonLine() const
{
    std::ostringstream out;
    out << "{\"schema\":\"" << kCheckpointSchema << "\""
        << ",\"kind\":\"header\""
        << ",\"tool\":\"" << obs::escapeJson(tool) << "\""
        << ",\"config\":\"" << obs::escapeJson(config) << "\""
        << ",\"shard_index\":" << shardIndex
        << ",\"shard_count\":" << shardCount << ",\"devices\":";
    writeStringArray(out, devices);
    out << ",\"benchmarks\":";
    writeStringArray(out, benchmarks);
    out << "}";
    return out.str();
}

bool
CheckpointHeader::sameWorkload(const CheckpointHeader &other) const
{
    return config == other.config && shardCount == other.shardCount &&
           devices == other.devices && benchmarks == other.benchmarks;
}

std::string
journalLine(const GridRow &row)
{
    std::ostringstream out;
    out << "{\"schema\":\"" << kCheckpointSchema << "\""
        << ",\"kind\":\"row\""
        << ",\"benchmark\":\"" << obs::escapeJson(row.benchmark) << "\""
        << ",\"error_correction\":"
        << (row.isErrorCorrection ? "true" : "false") << ",\"features\":";
    writeDoubleArray(out, row.features.asArray());
    out << ",\"stats\":[" << row.stats.numQubits << "," << row.stats.depth
        << "," << row.stats.gateCount << "," << row.stats.twoQubitGates
        << "," << row.stats.measurements << "," << row.stats.resets
        << "]}";
    return out.str();
}

std::string
journalLine(const core::BenchmarkRun &run)
{
    std::ostringstream out;
    out << "{\"schema\":\"" << kCheckpointSchema << "\""
        << ",\"kind\":\"cell\""
        << ",\"benchmark\":\"" << obs::escapeJson(run.benchmark) << "\""
        << ",\"device\":\"" << obs::escapeJson(run.device) << "\""
        << ",\"final\":" << (isFinal(run) ? "true" : "false")
        << ",\"status\":" << static_cast<int>(run.status)
        << ",\"cause\":" << static_cast<int>(run.cause)
        << ",\"planned\":" << run.plannedRepetitions
        << ",\"attempts\":" << run.attempts << ",\"error_bar\":";
    obs::writeJsonNumber(out, run.errorBarScale);
    out << ",\"swaps\":" << run.swapsInserted
        << ",\"phys_2q\":" << run.physicalTwoQubitGates
        << ",\"plan\":\"" << obs::escapeJson(run.plan) << "\""
        << ",\"scores\":";
    writeDoubleArray(out, run.scores);
    out << "}";
    return out.str();
}

CheckpointLoad
loadCheckpoint(const std::string &dir)
{
    CheckpointLoad load;
    std::ifstream in(journalPath(dir));
    if (!in)
        return load; // fresh start: nothing to resume
    load.exists = true;
    std::string line;
    bool last_was_corrupt = false;
    while (std::getline(in, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        try {
            obs::JsonValue root = obs::parseJson(line);
            const std::string &schema = root.at("schema").asString();
            if (schema.rfind(kSchemaPrefix, 0) != 0)
                throw std::runtime_error("foreign schema");
            const std::string &kind = root.at("kind").asString();
            if (kind == "header") {
                if (!load.headerOk) {
                    load.header = headerFromJson(root);
                    load.headerOk = true;
                }
            } else if (kind == "row") {
                load.rows.push_back(rowFromJson(root));
            } else if (kind == "cell") {
                load.cells.push_back(cellFromJson(root));
            }
            // Unknown kinds from newer schema versions: ignored, so an
            // old binary can still merge a newer shard's journal.
            last_was_corrupt = false;
        } catch (const std::exception &) {
            ++load.skippedLines;
            last_was_corrupt = true;
        }
    }
    load.corruptTail = last_was_corrupt;
    return load;
}

CheckpointWriter::CheckpointWriter(const std::string &dir)
    : path_(journalPath(dir)),
      crashAfterCells_(envCellCount("SMQ_CRASH_AFTER_CELLS")),
      stopAfterCells_(envCellCount("SMQ_STOP_AFTER_CELLS"))
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        error_ = "mkdir: " + ec.message();
}

CheckpointWriter::CheckpointWriter(CheckpointWriter &&other) noexcept
{
    *this = std::move(other);
}

CheckpointWriter &
CheckpointWriter::operator=(CheckpointWriter &&other) noexcept
{
    if (this != &other) {
        path_ = std::move(other.path_);
        error_ = std::move(other.error_);
        cells_.store(other.cells_.load());
        crashAfterCells_ = other.crashAfterCells_;
        stopAfterCells_ = other.stopAfterCells_;
        other.path_.clear();
    }
    return *this;
}

std::string
CheckpointWriter::error() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return error_;
}

std::size_t
CheckpointWriter::cellsJournaled() const
{
    return cells_.load();
}

bool
CheckpointWriter::writeHeader(const CheckpointHeader &header)
{
    if (!active())
        return true;
    std::string err;
    if (!obs::atomicWriteFile(path_, header.toJsonLine() + "\n", &err)) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (error_.empty())
            error_ = err;
        obs::counter(obs::names::kCheckpointAppendFailures).add();
        return false;
    }
    return true;
}

bool
CheckpointWriter::append(const std::string &line)
{
    if (!active())
        return true;
    std::string err;
    if (!obs::appendLineDurable(path_, line, &err)) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (error_.empty())
            error_ = err;
        obs::counter(obs::names::kCheckpointAppendFailures).add();
        return false;
    }
    return true;
}

bool
CheckpointWriter::appendRow(const GridRow &row)
{
    return append(journalLine(row));
}

bool
CheckpointWriter::appendCell(const core::BenchmarkRun &run)
{
    if (!active())
        return true;
    const bool ok = append(journalLine(run));
    if (!ok)
        return false;
    const std::size_t count = ++cells_;
    obs::counter(obs::names::kCheckpointCellsJournaled).add();
    // Deterministic fault hooks: the cell is durably journaled, then
    // the process dies (SIGKILL: unclean, exactly what a crash leaves
    // behind) or asks itself to stop (SIGTERM: drives the real
    // cooperative-shutdown handler at a reproducible point).
    if (crashAfterCells_ >= 0 &&
        count >= static_cast<std::size_t>(crashAfterCells_))
        std::raise(SIGKILL);
    if (stopAfterCells_ >= 0 &&
        count == static_cast<std::size_t>(stopAfterCells_))
        std::raise(SIGTERM);
    return true;
}

MergedGrid
mergeCheckpoints(const std::vector<std::string> &dirs)
{
    if (dirs.empty())
        throw std::runtime_error("merge: no checkpoint directories");

    MergedGrid merged;
    struct Slot
    {
        core::BenchmarkRun run;
        std::size_t journal = 0;
    };
    std::map<std::string, Slot> slots;  // key -> best record so far
    std::map<std::string, GridRow> rows;
    std::set<std::size_t> shard_indices;
    std::set<std::string> overlap_seen;

    for (std::size_t j = 0; j < dirs.size(); ++j) {
        CheckpointLoad load = loadCheckpoint(dirs[j]);
        if (!load.exists)
            throw std::runtime_error("merge: no journal in " + dirs[j]);
        if (!load.headerOk)
            throw std::runtime_error("merge: no readable header in " +
                                     dirs[j]);
        if (j == 0) {
            merged.header = load.header;
        } else if (!merged.header.sameWorkload(load.header)) {
            throw std::runtime_error(
                "merge: " + dirs[j] +
                " journals a different workload than " + dirs[0]);
        }
        merged.shardsSeen.push_back(
            std::to_string(load.header.shardIndex) + "/" +
            std::to_string(load.header.shardCount));
        shard_indices.insert(load.header.shardIndex);

        for (GridRow &row : load.rows) {
            auto it = rows.find(row.benchmark);
            if (it == rows.end()) {
                rows.emplace(row.benchmark, std::move(row));
            } else if (journalLine(it->second) != journalLine(row)) {
                throw std::runtime_error(
                    "merge: conflicting row metadata for " +
                    row.benchmark);
            }
        }

        for (core::BenchmarkRun &run : load.cells) {
            const std::string key = run.benchmark + "@" + run.device;
            auto it = slots.find(key);
            if (it == slots.end()) {
                slots.emplace(key, Slot{std::move(run), j});
                continue;
            }
            Slot &slot = it->second;
            if (!isFinal(run)) {
                // Salvage never displaces anything; it only fills gaps.
                ++merged.salvagedDropped;
                continue;
            }
            if (!isFinal(slot.run)) {
                ++merged.salvagedDropped;
                slot = Slot{std::move(run), j};
                continue;
            }
            if (slot.journal == j) {
                // Same journal, e.g. a resumed run re-finishing a
                // cell: later record wins, like a log replay.
                slot.run = std::move(run);
                continue;
            }
            // Two journals both claim this cell. Identical content is
            // an overlap (a shard run twice); divergence is data
            // corruption and must not be papered over.
            if (journalLine(slot.run) != journalLine(run))
                throw std::runtime_error(
                    "merge: conflicting results for " + key + " (" +
                    dirs[slot.journal] + " vs " + dirs[j] + ")");
            if (overlap_seen.insert(key).second)
                merged.overlapCells.push_back(key);
        }
    }

    for (std::size_t i = 0; i < merged.header.shardCount; ++i) {
        if (shard_indices.find(i) == shard_indices.end())
            merged.missingShards.push_back(i);
    }

    Fig2Grid &grid = merged.grid;
    grid.deviceNames = merged.header.devices;
    grid.rows.resize(merged.header.benchmarks.size());
    for (std::size_t r = 0; r < grid.rows.size(); ++r) {
        GridRow &row = grid.rows[r];
        row.benchmark = merged.header.benchmarks[r];
        auto row_it = rows.find(row.benchmark);
        if (row_it != rows.end())
            row = row_it->second;
        row.runs.resize(grid.deviceNames.size());
        for (std::size_t d = 0; d < row.runs.size(); ++d) {
            core::BenchmarkRun &run = row.runs[d];
            const std::string key =
                row.benchmark + "@" + grid.deviceNames[d];
            auto it = slots.find(key);
            if (it != slots.end() && isFinal(it->second.run)) {
                run = it->second.run;
                continue;
            }
            run.benchmark = row.benchmark;
            run.device = grid.deviceNames[d];
            run.status = core::RunStatus::Skipped;
            run.cause = core::FailureCause::Interrupted;
            merged.missingCells.push_back(key);
        }
    }
    return merged;
}

} // namespace smq::report
