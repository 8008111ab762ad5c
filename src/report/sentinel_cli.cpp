#include "report/sentinel_cli.hpp"

#include <algorithm>
#include <cctype>
#include <exception>
#include <filesystem>
#include <optional>
#include <ostream>

#include "obs/fsio.hpp"
#include "obs/manifest.hpp"
#include "report/checkpoint.hpp"
#include "report/history.hpp"
#include "report/html_report.hpp"
#include "report/sentinel.hpp"

namespace smq::report {

namespace {

constexpr const char *kUsage =
    "usage: smq_sentinel <subcommand> [options]\n"
    "\n"
    "  check PERF_JSON --baseline FILE [--threshold F]\n"
    "        [--min-samples N] [--window N] [--tool NAME]\n"
    "      exit 1 when a stage regressed vs the store's trajectory\n"
    "  baseline PERF_JSON [--history FILE]\n"
    "      append the perf snapshot to the store (default runs.jsonl)\n"
    "  ingest DIR [--history FILE]\n"
    "      append every *_manifest.json under DIR to the store\n"
    "  report [--history FILE] [--trace DIR]... [--out FILE]\n"
    "        [--title T] [--merged-trace FILE]\n"
    "      write a self-contained HTML run report (default report.html);\n"
    "      repeat --trace to stitch multi-process traces into one\n"
    "      waterfall, --merged-trace also writes the stitched\n"
    "      Chrome-trace JSON\n"
    "  compact [--history FILE] [--keep N]\n"
    "      atomically rewrite the store, dropping corrupt lines\n"
    "  merge DIR... [--out FILE] [--history FILE]\n"
    "      fold shard checkpoint journals into one grid, written as\n"
    "      the fig2 cache text (a complete merge equals the serial\n"
    "      sweep's fig2_cache_*.txt); exit 1 when shards or cells\n"
    "      are missing\n";

/** Tiny flag cursor over the args vector. */
class Args
{
  public:
    explicit Args(std::vector<std::string> args)
        : args_(std::move(args))
    {
    }

    /** Consume the next positional argument, if any. */
    std::optional<std::string> positional()
    {
        for (std::size_t i = 0; i < args_.size(); ++i) {
            if (args_[i].rfind("--", 0) != 0) {
                std::string value = args_[i];
                args_.erase(args_.begin() +
                            static_cast<std::ptrdiff_t>(i));
                return value;
            }
            ++i; // skip the flag's value
        }
        return std::nullopt;
    }

    /** Consume `--name VALUE`, if present. */
    std::optional<std::string> flag(const std::string &name)
    {
        for (std::size_t i = 0; i + 1 < args_.size(); ++i) {
            if (args_[i] == name) {
                std::string value = args_[i + 1];
                args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i),
                            args_.begin() +
                                static_cast<std::ptrdiff_t>(i + 2));
                return value;
            }
        }
        return std::nullopt;
    }

    /** Whatever was not consumed (unknown flags → usage error). */
    const std::vector<std::string> &rest() const { return args_; }

  private:
    std::vector<std::string> args_;
};

int
usageError(std::ostream &err, const std::string &message)
{
    err << "smq_sentinel: " << message << "\n" << kUsage;
    return kSentinelUsage;
}

/**
 * Full-token numeric parses. std::stod/std::stoul alone are not
 * enough: they partial-parse ("0.5abc" -> 0.5) and stoul silently
 * wraps negatives ("-1" -> huge), so malformed flag values would be
 * accepted instead of producing the documented usage exit code.
 */
std::optional<double>
parseDoubleFlag(const std::string &text)
{
    try {
        std::size_t consumed = 0;
        double value = std::stod(text, &consumed);
        if (consumed != text.size())
            return std::nullopt;
        return value;
    } catch (const std::exception &) {
        return std::nullopt;
    }
}

std::optional<std::size_t>
parseSizeFlag(const std::string &text)
{
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    try {
        std::size_t consumed = 0;
        unsigned long value = std::stoul(text, &consumed);
        if (consumed != text.size())
            return std::nullopt;
        return static_cast<std::size_t>(value);
    } catch (const std::exception &) {
        return std::nullopt;
    }
}

int
runCheck(Args &args, std::ostream &out, std::ostream &err)
{
    auto perf_path = args.positional();
    auto baseline = args.flag("--baseline");
    if (!perf_path || !baseline)
        return usageError(err, "check needs PERF_JSON and --baseline");

    SentinelOptions options;
    if (auto v = args.flag("--threshold")) {
        auto parsed = parseDoubleFlag(*v);
        if (!parsed)
            return usageError(err, "check: bad --threshold '" + *v + "'");
        options.threshold = *parsed;
    }
    if (auto v = args.flag("--min-samples")) {
        auto parsed = parseSizeFlag(*v);
        if (!parsed)
            return usageError(err, "check: bad --min-samples '" + *v + "'");
        options.minSamples = *parsed;
    }
    if (auto v = args.flag("--window")) {
        auto parsed = parseSizeFlag(*v);
        if (!parsed)
            return usageError(err, "check: bad --window '" + *v + "'");
        options.window = *parsed;
    }
    if (auto v = args.flag("--tool"))
        options.tool = *v;
    if (!args.rest().empty())
        return usageError(err, "check: unknown argument " +
                                   args.rest().front());

    PerfSnapshot current;
    try {
        current = loadPerfJson(*perf_path);
    } catch (const std::exception &e) {
        err << "smq_sentinel: " << e.what() << "\n";
        return kSentinelUsage;
    }

    HistoryLoad load = loadHistory(*baseline);
    CheckReport report = checkPerf(current, load.records, options);
    out << report.render();
    if (load.skippedLines > 0) {
        out << "(store: " << load.skippedLines
            << " unparseable line(s) skipped"
            << (load.corruptTail ? ", corrupt tail - consider "
                                   "`smq_sentinel compact`"
                                 : "")
            << ")\n";
    }
    if (report.regression()) {
        out << "verdict: REGRESSION\n";
        return kSentinelRegression;
    }
    out << "verdict: ok (" << report.baselineRuns
        << " baseline run(s))\n";
    return kSentinelOk;
}

int
runBaseline(Args &args, std::ostream &out, std::ostream &err)
{
    auto perf_path = args.positional();
    if (!perf_path)
        return usageError(err, "baseline needs PERF_JSON");
    const std::string history =
        args.flag("--history").value_or("runs.jsonl");
    if (!args.rest().empty())
        return usageError(err, "baseline: unknown argument " +
                                   args.rest().front());

    HistoryRecord record;
    try {
        record = historyFromPerf(loadPerfJson(*perf_path));
    } catch (const std::exception &e) {
        err << "smq_sentinel: " << e.what() << "\n";
        return kSentinelUsage;
    }
    if (!appendHistory(history, record)) {
        err << "smq_sentinel: cannot append to " << history << "\n";
        return kSentinelUsage;
    }
    out << "promoted " << *perf_path << " (" << record.stages.size()
        << " stages) into " << history << "\n";
    return kSentinelOk;
}

int
runIngest(Args &args, std::ostream &out, std::ostream &err)
{
    auto dir = args.positional();
    if (!dir)
        return usageError(err, "ingest needs DIR");
    const std::string history =
        args.flag("--history").value_or("runs.jsonl");
    if (!args.rest().empty())
        return usageError(err, "ingest: unknown argument " +
                                   args.rest().front());

    namespace fs = std::filesystem;
    std::error_code ec;
    if (!fs::is_directory(*dir, ec)) {
        err << "smq_sentinel: not a directory: " << *dir << "\n";
        return kSentinelUsage;
    }
    std::vector<std::string> manifests;
    for (fs::recursive_directory_iterator it(*dir, ec), end;
         it != end && !ec; it.increment(ec)) {
        const fs::path &p = it->path();
        const std::string name = p.filename().string();
        if (it->is_regular_file(ec) && name.size() > 14 &&
            name.rfind("_manifest.json") == name.size() - 14) {
            manifests.push_back(p.string());
        }
    }
    std::sort(manifests.begin(), manifests.end());

    std::size_t appended = 0, failed = 0;
    for (const std::string &path : manifests) {
        try {
            obs::RunManifest manifest = obs::RunManifest::readFile(path);
            if (!appendHistory(history,
                               HistoryRecord::fromManifest(manifest))) {
                err << "smq_sentinel: cannot append to " << history
                    << "\n";
                return kSentinelUsage;
            }
            ++appended;
        } catch (const std::exception &e) {
            err << "smq_sentinel: skipping " << path << ": " << e.what()
                << "\n";
            ++failed;
        }
    }
    out << "ingested " << appended << " manifest(s) into " << history;
    if (failed > 0)
        out << " (" << failed << " unreadable, skipped)";
    out << "\n";
    return kSentinelOk;
}

int
runReport(Args &args, std::ostream &out, std::ostream &err)
{
    const std::string history =
        args.flag("--history").value_or("runs.jsonl");
    const std::string out_path =
        args.flag("--out").value_or("report.html");
    const std::string merged_path =
        args.flag("--merged-trace").value_or("");
    ReportInputs inputs;
    // --trace repeats: each occurrence is one process's trace dir
    // (Args::flag consumes the first occurrence per call).
    while (auto dir = args.flag("--trace"))
        inputs.traceDirs.push_back(*dir);
    if (auto title = args.flag("--title"))
        inputs.title = *title;
    if (auto stray = args.positional())
        return usageError(err, "report: unknown argument " + *stray);
    if (!args.rest().empty())
        return usageError(err, "report: unknown argument " +
                                   args.rest().front());

    HistoryLoad load = loadHistory(history);
    inputs.history = std::move(load.records);
    inputs.skippedLines = load.skippedLines;

    const std::string html = renderHtmlReport(inputs);
    if (!obs::atomicWriteFile(out_path, html)) {
        err << "smq_sentinel: cannot write " << out_path << "\n";
        return kSentinelUsage;
    }
    out << "wrote " << out_path << " (" << inputs.history.size()
        << " record(s), " << html.size() << " bytes)\n";

    if (!merged_path.empty()) {
        std::string note;
        const std::string merged =
            renderMergedChromeTrace(inputs.traceDirs, note);
        if (!obs::atomicWriteFile(merged_path, merged)) {
            err << "smq_sentinel: cannot write " << merged_path << "\n";
            return kSentinelUsage;
        }
        out << "wrote " << merged_path << " ("
            << inputs.traceDirs.size() << " trace dir(s)"
            << (note.empty() ? "" : "; " + note) << ")\n";
    }
    return kSentinelOk;
}

int
runCompact(Args &args, std::ostream &out, std::ostream &err)
{
    const std::string history =
        args.flag("--history").value_or("runs.jsonl");
    std::size_t keep = 0;
    if (auto v = args.flag("--keep")) {
        auto parsed = parseSizeFlag(*v);
        if (!parsed)
            return usageError(err, "compact: bad --keep '" + *v + "'");
        keep = *parsed;
    }
    if (auto stray = args.positional())
        return usageError(err, "compact: unknown argument " + *stray);

    const HistoryLoad before = loadHistory(history);
    if (!compactHistory(history, keep)) {
        err << "smq_sentinel: cannot compact " << history << "\n";
        return kSentinelUsage;
    }
    const HistoryLoad after = loadHistory(history);
    out << "compacted " << history << ": " << before.records.size()
        << " -> " << after.records.size() << " record(s), "
        << before.skippedLines << " corrupt line(s) dropped\n";
    return kSentinelOk;
}

int
runMerge(Args &args, std::ostream &out, std::ostream &err)
{
    const std::string out_path =
        args.flag("--out").value_or("merged_grid.txt");
    const std::string history = args.flag("--history").value_or("");
    std::vector<std::string> dirs;
    while (auto dir = args.positional())
        dirs.push_back(*dir);
    if (dirs.empty())
        return usageError(err, "merge needs at least one checkpoint DIR");
    if (!args.rest().empty())
        return usageError(err, "merge: unknown argument " +
                                   args.rest().front());

    MergedGrid merged;
    try {
        merged = mergeCheckpoints(dirs);
    } catch (const std::exception &e) {
        err << "smq_sentinel: " << e.what() << "\n";
        return kSentinelUsage;
    }

    std::string write_error;
    if (!obs::atomicWriteFile(out_path, serializeGrid(merged.grid),
                              &write_error)) {
        err << "smq_sentinel: cannot write " << out_path
            << (write_error.empty() ? "" : " (" + write_error + ")")
            << "\n";
        return kSentinelUsage;
    }

    const std::size_t n_cells =
        merged.header.benchmarks.size() * merged.header.devices.size();
    out << "merged " << dirs.size() << " journal(s), shard(s)";
    for (const std::string &shard : merged.shardsSeen)
        out << " " << shard;
    out << "\n"
        << (n_cells - merged.missingCells.size()) << "/" << n_cells
        << " cell(s) final -> " << out_path << "\n";
    if (!merged.overlapCells.empty()) {
        out << "overlap: " << merged.overlapCells.size()
            << " cell(s) journaled identically by more than one shard\n";
    }
    if (merged.salvagedDropped > 0) {
        out << "dropped " << merged.salvagedDropped
            << " non-final (salvaged/superseded) record(s)\n";
    }
    for (std::size_t shard : merged.missingShards) {
        out << "missing shard: " << shard << "/"
            << merged.header.shardCount << "\n";
    }
    for (const std::string &cell : merged.missingCells)
        out << "missing cell: " << cell << "\n";

    if (!history.empty()) {
        HistoryRecord record;
        record.tool = "smq_sentinel_merge";
        record.extra["config"] = merged.header.config;
        std::string shards;
        for (const std::string &shard : merged.shardsSeen)
            shards += (shards.empty() ? "" : ",") + shard;
        record.extra["shards"] = shards;
        record.values = gridScoreValues(merged.grid);
        std::string append_error;
        if (!appendHistory(history, record, &append_error)) {
            err << "smq_sentinel: cannot append to " << history
                << (append_error.empty() ? ""
                                         : " (" + append_error + ")")
                << "\n";
            return kSentinelUsage;
        }
        out << "appended merged record to " << history << "\n";
    }
    if (!merged.complete()) {
        out << "verdict: INCOMPLETE\n";
        return kSentinelRegression;
    }
    out << "verdict: complete\n";
    return kSentinelOk;
}

} // namespace

int
sentinelMain(const std::vector<std::string> &args, std::ostream &out,
             std::ostream &err)
{
    if (args.empty())
        return usageError(err, "missing subcommand");
    const std::string &command = args.front();
    Args rest(std::vector<std::string>(args.begin() + 1, args.end()));
    if (command == "check")
        return runCheck(rest, out, err);
    if (command == "baseline")
        return runBaseline(rest, out, err);
    if (command == "ingest")
        return runIngest(rest, out, err);
    if (command == "report")
        return runReport(rest, out, err);
    if (command == "compact")
        return runCompact(rest, out, err);
    if (command == "merge")
        return runMerge(rest, out, err);
    if (command == "--help" || command == "help") {
        out << kUsage;
        return kSentinelOk;
    }
    return usageError(err, "unknown subcommand: " + command);
}

} // namespace smq::report
