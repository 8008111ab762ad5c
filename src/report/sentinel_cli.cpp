#include "report/sentinel_cli.hpp"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <ostream>

#include "obs/fsio.hpp"
#include "obs/manifest.hpp"
#include "report/checkpoint.hpp"
#include "report/history.hpp"
#include "report/html_report.hpp"
#include "report/sentinel.hpp"
#include "util/cli.hpp"

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

int
usageError(std::ostream &err, const std::string &message)
{
    err << "smq_sentinel: " << message << "\n" << kUsage;
    return kSentinelUsage;
}

/**
 * Parse subcommand @p command's @p args against @p flags, collecting
 * at most @p maxPositionals positionals. On a bad argument, prints the
 * usage error and returns false.
 */
bool
parseArgs(std::ostream &err, const std::string &command,
          const util::Flags &flags, const std::vector<std::string> &args,
          std::vector<std::string> &positionals,
          std::size_t maxPositionals)
{
    std::string error = flags.parse(args, &positionals);
    if (error.empty() && positionals.size() > maxPositionals)
        error = "unexpected argument " + positionals[maxPositionals];
    if (error.empty())
        return true;
    usageError(err, command + ": " + error);
    return false;
}

int
runCheck(const std::vector<std::string> &args, std::ostream &out,
         std::ostream &err)
{
    std::string baseline;
    SentinelOptions options;
    util::Flags flags;
    flags.add("--baseline", baseline)
        .add("--threshold", options.threshold)
        .add("--min-samples", options.minSamples)
        .add("--window", options.window)
        .add("--tool", options.tool);
    std::vector<std::string> positionals;
    if (!parseArgs(err, "check", flags, args, positionals, 1))
        return kSentinelUsage;
    if (positionals.empty() || baseline.empty())
        return usageError(err, "check needs PERF_JSON and --baseline");

    PerfSnapshot current;
    try {
        current = loadPerfJson(positionals.front());
    } catch (const std::exception &e) {
        err << "smq_sentinel: " << e.what() << "\n";
        return kSentinelUsage;
    }

    HistoryLoad load = loadHistory(baseline);
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
runBaseline(const std::vector<std::string> &args, std::ostream &out,
            std::ostream &err)
{
    std::string history = "runs.jsonl";
    util::Flags flags;
    flags.add("--history", history);
    std::vector<std::string> positionals;
    if (!parseArgs(err, "baseline", flags, args, positionals, 1))
        return kSentinelUsage;
    if (positionals.empty())
        return usageError(err, "baseline needs PERF_JSON");
    const std::string &perf_path = positionals.front();

    HistoryRecord record;
    try {
        record = historyFromPerf(loadPerfJson(perf_path));
    } catch (const std::exception &e) {
        err << "smq_sentinel: " << e.what() << "\n";
        return kSentinelUsage;
    }
    if (!appendHistory(history, record)) {
        err << "smq_sentinel: cannot append to " << history << "\n";
        return kSentinelUsage;
    }
    out << "promoted " << perf_path << " (" << record.stages.size()
        << " stages) into " << history << "\n";
    return kSentinelOk;
}

int
runIngest(const std::vector<std::string> &args, std::ostream &out,
          std::ostream &err)
{
    std::string history = "runs.jsonl";
    util::Flags flags;
    flags.add("--history", history);
    std::vector<std::string> positionals;
    if (!parseArgs(err, "ingest", flags, args, positionals, 1))
        return kSentinelUsage;
    if (positionals.empty())
        return usageError(err, "ingest needs DIR");
    const std::string &dir = positionals.front();

    namespace fs = std::filesystem;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) {
        err << "smq_sentinel: not a directory: " << dir << "\n";
        return kSentinelUsage;
    }
    std::vector<std::string> manifests;
    for (fs::recursive_directory_iterator it(dir, ec), end;
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
runReport(const std::vector<std::string> &args, std::ostream &out,
          std::ostream &err)
{
    std::string history = "runs.jsonl";
    std::string out_path = "report.html";
    std::string merged_path;
    ReportInputs inputs;
    util::Flags flags;
    // --trace repeats: each occurrence is one process's trace dir.
    flags.add("--history", history)
        .add("--out", out_path)
        .add("--merged-trace", merged_path)
        .add("--trace", inputs.traceDirs)
        .add("--title", inputs.title);
    std::vector<std::string> positionals;
    if (!parseArgs(err, "report", flags, args, positionals, 0))
        return kSentinelUsage;

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
runCompact(const std::vector<std::string> &args, std::ostream &out,
           std::ostream &err)
{
    std::string history = "runs.jsonl";
    std::uint64_t keep = 0;
    util::Flags flags;
    flags.add("--history", history).add("--keep", keep);
    std::vector<std::string> positionals;
    if (!parseArgs(err, "compact", flags, args, positionals, 0))
        return kSentinelUsage;

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
runMerge(const std::vector<std::string> &args, std::ostream &out,
         std::ostream &err)
{
    std::string out_path = "merged_grid.txt";
    std::string history;
    util::Flags flags;
    flags.add("--out", out_path).add("--history", history);
    std::vector<std::string> dirs;
    if (!parseArgs(err, "merge", flags, args, dirs, args.size()))
        return kSentinelUsage;
    if (dirs.empty())
        return usageError(err, "merge needs at least one checkpoint DIR");

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
    const std::vector<std::string> rest(args.begin() + 1, args.end());
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
