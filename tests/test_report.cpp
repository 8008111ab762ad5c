/**
 * @file
 * Telemetry-consumer tests (`ctest -L report`).
 *
 * Four properties carry the consumer layer:
 *  1. The run-history store is durable and tolerant: records round-trip
 *     exactly, a crash-truncated tail line is skipped (and compacted
 *     away), newer schema versions load best-effort, and eight
 *     concurrent appenders interleave whole lines only.
 *  2. The sentinel's verdict is robust and its exit codes are a stable
 *     contract: a synthetic 2x slowdown exits 1, a matching run exits
 *     0, thin baselines pass on grace, bad usage exits 2.
 *  3. Live progress never perturbs results: a --jobs 8 grid with the
 *     JSONL heartbeat enabled is byte-identical to a silent serial
 *     grid.
 *  4. The HTML report round-trips from a real traced grid run and is
 *     self-contained (inline SVG, no external references).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fig_data.hpp"
#include "obs/fsio.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/progress.hpp"
#include "report/history.hpp"
#include "report/html_report.hpp"
#include "report/sentinel.hpp"
#include "report/sentinel_cli.hpp"

using namespace smq;

namespace {

class ReportTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        obs::resetMetrics();
        obs::setMetricsEnabled(true);
    }
    void TearDown() override
    {
        obs::stopProgress();
        obs::setMetricsEnabled(false);
        obs::resetMetrics();
    }
};

std::filesystem::path
freshDir(const std::string &name)
{
    std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

report::HistoryRecord
sampleRecord(double grid_ms = 120.0)
{
    report::HistoryRecord rec;
    rec.tool = "bench_perf";
    rec.gitRev = "abc1234";
    rec.deviceTableVersion = "v1";
    rec.seed = 7;
    rec.shots = 100;
    rec.repetitions = 2;
    rec.jobs = 4;
    const std::uint64_t ns =
        static_cast<std::uint64_t>(grid_ms * 1e6);
    rec.stages["fig2_grid_serial"] = obs::StageRollup{1, ns, ns, ns};
    rec.counters["sim.shots"] = 4200;
    rec.values["obs_overhead_frac"] = 0.004;
    rec.values["score.ghz@IonQ"] = 0.93;
    rec.extra["note"] = "quote\" and \\backslash";
    return rec;
}

/**
 * Minimal BENCH_perf.json with one grid stage at @p grid_ms. A
 * negative @p propagation_frac writes a pre-PR-9 file without the
 * propagation measurement.
 */
void
writePerfJson(const std::filesystem::path &path, double grid_ms,
              double propagation_frac = -1.0)
{
    std::ostringstream out;
    out << "{\n  \"threads_available\": 4,\n  \"grid_jobs\": 4,\n"
        << "  \"config\": {\"shots\": 100, \"repetitions\": 2, "
        << "\"full\": false},\n  \"stages\": [\n"
        << "    {\"name\": \"fig2_grid_serial\", \"wall_ms\": "
        << grid_ms << "}\n  ],\n"
        << "  \"obs_overhead\": {\"metrics_off_ms\": 10.0, "
        << "\"metrics_on_ms\": 10.04, \"overhead_frac\": 0.004, ";
    if (propagation_frac >= 0.0)
        out << "\"propagation_frac\": " << propagation_frac << ", ";
    out << "\"within_2pct\": true}\n}\n";
    ASSERT_TRUE(obs::atomicWriteFile(path.string(), out.str()));
}

/** One Chrome trace-event line for a hand-built trace.json. */
std::string
traceEvent(const char *name, double ts_us, double dur_us, int tid,
           const std::string &trace_id)
{
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(3);
    out << "{\"name\":\"" << name
        << "\",\"cat\":\"smq\",\"ph\":\"X\",\"ts\":" << ts_us
        << ",\"dur\":" << dur_us << ",\"tid\":" << tid
        << ",\"args\":{\"trace.id\":\"" << trace_id << "\"}}";
    return out.str();
}

void
writeTraceJson(const std::filesystem::path &dir,
               const std::string &events)
{
    std::filesystem::create_directories(dir);
    ASSERT_TRUE(obs::atomicWriteFile(
        (dir / "trace.json").string(),
        "{\"traceEvents\":[" + events + "]}\n"));
}

const std::string kTraceA(32, 'a');
const std::string kTraceB(32, 'b');

/**
 * A synthetic two-process trace pair: a client dir with one `submit`
 * span and a daemon dir whose clock epoch sits 44 s later, holding
 * the server-side spans of the same trace plus one span of an
 * unrelated trace. @p ts_shift_us moves a dir's epoch without moving
 * any span relative to its siblings — stitching must erase it.
 */
void
writeStitchDirs(const std::filesystem::path &client,
                const std::filesystem::path &daemon,
                double client_shift_us = 0.0,
                double daemon_shift_us = 0.0)
{
    writeTraceJson(client, traceEvent("submit", 7000.0 + client_shift_us,
                                      900.0, 1, kTraceB));
    writeTraceJson(
        daemon,
        traceEvent("serve.job", 52000.0 + daemon_shift_us, 400.0, 4,
                   kTraceB) +
            "," +
            traceEvent("serve.queue_wait", 51000.0 + daemon_shift_us,
                       800.0, 4, kTraceB) +
            "," +
            traceEvent("job", 52050.0 + daemon_shift_us, 300.0, 4,
                       kTraceA));
}

std::string
slurpFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream contents;
    contents << in.rdbuf();
    return contents.str();
}

bench::Scale
miniScale()
{
    bench::Scale scale;
    scale.defaultShots = 30;
    scale.repetitions = 2;
    scale.useCache = false;
    return scale;
}

} // namespace

// ---------------------------------------------------------------------
// Run-history store
// ---------------------------------------------------------------------

TEST_F(ReportTest, HistoryRecordRoundTripsThroughJsonLine)
{
    report::HistoryRecord rec = sampleRecord();
    const std::string line = rec.toJsonLine();
    EXPECT_EQ(line.find('\n'), std::string::npos);

    report::HistoryRecord back = report::HistoryRecord::fromJsonLine(line);
    EXPECT_EQ(back.schema, report::kHistorySchema);
    EXPECT_EQ(back.tool, rec.tool);
    EXPECT_EQ(back.gitRev, rec.gitRev);
    EXPECT_EQ(back.seed, rec.seed);
    EXPECT_EQ(back.shots, rec.shots);
    EXPECT_EQ(back.repetitions, rec.repetitions);
    EXPECT_EQ(back.jobs, rec.jobs);
    ASSERT_EQ(back.stages.count("fig2_grid_serial"), 1u);
    EXPECT_EQ(back.stages["fig2_grid_serial"].totalNs,
              rec.stages["fig2_grid_serial"].totalNs);
    EXPECT_EQ(back.counters["sim.shots"], 4200u);
    EXPECT_DOUBLE_EQ(back.values["score.ghz@IonQ"], 0.93);
    EXPECT_EQ(back.extra["note"], "quote\" and \\backslash");
    // Exact re-serialization: the line is a fixed point.
    EXPECT_EQ(back.toJsonLine(), line);
}

TEST_F(ReportTest, LoadSkipsCorruptTailAndCompactionDropsIt)
{
    const std::filesystem::path dir = freshDir("report_corrupt_tail");
    const std::string store = (dir / "runs.jsonl").string();
    ASSERT_TRUE(report::appendHistory(store, sampleRecord(100.0)));
    ASSERT_TRUE(report::appendHistory(store, sampleRecord(110.0)));
    {
        // Simulate a crash mid-append: half a record, no newline.
        std::ofstream out(store, std::ios::app);
        out << "{\"schema\":\"smq-run-history-v1\",\"tool\":\"ben";
    }
    report::HistoryLoad load = report::loadHistory(store);
    EXPECT_EQ(load.records.size(), 2u);
    EXPECT_EQ(load.skippedLines, 1u);
    EXPECT_TRUE(load.corruptTail);

    ASSERT_TRUE(report::compactHistory(store));
    load = report::loadHistory(store);
    EXPECT_EQ(load.records.size(), 2u);
    EXPECT_EQ(load.skippedLines, 0u);
    EXPECT_FALSE(load.corruptTail);

    // keepLast drops the oldest records atomically.
    ASSERT_TRUE(report::compactHistory(store, 1));
    load = report::loadHistory(store);
    ASSERT_EQ(load.records.size(), 1u);
    EXPECT_EQ(load.records[0].stages["fig2_grid_serial"].totalNs,
              static_cast<std::uint64_t>(110.0 * 1e6));
}

TEST_F(ReportTest, LoadCountsANonIntegerCountAsCorruptAndCompactDropsIt)
{
    // shots -1, repetitions 1.5 and jobs 1e3 once loaded as 2^64 - 1,
    // 1 and 1, and compact wrote those values back as if measured.
    const std::filesystem::path dir = freshDir("report_bad_counts");
    const std::string store = (dir / "runs.jsonl").string();
    ASSERT_TRUE(report::appendHistory(store, sampleRecord()));
    const std::string good = sampleRecord().toJsonLine();
    for (const auto &[from, to] :
         {std::pair{"\"shots\":100", "\"shots\":-1"},
          std::pair{"\"repetitions\":2", "\"repetitions\":1.5"},
          std::pair{"\"jobs\":4", "\"jobs\":1e3"},
          std::pair{"\"seed\":7", "\"seed\":18446744073709551616"}}) {
        std::string line = good;
        const std::size_t at = line.find(from);
        ASSERT_NE(at, std::string::npos) << from;
        line.replace(at, std::string(from).size(), to);
        ASSERT_TRUE(obs::appendLineDurable(store, line));
    }
    report::HistoryLoad load = report::loadHistory(store);
    EXPECT_EQ(load.records.size(), 1u);
    EXPECT_EQ(load.skippedLines, 4u);

    std::ostringstream out, err;
    EXPECT_EQ(report::sentinelMain({"compact", "--history", store}, out,
                                   err),
              report::kSentinelOk)
        << err.str();
    EXPECT_NE(out.str().find("4 corrupt line(s) dropped"),
              std::string::npos)
        << out.str();
    load = report::loadHistory(store);
    ASSERT_EQ(load.records.size(), 1u);
    EXPECT_EQ(load.skippedLines, 0u);
    EXPECT_EQ(load.records[0].toJsonLine(), good);
}

TEST_F(ReportTest, LoadAcceptsNewerSchemaVersionsAndSkipsForeignOnes)
{
    const std::filesystem::path dir = freshDir("report_mixed_schema");
    const std::string store = (dir / "runs.jsonl").string();
    report::HistoryRecord v1 = sampleRecord();
    ASSERT_TRUE(report::appendHistory(store, v1));
    // A v2 writer: same shape plus a field this loader doesn't know.
    std::string v2_line = v1.toJsonLine();
    const std::string from = "\"schema\":\"smq-run-history-v1\"";
    v2_line.replace(v2_line.find(from), from.size(),
                    "\"schema\":\"smq-run-history-v2\",\"future\":1");
    ASSERT_TRUE(obs::appendLineDurable(store, v2_line));
    // A foreign producer's line: parseable JSON, wrong schema family.
    ASSERT_TRUE(obs::appendLineDurable(
        store, "{\"schema\":\"other-format-v1\",\"tool\":\"x\"}"));

    report::HistoryLoad load = report::loadHistory(store);
    ASSERT_EQ(load.records.size(), 2u);
    EXPECT_EQ(load.records[1].schema, "smq-run-history-v2");
    EXPECT_EQ(load.records[1].tool, "bench_perf");
    EXPECT_EQ(load.skippedLines, 1u);
}

TEST_F(ReportTest, ConcurrentAppendsInterleaveWholeLinesOnly)
{
    const std::filesystem::path dir = freshDir("report_concurrent");
    const std::string store = (dir / "runs.jsonl").string();
    constexpr int kThreads = 8;
    constexpr int kAppendsPerThread = 25;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&store, t] {
            for (int i = 0; i < kAppendsPerThread; ++i) {
                report::HistoryRecord rec = sampleRecord(
                    100.0 + t * kAppendsPerThread + i);
                rec.seed = static_cast<std::uint64_t>(t);
                EXPECT_TRUE(report::appendHistory(store, rec));
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    report::HistoryLoad load = report::loadHistory(store);
    EXPECT_EQ(load.records.size(),
              static_cast<std::size_t>(kThreads * kAppendsPerThread));
    EXPECT_EQ(load.skippedLines, 0u);
    EXPECT_EQ(obs::counter(obs::names::kHistoryAppends).value(),
              static_cast<std::uint64_t>(kThreads * kAppendsPerThread));
}

// ---------------------------------------------------------------------
// Perf-regression sentinel
// ---------------------------------------------------------------------

TEST_F(ReportTest, CheckPerfFlagsTwoTimesSlowdownAndPassesSteadyState)
{
    std::vector<report::HistoryRecord> history = {
        sampleRecord(100.0), sampleRecord(102.0), sampleRecord(98.0)};
    report::PerfSnapshot current;
    current.shots = 100;
    current.repetitions = 2;
    current.stageMs["fig2_grid_serial"] = 101.0;

    report::CheckReport steady = report::checkPerf(current, history);
    EXPECT_FALSE(steady.regression());

    current.stageMs["fig2_grid_serial"] = 200.0; // synthetic 2x
    report::CheckReport slow = report::checkPerf(current, history);
    EXPECT_TRUE(slow.regression());
    EXPECT_NE(slow.render().find("REGRESSED"), std::string::npos);
}

TEST_F(ReportTest, CheckPerfGracesThinBaselinesAndConfigMismatches)
{
    report::PerfSnapshot current;
    current.shots = 100;
    current.repetitions = 2;
    current.stageMs["fig2_grid_serial"] = 500.0;

    // No baseline at all: first run passes.
    report::CheckReport first =
        report::checkPerf(current, {});
    EXPECT_FALSE(first.regression());
    EXPECT_EQ(first.baselineRuns, 0u);

    // Two runs when three are required: small-sample grace.
    std::vector<report::HistoryRecord> thin = {sampleRecord(100.0),
                                               sampleRecord(101.0)};
    report::CheckReport graced = report::checkPerf(current, thin);
    EXPECT_FALSE(graced.regression());
    EXPECT_NE(graced.render().find("grace"), std::string::npos);

    // A different workload config never matches the trajectory.
    std::vector<report::HistoryRecord> other = {
        sampleRecord(100.0), sampleRecord(100.0), sampleRecord(100.0)};
    for (report::HistoryRecord &rec : other)
        rec.shots = 999;
    report::CheckReport mismatched = report::checkPerf(current, other);
    EXPECT_FALSE(mismatched.regression());
    EXPECT_EQ(mismatched.baselineRuns, 0u);
}

TEST_F(ReportTest, SentinelCliExitCodesAreAStableContract)
{
    const std::filesystem::path dir = freshDir("report_sentinel_cli");
    const std::string store = (dir / "runs.jsonl").string();
    const std::string perf = (dir / "BENCH_perf.json").string();
    writePerfJson(perf, 100.0);

    std::ostringstream out, err;
    auto run = [&](std::vector<std::string> args) {
        out.str("");
        err.str("");
        return report::sentinelMain(args, out, err);
    };

    // Usage errors exit 2.
    EXPECT_EQ(run({}), report::kSentinelUsage);
    EXPECT_EQ(run({"frobnicate"}), report::kSentinelUsage);
    EXPECT_EQ(run({"check", perf}), report::kSentinelUsage);
    EXPECT_EQ(run({"check", (dir / "missing.json").string(),
                   "--baseline", store}),
              report::kSentinelUsage);

    // First run: no store yet, passes on grace.
    EXPECT_EQ(run({"check", perf, "--baseline", store}),
              report::kSentinelOk);
    EXPECT_NE(out.str().find("grace"), std::string::npos);

    // Promote three baseline runs, then a matching check passes...
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(run({"baseline", perf, "--history", store}),
                  report::kSentinelOk);
    EXPECT_EQ(run({"check", perf, "--baseline", store}),
              report::kSentinelOk);
    EXPECT_NE(out.str().find("verdict: ok"), std::string::npos);

    // ...and a synthetic 2x slowdown fails with exit 1.
    writePerfJson(perf, 200.0);
    EXPECT_EQ(run({"check", perf, "--baseline", store}),
              report::kSentinelRegression);
    EXPECT_NE(out.str().find("REGRESSED"), std::string::npos);

    // A looser threshold can wave the same slowdown through.
    EXPECT_EQ(run({"check", perf, "--baseline", store, "--threshold",
                   "2.5"}),
              report::kSentinelOk);
}

TEST_F(ReportTest, SentinelIngestFlattensManifestDirectories)
{
    const std::filesystem::path dir = freshDir("report_ingest");
    const std::string store = (dir / "runs.jsonl").string();
    std::filesystem::create_directories(dir / "nested");
    {
        bench::Scale scale = miniScale();
        bench::ObsSession session("ingest_tool", scale);
        session.note("origin", "test");
    }
    // ObsSession writes into the CWD; move the manifest under dir.
    std::filesystem::rename("ingest_tool_manifest.json",
                            dir / "nested" / "ingest_tool_manifest.json");

    std::ostringstream out, err;
    EXPECT_EQ(report::sentinelMain({"ingest", dir.string(), "--history",
                                    store},
                                   out, err),
              report::kSentinelOk);
    EXPECT_NE(out.str().find("ingested 1 manifest(s)"),
              std::string::npos);
    report::HistoryLoad load = report::loadHistory(store);
    ASSERT_EQ(load.records.size(), 1u);
    EXPECT_EQ(load.records[0].tool, "ingest_tool");
    EXPECT_EQ(load.records[0].extra["origin"], "test");
}

TEST_F(ReportTest, PropagationGateSkipsLegacyFilesAndJudgesNewOnes)
{
    const std::filesystem::path dir = freshDir("report_propagation");

    // Pre-PR-9 perf files carry no propagation measurement: the
    // snapshot says so explicitly (-1), and flattening to history
    // omits the key rather than recording a phantom 0.
    const std::string legacy = (dir / "legacy.json").string();
    writePerfJson(legacy, 100.0);
    report::PerfSnapshot old_snap = report::loadPerfJson(legacy);
    EXPECT_DOUBLE_EQ(old_snap.obsPropagationFrac, -1.0);
    EXPECT_EQ(report::historyFromPerf(old_snap)
                  .values.count("obs_propagation_frac"),
              0u);

    // A current file round-trips the fraction into history values.
    const std::string fresh = (dir / "fresh.json").string();
    writePerfJson(fresh, 100.0, 0.004);
    report::PerfSnapshot snap = report::loadPerfJson(fresh);
    EXPECT_DOUBLE_EQ(snap.obsPropagationFrac, 0.004);
    EXPECT_DOUBLE_EQ(report::historyFromPerf(snap).values.at(
                         "obs_propagation_frac"),
                     0.004);

    std::vector<report::HistoryRecord> history;
    for (double frac : {0.004, 0.005, 0.006}) {
        report::HistoryRecord rec = sampleRecord(100.0);
        rec.values["obs_propagation_frac"] = frac;
        history.push_back(rec);
    }
    report::PerfSnapshot current;
    current.shots = 100;
    current.repetitions = 2;
    current.stageMs["fig2_grid_serial"] = 100.0;

    // Inside the absolute 2% budget nothing fails, even at ~4x the
    // baseline median — overhead within budget is not a regression.
    current.obsPropagationFrac = 0.019;
    EXPECT_FALSE(report::checkPerf(current, history).regression());

    // Blowing the budget AND the robust gates regresses, attributed
    // to the propagation pseudo-stage in the verdict table.
    current.obsPropagationFrac = 0.05;
    report::CheckReport busted = report::checkPerf(current, history);
    EXPECT_TRUE(busted.regression());
    bool propagation_regressed = false;
    for (const report::StageCheck &stage : busted.stages) {
        if (stage.stage == "obs_propagation_frac")
            propagation_regressed = stage.regressed;
    }
    EXPECT_TRUE(propagation_regressed);
    EXPECT_NE(busted.render().find("obs_propagation_frac"),
              std::string::npos);

    // A legacy *current* run: the gate is absent, not a zero verdict.
    current.obsPropagationFrac = -1.0;
    report::CheckReport skipped = report::checkPerf(current, history);
    EXPECT_FALSE(skipped.regression());
    for (const report::StageCheck &stage : skipped.stages)
        EXPECT_NE(stage.stage, "obs_propagation_frac");
}

// ---------------------------------------------------------------------
// Multi-process trace stitching
// ---------------------------------------------------------------------

TEST_F(ReportTest, MergedChromeTraceNormalizesEpochsDeterministically)
{
    const std::filesystem::path dir = freshDir("report_merged_trace");
    const std::filesystem::path client = dir / "client";
    const std::filesystem::path daemon = dir / "daemon";
    writeStitchDirs(client, daemon);

    std::string note;
    const std::string merged = report::renderMergedChromeTrace(
        {client.string(), daemon.string()}, note);
    EXPECT_TRUE(note.empty()) << note;

    obs::JsonValue root = obs::parseJson(merged);
    const std::vector<obs::JsonValue> &events =
        root.at("traceEvents").array;
    ASSERT_EQ(events.size(), 4u);

    // Ordered by (trace id, process, ts): trace A's lone daemon span
    // first, then trace B's client submit followed by the daemon side.
    EXPECT_EQ(events[0].at("name").asString(), "job");
    EXPECT_EQ(events[0].at("pid").asU64(), 2u);
    EXPECT_EQ(events[0].at("args").at("trace.id").asString(), kTraceA);
    EXPECT_EQ(events[1].at("name").asString(), "submit");
    EXPECT_EQ(events[1].at("pid").asU64(), 1u);
    EXPECT_EQ(events[2].at("name").asString(), "serve.queue_wait");
    EXPECT_EQ(events[2].at("pid").asU64(), 2u);
    EXPECT_EQ(events[3].at("name").asString(), "serve.job");
    EXPECT_EQ(events[3].at("args").at("trace.id").asString(), kTraceB);

    // Each directory's timestamps are normalized to its own earliest
    // span: both processes start at 0 despite 44 s of epoch skew.
    EXPECT_DOUBLE_EQ(events[1].at("ts").asDouble(), 0.0);
    EXPECT_DOUBLE_EQ(events[2].at("ts").asDouble(), 0.0);
    EXPECT_DOUBLE_EQ(events[3].at("ts").asDouble(), 1000.0);
    EXPECT_DOUBLE_EQ(events[0].at("ts").asDouble(), 1050.0);

    // Shifting either process's clock epoch is invisible: the merged
    // document is byte-identical, which is the determinism contract.
    writeStitchDirs(client, daemon, /*client_shift_us=*/123456.25,
                    /*daemon_shift_us=*/987654.5);
    std::string shifted_note;
    EXPECT_EQ(report::renderMergedChromeTrace(
                  {client.string(), daemon.string()}, shifted_note),
              merged);

    // An unreadable directory degrades to a note, not a failure.
    std::string missing_note;
    EXPECT_EQ(report::renderMergedChromeTrace(
                  {client.string(), daemon.string(),
                   (dir / "nope").string()},
                  missing_note),
              merged);
    EXPECT_NE(missing_note.find("no trace.json"), std::string::npos);
}

TEST_F(ReportTest, HtmlReportDrawsStitchedPerProcessLanes)
{
    const std::filesystem::path dir = freshDir("report_stitch_html");
    const std::filesystem::path client = dir / "client";
    const std::filesystem::path daemon = dir / "daemon";
    writeStitchDirs(client, daemon);

    report::ReportInputs inputs;
    inputs.history = {sampleRecord()};
    inputs.traceDirs = {client.string(), daemon.string()};
    const std::string html = report::renderHtmlReport(inputs);

    // Lanes are keyed (process, thread) and labelled p<P>/t<T> once
    // more than one process contributes spans.
    EXPECT_NE(html.find("p0/t1"), std::string::npos);
    EXPECT_NE(html.find("p1/t4"), std::string::npos);
    EXPECT_NE(html.find("process 1, thread 4"), std::string::npos);
    EXPECT_NE(html.find("serve.queue_wait"), std::string::npos);
    EXPECT_NE(html.find("trace " + kTraceB), std::string::npos);
}

TEST_F(ReportTest, SentinelReportCliWritesTheMergedTraceDocument)
{
    const std::filesystem::path dir = freshDir("report_merged_cli");
    const std::filesystem::path client = dir / "client";
    const std::filesystem::path daemon = dir / "daemon";
    writeStitchDirs(client, daemon);
    const std::string store = (dir / "runs.jsonl").string();
    ASSERT_TRUE(report::appendHistory(store, sampleRecord()));

    const std::string merged_path = (dir / "merged.json").string();
    const std::string out_path = (dir / "report.html").string();
    std::ostringstream out, err;
    EXPECT_EQ(report::sentinelMain(
                  {"report", "--history", store, "--trace",
                   client.string(), "--trace", daemon.string(), "--out",
                   out_path, "--merged-trace", merged_path},
                  out, err),
              report::kSentinelOk);

    obs::JsonValue root = obs::parseJson(slurpFile(merged_path));
    std::set<std::uint64_t> pids;
    for (const obs::JsonValue &e : root.at("traceEvents").array)
        pids.insert(e.at("pid").asU64());
    EXPECT_EQ(pids, (std::set<std::uint64_t>{1, 2}));

    const std::string html = slurpFile(out_path);
    EXPECT_NE(html.find("p1/t4"), std::string::npos);
}

// ---------------------------------------------------------------------
// Live progress
// ---------------------------------------------------------------------

TEST_F(ReportTest, HeartbeatParallelGridIsByteIdenticalToSilentSerial)
{
    bench::Scale scale = miniScale();
    scale.jobs = 1;
    const std::string silent_serial =
        bench::serializeGrid(bench::computeFig2Grid(scale));

    std::ostringstream heartbeat;
    obs::ProgressOptions options;
    options.mode = obs::ProgressOptions::Mode::Jsonl;
    options.heartbeatSecs = 0.0; // emit on every tick
    options.out = &heartbeat;
    obs::startProgress(options);
    scale.jobs = 8;
    const std::string reported_parallel =
        bench::serializeGrid(bench::computeFig2Grid(scale));
    obs::stopProgress();

    EXPECT_EQ(reported_parallel, silent_serial);

    // The stream really carried progress, one JSON object per line,
    // cell counts reaching the full grid.
    const std::string stream = heartbeat.str();
    EXPECT_NE(stream.find("\"event\":\"progress\""), std::string::npos);
    EXPECT_NE(stream.find("\"unit\":\"job\""), std::string::npos);
    EXPECT_NE(stream.find("\"event\":\"progress_end\""),
              std::string::npos);
    EXPECT_GT(obs::counter(obs::names::kProgressTicks).value(), 0u);
}

TEST_F(ReportTest, ProgressOffIsTheDefaultAndTicksAreFree)
{
    EXPECT_FALSE(obs::progressEnabled());
    // Safe no-ops without a sink; nothing counted.
    obs::progressTick(obs::names::kSpanJob);
    obs::progressEnd();
    EXPECT_EQ(obs::counter(obs::names::kProgressTicks).value(), 0u);
}

TEST_F(ReportTest, TtyProgressOverwritesOneLineAndFinishesWithNewline)
{
    std::ostringstream tty;
    obs::ProgressOptions options;
    options.mode = obs::ProgressOptions::Mode::Tty;
    options.heartbeatSecs = 0.0;
    options.out = &tty;
    obs::startProgress(options);
    obs::progressBegin("grid", obs::names::kSpanJob, 4, 2);
    for (int i = 0; i < 4; ++i)
        obs::progressTick(obs::names::kSpanJob);
    // Ticks of a different unit are ignored, not double-counted.
    obs::progressTick(obs::names::kSpanRepetition);
    obs::progressEnd();
    obs::stopProgress();

    const std::string text = tty.str();
    EXPECT_NE(text.find('\r'), std::string::npos);
    EXPECT_NE(text.find("4/4"), std::string::npos);
    EXPECT_EQ(text.find("5/4"), std::string::npos);
    EXPECT_EQ(text.back(), '\n');
}

// ---------------------------------------------------------------------
// HTML run report
// ---------------------------------------------------------------------

TEST_F(ReportTest, HtmlReportRoundTripsFromARealTracedGridRun)
{
    const std::filesystem::path dir = freshDir("report_html");
    const std::string store = (dir / "runs.jsonl").string();
    bench::Scale scale = miniScale();
    scale.traceDir = (dir / "trace").string();
    scale.historyPath = store;
    {
        bench::ObsSession session("report_html_tool", scale);
        bench::Fig2Grid grid = bench::computeFig2Grid(scale);
        bench::noteGridScores(session, grid);
    }
    std::filesystem::remove("report_html_tool_manifest.json");

    report::HistoryLoad load = report::loadHistory(store);
    ASSERT_EQ(load.records.size(), 1u);
    EXPECT_FALSE(load.records[0].stages.empty());

    report::ReportInputs inputs;
    inputs.history = load.records;
    inputs.traceDirs = {scale.traceDir};
    const std::string html = report::renderHtmlReport(inputs);

    EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
    EXPECT_NE(html.find("<svg"), std::string::npos); // waterfall drawn
    EXPECT_NE(html.find("report_html_tool"), std::string::npos);
    // Fig. 2 matrix: a benchmark row and a device column made it in.
    EXPECT_NE(html.find("ghz"), std::string::npos);
    EXPECT_NE(html.find("IonQ"), std::string::npos);
    // Self-contained: no external scripts, stylesheets or images.
    EXPECT_EQ(html.find("<script"), std::string::npos);
    EXPECT_EQ(html.find("http://"), std::string::npos);
    EXPECT_EQ(html.find("https://"), std::string::npos);

    // The CLI path writes the same page atomically.
    const std::string out_path = (dir / "report.html").string();
    std::ostringstream out, err;
    EXPECT_EQ(report::sentinelMain({"report", "--history", store,
                                    "--trace", scale.traceDir, "--out",
                                    out_path},
                                   out, err),
              report::kSentinelOk);
    std::ifstream written(out_path);
    ASSERT_TRUE(written);
    std::ostringstream contents;
    contents << written.rdbuf();
    EXPECT_NE(contents.str().find("<svg"), std::string::npos);
}

TEST_F(ReportTest, HtmlReportDegradesGracefullyWithoutInputs)
{
    report::ReportInputs inputs; // empty store, no trace
    const std::string html = report::renderHtmlReport(inputs);
    EXPECT_NE(html.find("store is empty"), std::string::npos);

    inputs.history = {sampleRecord()};
    inputs.traceDirs = {"/nonexistent/trace/dir"};
    const std::string with_note = report::renderHtmlReport(inputs);
    EXPECT_NE(with_note.find("no trace.json"), std::string::npos);

    // Escaping: hostile names cannot break out of the markup.
    report::HistoryRecord hostile = sampleRecord();
    hostile.tool = "<script>alert(1)</script>";
    inputs.history = {hostile};
    const std::string escaped = report::renderHtmlReport(inputs);
    EXPECT_EQ(escaped.find("<script>alert"), std::string::npos);
    EXPECT_NE(escaped.find("&lt;script&gt;"), std::string::npos);
}
