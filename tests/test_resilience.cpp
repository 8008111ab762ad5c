/**
 * @file
 * Crash-tolerance tests: deterministic shard partitioning, the
 * checkpoint journal (round-trip, corrupt-tail tolerance, merge with
 * overlap/conflict/missing detection), the simulator memory budget,
 * cooperative shutdown, and — through real subprocesses of
 * smq_grid_tool — the two acceptance properties: a sweep SIGKILLed at
 * every journal boundary and resumed is byte-identical to an
 * uninterrupted one, and the merge of N shard journals equals the
 * merge of a serial journal for N in {2, 3, 5}.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/harness.hpp"
#include "core/suites.hpp"
#include "device/device.hpp"
#include "jobs/scheduler.hpp"
#include "obs/fsio.hpp"
#include "report/checkpoint.hpp"
#include "report/history.hpp"
#include "report/sentinel_cli.hpp"
#include "sim/density_matrix.hpp"
#include "sim/memory.hpp"
#include "sim/statevector.hpp"
#include "util/stop.hpp"
#include "util/thread_pool.hpp"

namespace smq {
namespace {

namespace fs = std::filesystem;

// --- shard partitioner -----------------------------------------------

TEST(ShardSpec, ParseAcceptsOnlyStrictIOverN)
{
    auto spec = core::parseShardSpec("2/5");
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->index, 2u);
    EXPECT_EQ(spec->count, 5u);
    EXPECT_TRUE(spec->active());
    EXPECT_EQ(spec->text(), "2/5");

    auto whole = core::parseShardSpec("0/1");
    ASSERT_TRUE(whole.has_value());
    EXPECT_FALSE(whole->active());

    for (const char *bad :
         {"", "/", "1/", "/3", "3/3", "5/2", "1/0", "1/3x", "x1/3",
          "1//3", "-1/3", "1/3 ", " 1/3", "1.0/3"}) {
        EXPECT_FALSE(core::parseShardSpec(bad).has_value())
            << "accepted '" << bad << "'";
    }
}

TEST(ShardPartition, EveryCellOwnedByExactlyOneShard)
{
    std::vector<core::BenchmarkPtr> suite = core::quickSuite();
    std::vector<device::Device> devices = device::allDevices();
    for (std::size_t n : {2u, 3u, 5u}) {
        std::size_t total = 0;
        std::vector<std::size_t> per_shard(n, 0);
        for (const core::BenchmarkPtr &bench : suite) {
            for (const device::Device &dev : devices) {
                const std::size_t owner =
                    core::shardOfCell(bench->name(), dev.name, n);
                ASSERT_LT(owner, n);
                std::size_t owners = 0;
                for (std::size_t i = 0; i < n; ++i) {
                    core::ShardSpec shard{i, n};
                    if (core::shardOwnsCell(shard, bench->name(),
                                            dev.name)) {
                        ++owners;
                        EXPECT_EQ(i, owner);
                    }
                }
                EXPECT_EQ(owners, 1u);
                ++per_shard[owner];
                ++total;
            }
        }
        EXPECT_EQ(total, suite.size() * devices.size());
        // The label hash should spread the quick grid over shards
        // (deterministic given the fixed derivation, so not flaky).
        std::size_t non_empty = 0;
        for (std::size_t count : per_shard)
            non_empty += count > 0 ? 1 : 0;
        EXPECT_GE(non_empty, 2u) << "degenerate split at N=" << n;
    }
}

TEST(ShardPartition, AssignmentDependsOnlyOnLabels)
{
    // Pure function of (benchmark, device, N): repeated calls and
    // interleaved unrelated calls cannot change an assignment.
    const std::size_t a = core::shardOfCell("ghz_5", "IonQ", 3);
    core::shardOfCell("vqe_4", "AQT", 3);
    EXPECT_EQ(core::shardOfCell("ghz_5", "IonQ", 3), a);
    EXPECT_EQ(core::shardOfCell("ghz_5", "IonQ", 1), 0u);
}

// --- checkpoint journal ----------------------------------------------

fs::path
freshDir(const std::string &name)
{
    fs::path dir = fs::temp_directory_path() /
                   ("smq_resilience_" + name + "_" +
                    std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

report::CheckpointHeader
demoHeader()
{
    report::CheckpointHeader header;
    header.tool = "test";
    header.config = "shots=40;repetitions=2;faults=0;fault_seed=2022";
    header.shardIndex = 0;
    header.shardCount = 1;
    header.devices = {"devA", "devB"};
    header.benchmarks = {"bench1", "bench2"};
    return header;
}

report::GridRow
demoRow(const std::string &benchmark)
{
    report::GridRow row;
    row.benchmark = benchmark;
    row.isErrorCorrection = false;
    row.features = {0.1, 0.2, 0.3, 0.4, 0.5, 0.625};
    row.stats = {4, 7, 30, 12, 4, 0};
    return row;
}

core::BenchmarkRun
demoCell(const std::string &benchmark, const std::string &device,
         double score)
{
    core::BenchmarkRun cell;
    cell.benchmark = benchmark;
    cell.device = device;
    cell.status = core::RunStatus::Ok;
    cell.cause = core::FailureCause::None;
    cell.plannedRepetitions = 2;
    cell.attempts = 2;
    cell.errorBarScale = 1.0;
    cell.swapsInserted = 3;
    cell.physicalTwoQubitGates = 17;
    cell.scores = {score, score / 3.0};
    return cell;
}

void
writeFullJournal(const fs::path &dir,
                 const report::CheckpointHeader &header)
{
    report::CheckpointWriter writer(dir.string());
    ASSERT_TRUE(writer.writeHeader(header));
    for (const std::string &bench : header.benchmarks)
        ASSERT_TRUE(writer.appendRow(demoRow(bench)));
    for (const std::string &bench : header.benchmarks)
        for (const std::string &dev : header.devices)
            ASSERT_TRUE(writer.appendCell(demoCell(bench, dev, 0.9)));
    EXPECT_TRUE(writer.error().empty());
}

TEST(Checkpoint, JournalRoundTripsExactly)
{
    fs::path dir = freshDir("roundtrip");
    report::CheckpointHeader header = demoHeader();
    writeFullJournal(dir, header);

    report::CheckpointLoad load = report::loadCheckpoint(dir.string());
    EXPECT_TRUE(load.exists);
    ASSERT_TRUE(load.headerOk);
    EXPECT_TRUE(load.header.sameWorkload(header));
    EXPECT_EQ(load.header.tool, "test");
    ASSERT_EQ(load.rows.size(), 2u);
    EXPECT_EQ(report::journalLine(load.rows[0]),
              report::journalLine(demoRow("bench1")));
    ASSERT_EQ(load.cells.size(), 4u);
    EXPECT_EQ(report::journalLine(load.cells[0]),
              report::journalLine(demoCell("bench1", "devA", 0.9)));
    EXPECT_EQ(load.skippedLines, 0u);
    EXPECT_FALSE(load.corruptTail);
    fs::remove_all(dir);
}

TEST(Checkpoint, JournalLinesArePinned)
{
    // Recorded from the journal writer before the grid and the journal
    // shared one type: a drift here breaks resuming older journals.
    const std::string row_line =
        "{\"schema\":\"smq-checkpoint-v1\",\"kind\":\"row\","
        "\"benchmark\":\"bit_code_4_3\",\"error_correction\":true,"
        "\"features\":[0.33333333333333331,0.10000000000000001,"
        "0.2857142857142857,0.94999999999999996,0.12345678901234568,0],"
        "\"stats\":[7,19,44,12,10,3]}";
    const std::string cell_line =
        "{\"schema\":\"smq-checkpoint-v1\",\"kind\":\"cell\","
        "\"benchmark\":\"bit_code_4_3\",\"device\":\"IBM-Casablanca\","
        "\"final\":false,\"status\":1,\"cause\":10,\"planned\":3,"
        "\"attempts\":4,\"error_bar\":1.2247448713915889,\"swaps\":5,"
        "\"phys_2q\":23,"
        "\"plan\":\"density-matrix:exact-noise+trajectory:mid-circuit\","
        "\"scores\":[0.6180339887498949,0.33333333333333331]}";

    report::GridRow row;
    row.benchmark = "bit_code_4_3";
    row.isErrorCorrection = true;
    row.features = {1.0 / 3.0, 0.1, 2.0 / 7.0, 0.95, 0.123456789012345678,
                    0.0};
    row.stats = {7, 19, 44, 12, 10, 3};
    EXPECT_EQ(report::journalLine(row), row_line);

    core::BenchmarkRun cell;
    cell.benchmark = "bit_code_4_3";
    cell.device = "IBM-Casablanca";
    cell.status = core::RunStatus::Partial;
    cell.cause = core::FailureCause::Interrupted;
    cell.plannedRepetitions = 3;
    cell.attempts = 4;
    cell.errorBarScale = std::sqrt(3.0 / 2.0);
    cell.swapsInserted = 5;
    cell.physicalTwoQubitGates = 23;
    cell.plan = "density-matrix:exact-noise+trajectory:mid-circuit";
    cell.scores = {(std::sqrt(5.0) - 1.0) / 2.0, 1.0 / 3.0};
    EXPECT_EQ(report::journalLine(cell), cell_line);

    // The reader takes both lines back to the same records.
    fs::path dir = freshDir("pinned");
    {
        report::CheckpointWriter writer(dir.string());
        ASSERT_TRUE(writer.writeHeader(demoHeader()));
        std::ofstream out(dir / report::kCheckpointFile, std::ios::app);
        out << row_line << "\n" << cell_line << "\n";
    }
    report::CheckpointLoad load = report::loadCheckpoint(dir.string());
    EXPECT_EQ(load.skippedLines, 0u);
    ASSERT_EQ(load.rows.size(), 1u);
    ASSERT_EQ(load.cells.size(), 1u);
    EXPECT_EQ(report::journalLine(load.rows[0]), row_line);
    EXPECT_EQ(report::journalLine(load.cells[0]), cell_line);
    EXPECT_FALSE(report::isFinal(load.cells[0]));
    EXPECT_EQ(load.cells[0].summary.n, 2u);
    fs::remove_all(dir);
}

TEST(Checkpoint, TruncatedTailIsToleratedNotFatal)
{
    fs::path dir = freshDir("corrupt");
    writeFullJournal(dir, demoHeader());
    {
        // What a SIGKILL mid-write leaves behind: a torn last line.
        std::ofstream out(dir / report::kCheckpointFile,
                          std::ios::app);
        out << "{\"schema\":\"smq-checkpoint-v1\",\"kind\":\"cel";
    }
    report::CheckpointLoad load = report::loadCheckpoint(dir.string());
    EXPECT_TRUE(load.headerOk);
    EXPECT_EQ(load.cells.size(), 4u);
    EXPECT_EQ(load.skippedLines, 1u);
    EXPECT_TRUE(load.corruptTail);
    fs::remove_all(dir);
}

TEST(Checkpoint, MissingJournalIsAFreshStart)
{
    fs::path dir = freshDir("missing");
    report::CheckpointLoad load = report::loadCheckpoint(dir.string());
    EXPECT_FALSE(load.exists);
    EXPECT_FALSE(load.headerOk);
    fs::remove_all(dir);
}

TEST(Checkpoint, InactiveWriterIsANoOp)
{
    report::CheckpointWriter writer;
    EXPECT_FALSE(writer.active());
    EXPECT_TRUE(writer.writeHeader(demoHeader()));
    EXPECT_TRUE(writer.appendCell(demoCell("b", "d", 0.5)));
    EXPECT_EQ(writer.cellsJournaled(), 0u);
}

TEST(Checkpoint, WriteFailureSurfacesErrnoText)
{
    // Parent "directory" is a regular file: every write must fail
    // with a structured error, not a silent false.
    fs::path blocker = freshDir("blocker") / "file";
    { std::ofstream out(blocker); out << "x"; }
    report::CheckpointWriter writer((blocker / "sub").string());
    EXPECT_FALSE(writer.appendCell(demoCell("b", "d", 0.5)));
    EXPECT_FALSE(writer.error().empty());
    fs::remove_all(blocker.parent_path());
}

TEST(History, AppendFailureSurfacesErrnoText)
{
    report::HistoryRecord record;
    record.tool = "test";
    std::string error;
    EXPECT_FALSE(report::appendHistory(
        "/nonexistent-smq-dir/runs.jsonl", record, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_NE(error.find(":"), std::string::npos) << error;
}

// --- merge -----------------------------------------------------------

TEST(Merge, ShardUnionReassemblesAndFlagsOverlap)
{
    report::CheckpointHeader header = demoHeader();
    header.shardCount = 2;

    fs::path dir0 = freshDir("merge_s0");
    header.shardIndex = 0;
    {
        report::CheckpointWriter writer(dir0.string());
        writer.writeHeader(header);
        for (const std::string &bench : header.benchmarks)
            writer.appendRow(demoRow(bench));
        writer.appendCell(demoCell("bench1", "devA", 0.9));
        writer.appendCell(demoCell("bench2", "devB", 0.7));
        // Overlap: also journaled (identically) by shard 1.
        writer.appendCell(demoCell("bench1", "devB", 0.8));
    }
    fs::path dir1 = freshDir("merge_s1");
    header.shardIndex = 1;
    {
        report::CheckpointWriter writer(dir1.string());
        writer.writeHeader(header);
        for (const std::string &bench : header.benchmarks)
            writer.appendRow(demoRow(bench));
        writer.appendCell(demoCell("bench1", "devB", 0.8));
        writer.appendCell(demoCell("bench2", "devA", 0.6));
    }

    report::MergedGrid merged =
        report::mergeCheckpoints({dir0.string(), dir1.string()});
    EXPECT_TRUE(merged.complete());
    EXPECT_TRUE(merged.missingShards.empty());
    EXPECT_TRUE(merged.missingCells.empty());
    ASSERT_EQ(merged.overlapCells.size(), 1u);
    EXPECT_EQ(merged.overlapCells[0], "bench1@devB");
    ASSERT_EQ(merged.grid.rows.size(), 2u);
    ASSERT_EQ(merged.grid.rows[1].runs.size(), 2u);
    EXPECT_EQ(report::journalLine(merged.grid.rows[1].runs[0]),
              report::journalLine(demoCell("bench2", "devA", 0.6)));

    // A missing shard demotes the merge to incomplete, listing gaps.
    report::MergedGrid partial =
        report::mergeCheckpoints({dir0.string()});
    EXPECT_FALSE(partial.complete());
    ASSERT_EQ(partial.missingShards.size(), 1u);
    EXPECT_EQ(partial.missingShards[0], 1u);
    EXPECT_EQ(partial.missingCells.size(), 1u);
    EXPECT_EQ(partial.missingCells[0], "bench2@devA");
    // The gap is the placeholder an unclaimed cell gets, without scores.
    const core::BenchmarkRun &gap = partial.grid.rows[1].runs[0];
    EXPECT_EQ(gap.benchmark + "@" + gap.device, "bench2@devA");
    EXPECT_EQ(gap.status, core::RunStatus::Skipped);
    EXPECT_EQ(gap.cause, core::FailureCause::Interrupted);
    EXPECT_TRUE(gap.scores.empty());

    fs::remove_all(dir0);
    fs::remove_all(dir1);
}

TEST(Merge, ConflictingResultsAndForeignWorkloadsThrow)
{
    report::CheckpointHeader header = demoHeader();
    fs::path dir0 = freshDir("conflict_a");
    {
        report::CheckpointWriter writer(dir0.string());
        writer.writeHeader(header);
        writer.appendRow(demoRow("bench1"));
        writer.appendCell(demoCell("bench1", "devA", 0.9));
    }
    fs::path dir1 = freshDir("conflict_b");
    {
        report::CheckpointWriter writer(dir1.string());
        writer.writeHeader(header);
        writer.appendRow(demoRow("bench1"));
        writer.appendCell(demoCell("bench1", "devA", 0.1)); // diverges
    }
    EXPECT_THROW(
        report::mergeCheckpoints({dir0.string(), dir1.string()}),
        std::runtime_error);

    fs::path dir2 = freshDir("conflict_c");
    {
        report::CheckpointHeader other = header;
        other.config = "shots=9999";
        report::CheckpointWriter writer(dir2.string());
        writer.writeHeader(other);
    }
    EXPECT_THROW(
        report::mergeCheckpoints({dir0.string(), dir2.string()}),
        std::runtime_error);
    EXPECT_THROW(report::mergeCheckpoints({}), std::runtime_error);

    fs::remove_all(dir0);
    fs::remove_all(dir1);
    fs::remove_all(dir2);
}

TEST(Merge, SalvagedRecordsFillGapsButNeverDisplaceFinals)
{
    report::CheckpointHeader header = demoHeader();
    header.devices = {"devA"};
    header.benchmarks = {"bench1"};
    fs::path dir = freshDir("salvage");
    {
        report::CheckpointWriter writer(dir.string());
        writer.writeHeader(header);
        writer.appendRow(demoRow("bench1"));
        core::BenchmarkRun partial = demoCell("bench1", "devA", 0.4);
        partial.cause = core::FailureCause::Interrupted;
        writer.appendCell(partial);
        writer.appendCell(demoCell("bench1", "devA", 0.9));
    }
    report::MergedGrid merged =
        report::mergeCheckpoints({dir.string()});
    EXPECT_TRUE(merged.complete());
    EXPECT_EQ(merged.salvagedDropped, 1u);
    EXPECT_EQ(merged.grid.rows[0].runs[0].scores[0], 0.9);
    fs::remove_all(dir);
}

// --- memory budget ---------------------------------------------------

/** RAII budget override so a throwing test cannot leak the budget. */
class BudgetGuard
{
  public:
    explicit BudgetGuard(std::size_t bytes)
    {
        sim::setMemoryBudgetBytes(bytes);
    }
    ~BudgetGuard() { sim::setMemoryBudgetBytes(0); }
};

TEST(MemoryBudget, DenseBytesSaturatesInsteadOfOverflowing)
{
    EXPECT_EQ(sim::denseBytes(3, 16, false), 8u * 16u);
    EXPECT_EQ(sim::denseBytes(3, 16, true), 64u * 16u);
    EXPECT_EQ(sim::denseBytes(200, 16, false), SIZE_MAX);
    EXPECT_EQ(sim::denseBytes(100, 16, true), SIZE_MAX);
}

TEST(MemoryBudget, DenseSimulatorsRefuseOverBudgetUpFront)
{
    BudgetGuard guard(1024); // 1 KiB: nothing real fits
    try {
        sim::StateVector sv(10); // would be 16 KiB
        FAIL() << "allocation was not refused";
    } catch (const sim::ResourceExhausted &e) {
        EXPECT_GT(e.requested, e.budget);
        EXPECT_NE(std::string(e.what()).find("memory budget"),
                  std::string::npos);
    }
    EXPECT_THROW(sim::DensityMatrix dm(6), sim::ResourceExhausted);
}

TEST(MemoryBudget, HarnessReportsStructuredTooLargeCell)
{
    // Build the suite before tightening the budget: the QAOA
    // constructors legitimately simulate during parameter setup.
    std::vector<core::BenchmarkPtr> suite = core::quickSuite();
    device::Device dev = device::allDevices().front();
    BudgetGuard guard(64);
    core::HarnessOptions options;
    options.shots = 50;
    options.repetitions = 2;
    core::BenchmarkRun run = core::runBenchmark(*suite[0], dev, options);
    EXPECT_EQ(run.status, core::RunStatus::TooLarge);
    EXPECT_EQ(run.cause, core::FailureCause::ResourceExhausted);
    EXPECT_TRUE(run.scores.empty());
    EXPECT_NE(run.detail.find("memory budget"), std::string::npos);
}

TEST(MemoryBudget, JobLayerReportsStructuredTooLargeCell)
{
    std::vector<core::BenchmarkPtr> suite = core::quickSuite();
    device::Device dev = device::allDevices().front();
    BudgetGuard guard(64);
    jobs::JobOptions options;
    options.harness.shots = 50;
    options.harness.repetitions = 2;
    jobs::SweepContext ctx(options);
    core::BenchmarkRun run = jobs::runJob(*suite[0], dev, options, ctx);
    EXPECT_EQ(run.status, core::RunStatus::TooLarge);
    EXPECT_EQ(run.cause, core::FailureCause::ResourceExhausted);
    EXPECT_TRUE(run.scores.empty());
}

// --- cooperative shutdown --------------------------------------------

TEST(Stop, RequestAndResetAreObservable)
{
    util::resetStopForTests();
    EXPECT_FALSE(util::stopRequested());
    util::requestStop();
    EXPECT_TRUE(util::stopRequested());
    util::resetStopForTests();
    EXPECT_FALSE(util::stopRequested());
}

TEST(Stop, ParallelForStopsClaimingIndices)
{
    util::resetStopForTests();
    std::atomic<std::size_t> ran{0};
    // Already-stopped predicate: nothing is claimed, serial or pooled.
    for (std::size_t jobs : {1u, 4u}) {
        ran = 0;
        util::parallelFor(
            jobs, 100, [&](std::size_t) { ++ran; },
            [] { return true; });
        EXPECT_EQ(ran.load(), 0u) << "jobs=" << jobs;
    }
    // A predicate tripping midway stops later claims (serial order).
    ran = 0;
    std::atomic<bool> stop{false};
    util::parallelFor(
        1, 100,
        [&](std::size_t i) {
            ++ran;
            if (i == 9)
                stop = true;
        },
        [&] { return stop.load(); });
    EXPECT_EQ(ran.load(), 10u);
}

TEST(Stop, JobLayerSkipsWithInterruptedCause)
{
    std::vector<core::BenchmarkPtr> suite = core::quickSuite();
    device::Device dev = device::allDevices().front();
    jobs::JobOptions options;
    options.harness.shots = 50;
    options.harness.repetitions = 2;
    options.stop = [] { return true; };
    jobs::SweepContext ctx(options);
    core::BenchmarkRun run = jobs::runJob(*suite[0], dev, options, ctx);
    EXPECT_EQ(run.status, core::RunStatus::Skipped);
    EXPECT_EQ(run.cause, core::FailureCause::Interrupted);
}

// --- end-to-end: kill/resume and shard union -------------------------

#ifdef SMQ_GRID_TOOL

/** The tiny grid every subprocess test runs: 3 benchmarks x 3
 *  devices at 40 shots — 9 cells, fractions of a second each. */
const char *kGridArgs = "--benchmarks 3 --devices 3 --shots 40";
constexpr std::size_t kGridCells = 9;

int
runCommand(const std::string &command)
{
    const int status = std::system(command.c_str());
    if (status == -1)
        return -1;
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return WEXITSTATUS(status);
}

int
runGridTool(const std::string &env, const std::string &extraArgs)
{
    std::ostringstream command;
    command << env << (env.empty() ? "" : " ") << "\"" << SMQ_GRID_TOOL
            << "\" " << kGridArgs << " " << extraArgs
            << " >/dev/null 2>&1";
    return runCommand(command.str());
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream contents;
    contents << in.rdbuf();
    return contents.str();
}

std::string
referenceGrid(const fs::path &dir)
{
    const fs::path out = dir / "reference.txt";
    EXPECT_EQ(runGridTool("", "--out \"" + out.string() + "\""), 0);
    std::string text = readFile(out);
    EXPECT_FALSE(text.empty());
    return text;
}

TEST(Resilience, KillAtEveryJournalBoundaryThenResumeIsByteIdentical)
{
    fs::path dir = freshDir("kill_resume");
    const std::string reference = referenceGrid(dir);

    for (std::size_t k = 1; k <= kGridCells; ++k) {
        const fs::path journal = dir / ("ck_" + std::to_string(k));
        const fs::path out = dir / ("grid_" + std::to_string(k) + ".txt");
        // SIGKILL immediately after the k-th durable cell append: the
        // harshest possible death at an exact journal boundary.
        const int crash_exit = runGridTool(
            "SMQ_CRASH_AFTER_CELLS=" + std::to_string(k),
            "--checkpoint \"" + journal.string() + "\"");
        ASSERT_EQ(crash_exit, 128 + SIGKILL) << "k=" << k;

        report::CheckpointLoad load =
            report::loadCheckpoint(journal.string());
        ASSERT_TRUE(load.headerOk) << "k=" << k;
        EXPECT_EQ(load.cells.size(), k);

        const int resume_exit = runGridTool(
            "", "--resume \"" + journal.string() + "\" --out \"" +
                    out.string() + "\"");
        ASSERT_EQ(resume_exit, 0) << "k=" << k;
        EXPECT_EQ(readFile(out), reference)
            << "resume after kill at cell " << k
            << " diverged from the uninterrupted sweep";
    }
    fs::remove_all(dir);
}

TEST(Resilience, GracefulStopSalvagesJournalAndResumeCompletes)
{
    fs::path dir = freshDir("graceful");
    const std::string reference = referenceGrid(dir);
    const fs::path journal = dir / "ck";
    const fs::path out = dir / "grid.txt";

    // SIGTERM raised after the 3rd journaled cell drives the real
    // signal handler: the run must stop claiming cells, keep the
    // journal intact and exit with the documented resume code.
    const int stop_exit =
        runGridTool("SMQ_STOP_AFTER_CELLS=3",
                    "--checkpoint \"" + journal.string() + "\"");
    ASSERT_EQ(stop_exit, report::kExitInterrupted);
    report::CheckpointLoad load =
        report::loadCheckpoint(journal.string());
    ASSERT_TRUE(load.headerOk);
    EXPECT_GE(load.cells.size(), 3u);
    EXPECT_LT(load.cells.size(), kGridCells);

    const int resume_exit = runGridTool(
        "", "--resume \"" + journal.string() + "\" --out \"" +
                out.string() + "\"");
    ASSERT_EQ(resume_exit, 0);
    EXPECT_EQ(readFile(out), reference);
    fs::remove_all(dir);
}

TEST(Resilience, ResumeRefusesAForeignWorkload)
{
    fs::path dir = freshDir("foreign");
    const fs::path journal = dir / "ck";
    ASSERT_EQ(runGridTool("", "--checkpoint \"" + journal.string() +
                                  "\""),
              0);
    // Same journal, different shots: must exit with the usage code,
    // not silently mix two workloads in one journal.
    std::ostringstream command;
    command << "\"" << SMQ_GRID_TOOL
            << "\" --benchmarks 3 --devices 3 --shots 77 --resume \""
            << journal.string() << "\" >/dev/null 2>&1";
    EXPECT_EQ(runCommand(command.str()),
              report::kExitConfigMismatch);
    fs::remove_all(dir);
}

TEST(Resilience, ShardUnionMergesIdenticallyToSerialForN235)
{
    fs::path dir = freshDir("shard_union");

    // Serial reference journal (one shard owning everything), and the
    // same sweep's cache text.
    const fs::path serial = dir / "serial";
    const fs::path serial_out = dir / "serial.txt";
    ASSERT_EQ(runGridTool("", "--checkpoint \"" + serial.string() +
                                  "\" --out \"" + serial_out.string() +
                                  "\""),
              0);
    const std::string cache_text = readFile(serial_out);
    report::MergedGrid serial_merge =
        report::mergeCheckpoints({serial.string()});
    EXPECT_TRUE(serial_merge.complete());
    const std::string serial_text =
        report::serializeGrid(serial_merge.grid);
    EXPECT_EQ(serial_text, cache_text);

    for (std::size_t n : {2u, 3u, 5u}) {
        std::vector<std::string> journals;
        for (std::size_t i = 0; i < n; ++i) {
            const fs::path journal =
                dir / ("s" + std::to_string(n) + "_" + std::to_string(i));
            const int exit_code = runGridTool(
                "", "--shard " + std::to_string(i) + "/" +
                        std::to_string(n) + " --checkpoint \"" +
                        journal.string() + "\"");
            ASSERT_EQ(exit_code, 0) << "shard " << i << "/" << n;
            journals.push_back(journal.string());
        }
        report::MergedGrid merged = report::mergeCheckpoints(journals);
        EXPECT_TRUE(merged.complete()) << "N=" << n;
        EXPECT_TRUE(merged.overlapCells.empty()) << "N=" << n;
        const std::string merged_text = report::serializeGrid(merged.grid);
        EXPECT_EQ(merged_text, serial_text)
            << "shard union for N=" << n
            << " diverged from the serial sweep";
        EXPECT_EQ(merged_text, cache_text)
            << "shard union for N=" << n
            << " is not the serial sweep's cache text";
    }
    fs::remove_all(dir);
}

TEST(Resilience, MergedTextReadsBackThroughTheCacheReader)
{
    fs::path dir = freshDir("merge_reader");
    const fs::path j0 = dir / "s0", j1 = dir / "s1";
    ASSERT_EQ(runGridTool("", "--shard 0/2 --checkpoint \"" +
                                  j0.string() + "\""),
              0);
    ASSERT_EQ(runGridTool("", "--shard 1/2 --checkpoint \"" +
                                  j1.string() + "\""),
              0);
    // A complete merge, and one shard alone, whose gaps are the
    // Skipped(Interrupted) placeholders.
    for (const std::vector<std::string> &journals :
         {std::vector<std::string>{j0.string(), j1.string()},
          std::vector<std::string>{j0.string()}}) {
        const std::string text = report::serializeGrid(
            report::mergeCheckpoints(journals).grid);
        std::istringstream in(text);
        report::Fig2Grid loaded;
        ASSERT_TRUE(report::parseGrid(in, loaded))
            << journals.size() << " journal(s)";
        EXPECT_EQ(report::serializeGrid(loaded), text)
            << journals.size() << " journal(s)";
    }
    fs::remove_all(dir);
}

TEST(Resilience, SentinelMergeCliReportsAndExitCodes)
{
    fs::path dir = freshDir("sentinel_merge");
    const fs::path j0 = dir / "s0", j1 = dir / "s1";
    ASSERT_EQ(runGridTool("", "--shard 0/2 --checkpoint \"" +
                                  j0.string() + "\""),
              0);
    ASSERT_EQ(runGridTool("", "--shard 1/2 --checkpoint \"" +
                                  j1.string() + "\""),
              0);

    const fs::path out = dir / "merged.txt";
    const fs::path history = dir / "runs.jsonl";
    std::ostringstream stdout_text, stderr_text;
    int code = report::sentinelMain(
        {"merge", j0.string(), j1.string(), "--out", out.string(),
         "--history", history.string()},
        stdout_text, stderr_text);
    EXPECT_EQ(code, report::kSentinelOk) << stderr_text.str();
    EXPECT_NE(stdout_text.str().find("verdict: complete"),
              std::string::npos);
    EXPECT_EQ(readFile(out),
              report::serializeGrid(
                  report::mergeCheckpoints({j0.string(), j1.string()})
                      .grid));

    report::HistoryLoad load = report::loadHistory(history.string());
    ASSERT_EQ(load.records.size(), 1u);
    EXPECT_EQ(load.records[0].tool, "smq_sentinel_merge");
    EXPECT_FALSE(load.records[0].values.empty());

    // One shard alone: incomplete, regression-style exit.
    std::ostringstream partial_out, partial_err;
    code = report::sentinelMain(
        {"merge", j0.string(), "--out", out.string()}, partial_out,
        partial_err);
    EXPECT_EQ(code, report::kSentinelRegression);
    EXPECT_NE(partial_out.str().find("missing shard"),
              std::string::npos);

    // No directories at all: usage.
    std::ostringstream usage_out, usage_err;
    code = report::sentinelMain({"merge"}, usage_out, usage_err);
    EXPECT_EQ(code, report::kSentinelUsage);
    fs::remove_all(dir);
}

#endif // SMQ_GRID_TOOL

} // namespace
} // namespace smq
