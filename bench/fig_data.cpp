#include "fig_data.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "device/device.hpp"
#include "obs/fsio.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "report/checkpoint.hpp"
#include "report/history.hpp"
#include "util/stop.hpp"
#include "util/thread_pool.hpp"

namespace smq::bench {

Scale
scaleFromArgs(int argc, char **argv, util::Flags flags, Scale scale)
{
    bool quick = false;
    std::string shard = std::to_string(scale.shard.index) + "/" +
                        std::to_string(scale.shard.count);
    std::string backend = sim::toString(scale.backend);
    flags.add("--paper", scale.paperShots)
        .add("--quick", quick)
        .add("--faults", scale.faults)
        .add("--jobs", scale.jobs)
        .add("--trace", scale.traceDir)
        .add("--metrics", scale.metrics)
        .add("--no-metrics", scale.metrics, false)
        .add("--history", scale.historyPath)
        .add("--progress", scale.progress)
        .add("--heartbeat", scale.heartbeatSecs)
        .add("--shard", shard)
        .add("--checkpoint", scale.checkpointDir)
        .add("--resume", scale.resumeDir)
        .add("--backend", backend);
    std::string error =
        flags.parse(std::vector<std::string>(argv + 1, argv + argc));
    const std::optional<core::ShardSpec> spec = core::parseShardSpec(shard);
    const std::optional<sim::BackendKind> kind =
        sim::backendFromString(backend);
    if (error.empty() && !spec)
        error = "bad --shard '" + shard + "' (expected i/N with 0 <= i < N)";
    if (error.empty() && !kind)
        error = "bad --backend '" + backend +
                "' (expected auto, statevector, density-matrix, "
                "stabilizer or trajectory)";
    if (!error.empty()) {
        std::cerr << std::filesystem::path(argv[0]).filename().string()
                  << ": " << error << "\n";
        std::exit(report::kExitConfigMismatch);
    }
    if (quick) {
        scale.defaultShots = 150;
        scale.repetitions = 2;
    }
    scale.shard = *spec;
    scale.backend = *kind;
    return scale;
}

ObsSession::ObsSession(std::string tool, const Scale &scale)
    : tool_(std::move(tool)), scale_(scale)
{
    // One process = one manifest: counts from static initialisation or
    // an earlier session must not leak into this run's rollups.
    obs::resetMetrics();
    obs::setMetricsEnabled(scale_.metrics);
    if (!scale_.traceDir.empty())
        obs::startTracing(scale_.traceDir);
    if (scale_.heartbeatSecs > 0.0) {
        obs::ProgressOptions progress;
        progress.mode = obs::ProgressOptions::Mode::Jsonl;
        progress.heartbeatSecs = scale_.heartbeatSecs;
        obs::startProgress(progress);
    } else if (scale_.progress) {
        obs::ProgressOptions progress;
        progress.mode = obs::ProgressOptions::Mode::Tty;
        obs::startProgress(progress);
    }
}

ObsSession::ObsSession(std::string tool, int argc, char **argv)
    : ObsSession(std::move(tool), scaleFromArgs(argc, argv))
{
}

ObsSession::~ObsSession()
{
    obs::stopProgress();
    if (!scale_.traceDir.empty())
        obs::stopTracing();
    obs::RunManifest manifest = obs::RunManifest::capture(tool_);
    manifest.deviceTableVersion = device::kDeviceTableVersion;
    manifest.shots = scale_.paperShots ? 0 : scale_.defaultShots;
    manifest.repetitions = scale_.repetitions;
    manifest.jobs = scale_.jobs;
    manifest.faultsEnabled = scale_.faults;
    manifest.faultSeed = scale_.faultSeed;
    manifest.traceDir = scale_.traceDir;
    manifest.extra = extra_;
    if (scale_.paperShots)
        manifest.extra.emplace("shots_mode", "paper");
    manifest.extra.emplace("sim.backend", sim::toString(scale_.backend));
    if (!manifest.writeFile(manifestPath())) {
        std::cerr << "warning: could not write " << manifestPath()
                  << "\n";
    }
    if (!scale_.historyPath.empty()) {
        report::HistoryRecord record =
            report::HistoryRecord::fromManifest(manifest);
        record.values = values_;
        std::string error;
        if (!report::appendHistory(scale_.historyPath, record, &error)) {
            // Name the cause: "write: No space left on device" tells
            // the operator what to fix, a bare "could not" does not.
            std::cerr << "warning: could not append to "
                      << scale_.historyPath
                      << (error.empty() ? "" : " (" + error + ")")
                      << "\n";
        }
    }
}

void
ObsSession::note(const std::string &key, const std::string &value)
{
    extra_[key] = value;
}

void
ObsSession::value(const std::string &key, double v)
{
    values_[key] = v;
}

std::string
ObsSession::manifestPath() const
{
    return tool_ + "_manifest.json";
}

namespace {

std::uint64_t
shotsForDevice(const device::Device &dev, const Scale &scale)
{
    if (!scale.paperShots)
        return scale.defaultShots;
    // Sec. VI: 2000 shots on IBM, 1024 on AQT, 35 on IonQ
    if (dev.kind == device::ArchitectureKind::TrappedIon)
        return 35;
    if (dev.name == "AQT")
        return 1024;
    return 2000;
}

bool
isErrorCorrectionName(const std::string &name)
{
    return name.rfind("bit_code", 0) == 0 ||
           name.rfind("phase_code", 0) == 0;
}

std::string
cachePath(const Scale &scale)
{
    std::ostringstream name;
    name << "fig2_cache_"
         << (scale.paperShots ? "paper"
                              : std::to_string(scale.defaultShots))
         << "_r" << scale.repetitions;
    // A forced engine produces different histograms than the planner's
    // choices: its grid gets its own cache file.
    if (scale.backend != sim::BackendKind::Auto)
        name << "_" << sim::toString(scale.backend);
    name << ".txt";
    return name.str();
}

void
saveGrid(const Fig2Grid &grid, const Scale &scale)
{
    // Temp + fsync + rename: an interrupted regenerator can never leave
    // a truncated cache that a later run would parse as garbage.
    obs::atomicWriteFile(cachePath(scale), serializeGrid(grid));
}

bool
loadGrid(Fig2Grid &grid, const Scale &scale)
{
    std::ifstream in(cachePath(scale));
    return in && report::parseGrid(in, grid);
}

/** Representative fault schedule for the --faults demonstration. */
jobs::FaultInjector
demoInjector(const Scale &scale)
{
    jobs::FaultInjector injector(scale.faultSeed);
    jobs::FaultProfile profile;
    profile.pTransient = 0.10;
    profile.pQueueTimeout = 0.05;
    profile.pShotTruncation = 0.08;
    profile.calibrationDrift = 0.05;
    injector.setDefaultProfile(profile);
    return injector;
}

/** Whether any crash-tolerance machinery is switched on. */
bool
resilienceActive(const Scale &scale)
{
    return scale.shard.active() || !scale.checkpointDir.empty() ||
           !scale.resumeDir.empty();
}

/**
 * Canonical execution-config text of the checkpoint header: every
 * knob that changes cell results. Two journals are only mergeable /
 * resumable when this text matches.
 */
std::string
configKey(const Scale &scale)
{
    std::ostringstream key;
    key << "shots="
        << (scale.paperShots ? "paper"
                             : std::to_string(scale.defaultShots))
        << ";repetitions=" << scale.repetitions
        << ";faults=" << (scale.faults ? 1 : 0)
        << ";fault_seed=" << scale.faultSeed
        << ";backend=" << sim::toString(scale.backend);
    return key.str();
}

report::CheckpointHeader
headerForGrid(const Scale &scale, const Fig2Grid &grid)
{
    report::CheckpointHeader header;
    header.tool = "smq-grid";
    header.config = configKey(scale);
    header.shardIndex = scale.shard.index;
    header.shardCount = scale.shard.count;
    header.devices = grid.deviceNames;
    for (const GridRow &row : grid.rows)
        header.benchmarks.push_back(row.benchmark);
    return header;
}

} // namespace

int
GridOutcome::exitCode() const
{
    if (configMismatch)
        return report::kExitConfigMismatch;
    if (storageError)
        return report::kExitStorageError;
    if (interrupted)
        return report::kExitInterrupted;
    return 0;
}

GridOutcome
computeGrid(const Scale &scale,
            const std::vector<core::BenchmarkPtr> &suite,
            const std::vector<device::Device> &devices)
{
    GridOutcome outcome;
    Fig2Grid &grid = outcome.grid;
    SMQ_TRACE_SPAN(obs::names::kSpanGrid,
                   obs::jsonField("jobs", static_cast<std::uint64_t>(
                                              scale.jobs)));
    // From here on SIGINT/SIGTERM request a cooperative stop: workers
    // finish or salvage their current cell, the journal and manifest
    // flush, and the driver exits kExitInterrupted. A second signal
    // falls back to the default (immediate) disposition.
    util::installStopHandlers();

    for (const device::Device &dev : devices)
        grid.deviceNames.push_back(dev.name);

    jobs::JobOptions job_options;
    job_options.harness.repetitions = scale.repetitions;
    job_options.harness.planner.force = scale.backend;
    job_options.stop = util::stopRequested;

    const std::size_t n_rows = suite.size();
    const std::size_t n_devices = devices.size();
    const std::size_t n_cells = n_rows * n_devices;
    grid.rows.resize(n_rows);

    // Per-row metadata (features/stats of the primary logical circuit).
    util::parallelFor(scale.jobs, n_rows, [&](std::size_t r) {
        GridRow &row = grid.rows[r];
        row.benchmark = suite[r]->name();
        row.isErrorCorrection = isErrorCorrectionName(row.benchmark);
        qc::Circuit primary = suite[r]->circuits().front();
        row.features = core::computeFeatures(primary);
        row.stats = core::computeStats(primary);
        row.runs.resize(n_devices);
    });

    // Checkpoint setup. Resume loads the existing journal (refusing a
    // foreign workload/shard); a fresh journal starts with the header
    // and every row record — rows are label-derived and identical
    // across shards, which is what lets the merge reassemble the grid
    // without re-simulating anything.
    const std::string journal_dir = !scale.resumeDir.empty()
                                        ? scale.resumeDir
                                        : scale.checkpointDir;
    report::CheckpointWriter writer;
    std::unordered_map<std::string, core::BenchmarkRun> resumed;
    std::unordered_set<std::string> salvaged;
    if (!journal_dir.empty()) {
        const report::CheckpointHeader expected =
            headerForGrid(scale, grid);
        bool fresh = true;
        if (!scale.resumeDir.empty()) {
            report::CheckpointLoad load =
                report::loadCheckpoint(journal_dir);
            if (load.exists) {
                if (!load.headerOk) {
                    outcome.configMismatch = true;
                    outcome.mismatchDetail =
                        journal_dir + " has no readable journal header";
                    return outcome;
                }
                if (!load.header.sameWorkload(expected) ||
                    load.header.shardIndex != expected.shardIndex) {
                    outcome.configMismatch = true;
                    outcome.mismatchDetail =
                        journal_dir +
                        " journals a different workload or shard "
                        "(config '" +
                        load.header.config + "' vs '" + expected.config +
                        "')";
                    return outcome;
                }
                fresh = false;
                for (core::BenchmarkRun &run : load.cells) {
                    const std::string key = run.benchmark + "@" + run.device;
                    if (report::isFinal(run))
                        resumed[key] = std::move(run);
                    else
                        salvaged.insert(key);
                }
            }
        }
        writer = report::CheckpointWriter(journal_dir);
        if (fresh) {
            writer.writeHeader(expected);
            for (const GridRow &row : grid.rows)
                writer.appendRow(row);
        }
    }

    // Pre-pass over the cells, in deterministic grid order: foreign
    // cells (another shard's) and resumed cells are settled here;
    // everything else gets an Interrupted placeholder that stands
    // when cooperative shutdown prevents the cell from being claimed.
    std::vector<std::uint8_t> todo(n_cells, 0);
    for (std::size_t cell = 0; cell < n_cells; ++cell) {
        const std::size_t r = cell / n_devices;
        const std::size_t d = cell % n_devices;
        core::BenchmarkRun &run = grid.rows[r].runs[d];
        run.benchmark = grid.rows[r].benchmark;
        run.device = grid.deviceNames[d];
        if (!core::shardOwnsCell(scale.shard, run.benchmark,
                                 run.device)) {
            run.status = core::RunStatus::Skipped;
            run.cause = core::FailureCause::None;
            run.detail =
                "cell owned by shard " +
                std::to_string(core::shardOfCell(
                    run.benchmark, run.device, scale.shard.count)) +
                "/" + std::to_string(scale.shard.count);
            obs::counter(obs::names::kShardCellsForeign).add();
            continue;
        }
        obs::counter(obs::names::kShardCellsOwned).add();
        auto it = resumed.find(run.benchmark + "@" + run.device);
        if (it != resumed.end()) {
            run = std::move(it->second);
            run.detail = "resumed from checkpoint";
            obs::counter(obs::names::kCheckpointCellsResumed).add();
            continue;
        }
        if (salvaged.count(run.benchmark + "@" + run.device) > 0)
            obs::counter(obs::names::kCheckpointCellsSalvaged).add();
        run.status = core::RunStatus::Skipped;
        run.cause = core::FailureCause::Interrupted;
        run.detail = "shutdown requested before the cell was claimed";
        todo[cell] = 1;
    }

    // The remaining (benchmark x device) cells fan out over the thread
    // pool. Each cell gets its own SweepContext over the same injector
    // seed: fault decisions and simulation streams are pure functions
    // of the (seed, device, benchmark, rep, attempt) labels, and the
    // suite deadline is infinite here, so cell results cannot depend
    // on execution order — the grid is byte-identical for any jobs
    // value, any shard split, and across kill/resume cycles.
    obs::progressBegin(obs::names::kSpanGrid, obs::names::kSpanJob,
                       n_cells, scale.jobs);
    util::parallelFor(
        scale.jobs, n_cells,
        [&](std::size_t cell) {
            if (todo[cell] == 0)
                return;
            const std::size_t r = cell / n_devices;
            const std::size_t d = cell % n_devices;
            jobs::JobOptions options = job_options;
            options.harness.shots = shotsForDevice(devices[d], scale);
            options.harness.seed = 1000 + r;
            jobs::SweepContext cell_ctx(options,
                                        scale.faults
                                            ? demoInjector(scale)
                                            : jobs::FaultInjector());
            grid.rows[r].runs[d] =
                jobs::runJob(*suite[r], devices[d], options, cell_ctx);
            writer.appendCell(grid.rows[r].runs[d]);
        },
        util::stopRequested);
    obs::progressEnd();

    outcome.interrupted = util::stopRequested();
    if (writer.active() && !writer.error().empty()) {
        outcome.storageError = true;
        outcome.storageDetail = writer.error();
    }
    return outcome;
}

GridOutcome
computeFig2GridOutcome(const Scale &scale)
{
    // Fault-injected runs are demonstrations, and a shard's or an
    // interrupted run's grid is deliberately partial: never let
    // either in or out of the cache.
    const bool cacheable = !scale.faults && scale.useCache &&
                           !resilienceActive(scale);
    GridOutcome outcome;
    if (cacheable && loadGrid(outcome.grid, scale)) {
        std::cerr << "(reusing cached grid " << cachePath(scale) << ")\n";
        outcome.fromCache = true;
        return outcome;
    }
    outcome = computeGrid(scale, core::figure2Benchmarks(scale.jobs),
                          device::allDevices());
    if (cacheable && !outcome.interrupted && !outcome.storageError)
        saveGrid(outcome.grid, scale);
    return outcome;
}

Fig2Grid
computeFig2Grid(const Scale &scale)
{
    return computeFig2GridOutcome(scale).grid;
}

void
printCellReport(std::ostream &out, const Fig2Grid &grid)
{
    for (const GridRow &row : grid.rows) {
        for (std::size_t d = 0; d < row.runs.size(); ++d) {
            out << "  " << row.benchmark << " @ " << grid.deviceNames[d]
                << " = " << jobs::cellText(row.runs[d]) << "\n";
        }
    }
}

std::vector<std::vector<core::ScoredInstance>>
scoredInstancesPerDevice(const Fig2Grid &grid)
{
    std::vector<std::vector<core::ScoredInstance>> per_device(
        grid.deviceNames.size());
    for (const GridRow &row : grid.rows) {
        for (std::size_t d = 0; d < row.runs.size(); ++d) {
            // Only cells with salvageable scores enter the Fig. 3/4
            // correlation analysis; skipped and failed cells drop out
            // exactly as missing hardware data did in the paper.
            if (!core::scoreable(row.runs[d].status) ||
                row.runs[d].scores.empty())
                continue;
            core::ScoredInstance inst;
            inst.benchmark = row.benchmark;
            inst.isErrorCorrection = row.isErrorCorrection;
            inst.features = row.features;
            inst.stats = row.stats;
            inst.score = row.runs[d].summary.mean;
            per_device[d].push_back(std::move(inst));
        }
    }
    return per_device;
}

void
noteGridScores(ObsSession &session, const Fig2Grid &grid)
{
    for (const auto &[key, score] : report::gridScoreValues(grid))
        session.value(key, score);
}

} // namespace smq::bench
