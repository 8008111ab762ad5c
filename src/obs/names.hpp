/**
 * @file
 * The closed registry of metric and span names.
 *
 * Every counter, gauge, histogram and trace span emitted anywhere in
 * the harness takes its name from this header — never from an ad-hoc
 * string literal at the emitting site. That closure is what makes the
 * observability layer auditable: docs/OBSERVABILITY.md tables exactly
 * this set, and the `ctest -L obs` suite diffs the names emitted by a
 * real Fig. 2 grid run against the doc's registry table, so a metric
 * cannot be added without documenting it.
 *
 * Naming convention: `<subsystem>.<object>.<event>` in lower snake
 * case, dot-separated. Stage-duration histograms are derived as
 * `stage.<span-name>.ns` by the tracer (see trace.hpp).
 */

#ifndef SMQ_OBS_NAMES_HPP
#define SMQ_OBS_NAMES_HPP

namespace smq::obs::names {

// --- counters: transpilation -----------------------------------------
inline constexpr const char *kTranspileCacheHit = "transpile.cache.hit";
inline constexpr const char *kTranspileCacheMiss = "transpile.cache.miss";

// --- counters: synchronous harness -----------------------------------
inline constexpr const char *kHarnessRuns = "harness.runs";
inline constexpr const char *kHarnessRepetitions = "harness.repetitions";
inline constexpr const char *kHarnessTooLarge = "harness.too_large";

// --- counters: fault-tolerant job layer ------------------------------
inline constexpr const char *kJobsRetryAttempts = "jobs.retry.attempts";
inline constexpr const char *kJobsFaultsTransient = "jobs.faults.transient";
inline constexpr const char *kJobsFaultsQueueTimeout =
    "jobs.faults.queue_timeout";
inline constexpr const char *kJobsFaultsShotTruncation =
    "jobs.faults.shot_truncation";
inline constexpr const char *kJobsCellsOk = "jobs.cells.ok";
inline constexpr const char *kJobsCellsPartial = "jobs.cells.partial";
inline constexpr const char *kJobsCellsSkipped = "jobs.cells.skipped";
inline constexpr const char *kJobsCellsTooLarge = "jobs.cells.too_large";
inline constexpr const char *kJobsCellsFailed = "jobs.cells.failed";
inline constexpr const char *kJobsSalvagedRepetitions =
    "jobs.salvaged.repetitions";

// --- counters: simulators --------------------------------------------
inline constexpr const char *kSimSvGateApplies = "sim.sv.gate_applies";
inline constexpr const char *kSimDmGateApplies = "sim.dm.gate_applies";
inline constexpr const char *kSimShots = "sim.shots";
inline constexpr const char *kSimTrajectories = "sim.trajectories";
inline constexpr const char *kSimTrajectoryBatches =
    "sim.trajectory.batches";
inline constexpr const char *kSimTrajectoryStates = "sim.trajectory.states";

// --- counters: backend planner (sim/planner.*, sim/runner.cpp) -------
// One bump per dispatched circuit execution, keyed by the engine the
// planner chose; `overridden` additionally counts executions where an
// explicit --backend forced the choice instead of the planner.
inline constexpr const char *kSimPlanStatevector = "sim.plan.statevector";
inline constexpr const char *kSimPlanDensityMatrix =
    "sim.plan.density_matrix";
inline constexpr const char *kSimPlanStabilizer = "sim.plan.stabilizer";
inline constexpr const char *kSimPlanTrajectory = "sim.plan.trajectory";
inline constexpr const char *kSimPlanOverridden = "sim.plan.overridden";

// --- counters: intra-op kernel engine (sim/kernels.*) ----------------
inline constexpr const char *kSimKernelParallelOps =
    "sim.kernel.parallel_ops";
inline constexpr const char *kSimKernelSerialOps = "sim.kernel.serial_ops";
inline constexpr const char *kSimKernelTasksSplit =
    "sim.kernel.tasks_split";
inline constexpr const char *kSimKernelSimdAvx2 = "sim.kernel.simd_avx2";
inline constexpr const char *kSimKernelSimdScalar =
    "sim.kernel.simd_scalar";

// --- counters: trajectory lanes' liveness blocks (sim/statevector.cpp)
// Added once per lane operation: the 64-amplitude blocks its kernels
// ran on, and those of its lanes it left alone as all zero.
inline constexpr const char *kSimLanesBlocksWalked =
    "sim.lanes.blocks_walked";
inline constexpr const char *kSimLanesBlocksSkipped =
    "sim.lanes.blocks_skipped";

// --- counters: thread pool -------------------------------------------
inline constexpr const char *kPoolBatches = "pool.batches";
inline constexpr const char *kPoolTasksRun = "pool.tasks.run";

// --- counters: telemetry consumers (src/report/, obs/progress) -------
inline constexpr const char *kHistoryAppends = "history.records.appended";
inline constexpr const char *kHistoryLoaded = "history.records.loaded";
inline constexpr const char *kHistorySkipped = "history.lines.skipped";
inline constexpr const char *kProgressTicks = "progress.ticks";
inline constexpr const char *kProgressEmits = "progress.emits";

// --- counters: crash-tolerant grid execution (checkpoint/shard) ------
inline constexpr const char *kCheckpointCellsJournaled =
    "checkpoint.cells.journaled";
inline constexpr const char *kCheckpointCellsResumed =
    "checkpoint.cells.resumed";
inline constexpr const char *kCheckpointCellsSalvaged =
    "checkpoint.cells.salvaged";
inline constexpr const char *kCheckpointAppendFailures =
    "checkpoint.append.failures";
inline constexpr const char *kShardCellsOwned = "shard.cells.owned";
inline constexpr const char *kShardCellsForeign = "shard.cells.foreign";

// --- counters: differential fuzz harness (src/fuzz/) -----------------
inline constexpr const char *kFuzzCasesRun = "fuzz.cases.run";
inline constexpr const char *kFuzzCasesFailed = "fuzz.cases.failed";
inline constexpr const char *kFuzzOracleChecks = "fuzz.oracle.checks";
inline constexpr const char *kFuzzOracleSkips = "fuzz.oracle.skips";
inline constexpr const char *kFuzzOracleFailures = "fuzz.oracle.failures";
inline constexpr const char *kFuzzShrinkRounds = "fuzz.shrink.rounds";

// --- counters: benchmark-as-a-service daemon (src/serve/) ------------
inline constexpr const char *kServeRequests = "serve.requests";
inline constexpr const char *kServeRequestsMalformed =
    "serve.requests.malformed";
inline constexpr const char *kServeJobsSubmitted = "serve.jobs.submitted";
inline constexpr const char *kServeJobsCompleted = "serve.jobs.completed";
inline constexpr const char *kServeJobsCancelled = "serve.jobs.cancelled";
inline constexpr const char *kServeQueueRejected = "serve.queue.rejected";
inline constexpr const char *kServeCacheHit = "serve.cache.hit";
inline constexpr const char *kServeCacheMiss = "serve.cache.miss";
inline constexpr const char *kServeCacheEvict = "serve.cache.evictions";

// --- counters: distributed tracing (obs/trace_context) ---------------
inline constexpr const char *kTracePropagated = "trace.propagated";
inline constexpr const char *kTraceDerived = "trace.derived";

// --- counters: resource accounting -----------------------------------
inline constexpr const char *kSimAllocBytes = "sim.alloc.bytes";
/** Manifest-only accounting keys (not registry metrics): peak RSS and
 *  process CPU time sampled by RunManifest::capture(). */
inline constexpr const char *kRssPeakBytes = "rss.peak_bytes";
inline constexpr const char *kCpuProcessNs = "cpu.process_ns";

// --- gauges ----------------------------------------------------------
inline constexpr const char *kPoolWorkers = "pool.workers";
inline constexpr const char *kServeWorkers = "serve.workers";
inline constexpr const char *kServeQueueLimit = "serve.queue.limit";

// --- span (stage) names ----------------------------------------------
// Each span name S additionally feeds the histogram `stage.S.ns` and
// the thread-CPU counter `cpu.S.ns` when metrics are enabled.
inline constexpr const char *kSpanPrepare = "prepare";
inline constexpr const char *kSpanRepetition = "repetition";
inline constexpr const char *kSpanJob = "job";
inline constexpr const char *kSpanGrid = "grid";
inline constexpr const char *kSpanServeJob = "serve.job";
inline constexpr const char *kSpanServeQueueWait = "serve.queue_wait";
inline constexpr const char *kSpanSubmit = "submit";

/** Prefix joining a span name to its duration histogram. */
inline constexpr const char *kStageHistogramPrefix = "stage.";
/** Suffix joining a span name to its duration histogram. */
inline constexpr const char *kStageHistogramSuffix = ".ns";
/** Prefix joining a span name to its thread-CPU-time counter. */
inline constexpr const char *kCpuCounterPrefix = "cpu.";
/** Suffix joining a span name to its thread-CPU-time counter. */
inline constexpr const char *kCpuCounterSuffix = ".ns";

} // namespace smq::obs::names

#endif // SMQ_OBS_NAMES_HPP
