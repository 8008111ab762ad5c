/**
 * @file
 * Traced replay for the perfbench workloads.
 *
 * The end-to-end half of the benchmark (run.py) drives the shipped
 * binaries untraced. This program repeats the same work in-process by
 * calling each layer's public functions, with an in-memory span around
 * every call, so the time of a grid or of a serve submit can be split
 * over the repo's layers: core (generation, parameter search, scoring),
 * transpile, sim (planner, engines), jobs, util (thread pool), serve
 * and report. Every span records its parent and the request (grid cell
 * or serve submit) it served. Spans stay in memory and are written to
 * OUT/trace.json (Chrome trace format) when the replay ends.
 *
 * The replay reproduces the binaries' results byte for byte (run.py
 * compares the grid body and every serve reply), and it never touches
 * the kernel or pool configuration, so its work counters equal the
 * counters the binaries write to their manifests.
 *
 * Usage:
 *   smqbench_replay config                    print the default kernel config
 *   smqbench_replay grid   OUT_DIR            cold Fig. 2 grid, 2 workers
 *   smqbench_replay serve  LOG OUT_DIR        replay a logged serve session
 *   smqbench_replay verify LOG N SEED         re-run N sampled misses of LOG
 *                                             through jobs::runJob
 *
 * LOG holds one JSON object per line: {"request": <request line>,
 * "reply": <daemon reply line>}, in the order the daemon served them.
 * Each mode prints one JSON object on stdout.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/benchmarks/error_correction.hpp"
#include "core/benchmarks/ghz.hpp"
#include "core/benchmarks/hamiltonian_simulation.hpp"
#include "core/benchmarks/mermin_bell.hpp"
#include "core/benchmarks/qaoa.hpp"
#include "core/benchmarks/vqe.hpp"
#include "core/features.hpp"
#include "fig_data.hpp"
#include "jobs/fault_injector.hpp"
#include "jobs/scheduler.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/trace_context.hpp"
#include "serve/cache.hpp"
#include "serve/factory.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/kernels.hpp"
#include "sim/memory.hpp"
#include "sim/planner.hpp"
#include "sim/runner.hpp"
#include "transpile/cache.hpp"
#include "util/thread_pool.hpp"

using namespace smq;

namespace {

// ---------------------------------------------------------------------
// In-memory spans

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct Span
{
    const char *name;
    const char *layer;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::int32_t parent = -1;  ///< index in the same thread's buffer
    std::uint32_t request = 0; ///< grid cell or serve submit, from 1
};

struct ThreadSpans
{
    std::vector<Span> spans;
    std::int32_t open = -1;
    std::size_t tid = 0;
};

/** One span buffer per thread; buffers live until the process ends. */
class Recorder
{
  public:
    ThreadSpans &local()
    {
        thread_local ThreadSpans *mine = nullptr;
        if (mine == nullptr) {
            std::lock_guard<std::mutex> lock(mutex_);
            threads_.push_back(std::make_unique<ThreadSpans>());
            mine = threads_.back().get();
            mine->tid = threads_.size();
            mine->spans.reserve(std::size_t{1} << 14);
        }
        return *mine;
    }

    const std::vector<std::unique_ptr<ThreadSpans>> &threads() const
    {
        return threads_;
    }

  private:
    std::mutex mutex_;
    std::vector<std::unique_ptr<ThreadSpans>> threads_;
};

Recorder gRecorder;

/** The request the calling thread works on (0 = none). */
thread_local std::uint32_t tRequest = 0;

class ScopedSpan
{
  public:
    ScopedSpan(const char *name, const char *layer)
        : spans_(gRecorder.local())
    {
        index_ = static_cast<std::int32_t>(spans_.spans.size());
        spans_.spans.push_back(
            Span{name, layer, 0, 0, spans_.open, tRequest});
        spans_.open = index_;
        spans_.spans.back().start = nowNs();
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;
    ~ScopedSpan()
    {
        Span &span = spans_.spans[static_cast<std::size_t>(index_)];
        span.end = nowNs();
        spans_.open = span.parent;
    }

  private:
    ThreadSpans &spans_;
    std::int32_t index_ = 0;
};

/** Inclusive time per span name and self time per layer. */
struct SpanTotals
{
    std::map<std::string, std::uint64_t> ns;
    std::map<std::string, std::uint64_t> selfNs;
    std::uint64_t selfTotalNs = 0;
};

SpanTotals
totalSpans()
{
    SpanTotals totals;
    for (const auto &thread : gRecorder.threads()) {
        const std::vector<Span> &spans = thread->spans;
        std::vector<std::uint64_t> child_ns(spans.size(), 0);
        for (const Span &span : spans) {
            if (span.parent >= 0)
                child_ns[static_cast<std::size_t>(span.parent)] +=
                    span.end - span.start;
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const std::uint64_t dur = spans[i].end - spans[i].start;
            const std::uint64_t self = dur - child_ns[i];
            totals.ns[spans[i].name] += dur;
            totals.selfNs[spans[i].layer] += self;
            totals.selfTotalNs += self;
        }
    }
    return totals;
}

/** Write every recorded span as a Chrome trace (complete events). */
void
writeChromeTrace(const std::string &path)
{
    std::uint64_t origin = UINT64_MAX;
    for (const auto &thread : gRecorder.threads()) {
        for (const Span &span : thread->spans)
            origin = std::min(origin, span.start);
    }
    std::ofstream out(path, std::ios::trunc);
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const auto &thread : gRecorder.threads()) {
        for (const Span &span : thread->spans) {
            out << (first ? "" : ",\n") << "{\"name\":\"" << span.name
                << "\",\"cat\":\"" << span.layer
                << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << thread->tid
                << ",\"ts\":" << (span.start - origin) / 1000.0
                << ",\"dur\":" << (span.end - span.start) / 1000.0
                << ",\"args\":{\"request\":" << span.request << "}}";
            first = false;
        }
    }
    out << "]}\n";
}

// ---------------------------------------------------------------------
// Work accounting the counters cannot split by register width

/**
 * Bytes one gate apply computes at a given width: every amplitude (or
 * density-matrix element, 16 bytes each) is read and written once.
 */
double
bytesPerApply(std::size_t width, bool density)
{
    return 2.0 * 16.0 * std::ldexp(1.0, static_cast<int>(
                                            density ? 2 * width : width));
}

/**
 * Gate-apply weights per engine run, used to spread the exact apply
 * counters over register widths: a run weighs its gate count times its
 * stochastic trajectories (one pass for the exact engines).
 */
struct WidthMix
{
    std::mutex mutex;
    double svWeight = 0, svWeightedBytes = 0;
    double dmWeight = 0, dmWeightedBytes = 0;

    void add(std::size_t width, bool density, double weight)
    {
        std::lock_guard<std::mutex> lock(mutex);
        const double bytes = weight * bytesPerApply(width, density);
        if (density) {
            dmWeight += weight;
            dmWeightedBytes += bytes;
        } else {
            svWeight += weight;
            svWeightedBytes += bytes;
        }
    }
};

WidthMix gSimMix;

/** Statevector applies made while generating (single-threaded, exact). */
std::uint64_t gGenerateSvApplies = 0;
double gGenerateSvBytes = 0;

std::uint64_t
counterValue(const char *name)
{
    return obs::counter(name).value();
}

// ---------------------------------------------------------------------
// Layer calls

bool
isVariational(const std::string &name)
{
    return name.rfind("qaoa_", 0) == 0 || name.rfind("vqe_", 0) == 0;
}

/** Construct one benchmark instance under a generate span. */
template <typename Make>
core::BenchmarkPtr
generate(bool variational, const Make &make)
{
    const std::uint64_t before = counterValue(obs::names::kSimSvGateApplies);
    core::BenchmarkPtr benchmark;
    {
        ScopedSpan span(variational ? "core.generate_variational"
                                    : "core.generate",
                        "core");
        benchmark = make();
    }
    const std::uint64_t applies =
        counterValue(obs::names::kSimSvGateApplies) - before;
    gGenerateSvApplies += applies;
    if (benchmark)
        gGenerateSvBytes += static_cast<double>(applies) *
                            bytesPerApply(benchmark->numQubits(), false);
    return benchmark;
}

/** The Fig. 2 suite of core::figure2Benchmarks(), one span per instance. */
std::vector<core::BenchmarkPtr>
figure2Suite()
{
    using namespace core;
    std::vector<BenchmarkPtr> suite;
    for (std::size_t n : {3, 5, 7, 11, 16})
        suite.push_back(generate(false, [n] {
            return std::make_unique<GhzBenchmark>(n);
        }));
    for (std::size_t n : {3, 4, 5})
        suite.push_back(generate(false, [n] {
            return std::make_unique<MerminBellBenchmark>(n);
        }));
    for (auto [d, r] : {std::pair<std::size_t, std::size_t>{3, 1},
                        {4, 2},
                        {6, 2}})
        suite.push_back(generate(false, [d, r] {
            return std::make_unique<BitCodeBenchmark>(
                BitCodeBenchmark::alternating(d, r));
        }));
    for (auto [d, r] : {std::pair<std::size_t, std::size_t>{3, 1},
                        {4, 2},
                        {6, 2}})
        suite.push_back(generate(false, [d, r] {
            return std::make_unique<PhaseCodeBenchmark>(
                PhaseCodeBenchmark::alternating(d, r));
        }));
    for (std::size_t n : {4, 6, 8})
        suite.push_back(generate(true, [n] {
            return std::make_unique<QaoaVanillaBenchmark>(n, n);
        }));
    for (std::size_t n : {4, 6, 8})
        suite.push_back(generate(true, [n] {
            return std::make_unique<QaoaSwapBenchmark>(n, n);
        }));
    for (std::size_t n : {4, 6, 8})
        suite.push_back(generate(true, [n] {
            return std::make_unique<VqeBenchmark>(n, 1);
        }));
    for (auto [n, s] : {std::pair<std::size_t, std::size_t>{4, 3},
                        {6, 4},
                        {8, 5}})
        suite.push_back(generate(false, [n, s] {
            return std::make_unique<HamiltonianSimulationBenchmark>(n, s);
        }));
    return suite;
}

std::vector<qc::Circuit>
circuitsOf(const core::Benchmark &benchmark)
{
    ScopedSpan span("core.generate", "core");
    return benchmark.circuits();
}

/** Transpile tallies (the memo itself is process-wide). */
struct TranspileTally
{
    std::mutex mutex;
    std::uint64_t calls = 0, swaps = 0, twoQubitGates = 0;
};

TranspileTally gTranspile;

/** The engine sim::run dispatches @p plan to, as a span name. */
const char *
engineSpan(const sim::Plan &plan, const sim::NoiseModel &noise)
{
    switch (plan.backend) {
      case sim::BackendKind::Stabilizer:
        return "sim.stabilizer.run";
      case sim::BackendKind::DensityMatrix:
        return "sim.density_matrix.run";
      case sim::BackendKind::Statevector:
        if (!noise.enabled && !plan.midCircuit)
            return "sim.statevector.run";
        break; // noisy statevector runs as trajectories
      case sim::BackendKind::Trajectory:
      case sim::BackendKind::Auto:
        break;
    }
    return plan.midCircuit ? "sim.trajectory_midcircuit.run"
                           : "sim.trajectory_wide.run";
}

/** Passes over the circuit one sim::run makes (its width-mix weight). */
double
passesOf(const std::string &engine, std::uint64_t shots)
{
    if (engine == "sim.trajectory_midcircuit.run")
        return static_cast<double>(shots);
    if (engine == "sim.trajectory_wide.run")
        return std::ceil(
            static_cast<double>(shots) /
            static_cast<double>(sim::RunOptions{}.shotsPerTrajectory));
    return 1.0;
}

bool
needsMidCircuitMeasurement(const std::vector<qc::Circuit> &circuits)
{
    for (const qc::Circuit &circuit : circuits) {
        if (sim::hasMidCircuitOperations(circuit))
            return true;
    }
    return false;
}

void
appendEvent(std::string &detail, const std::string &event)
{
    if (!detail.empty())
        detail += "; ";
    detail += event;
}

/** Status tallies of the replayed jobs (the jobs.cells.* counters). */
struct CellTally
{
    std::mutex mutex;
    std::map<std::string, std::uint64_t> cells;
    std::uint64_t attempts = 0;
};

CellTally gCells;

/**
 * One cell through the layers, in the order jobs::runJob calls them
 * for a fault-free sweep: capability gating, transpile + plan per
 * circuit, then per repetition one engine run per circuit and a score.
 */
core::BenchmarkRun
replayJob(const core::Benchmark &benchmark, const device::Device &device,
          const jobs::JobOptions &options)
{
    using core::FailureCause;
    using core::RunStatus;
    ScopedSpan job_span("jobs.run_job", "jobs");

    core::BenchmarkRun run;
    run.benchmark = benchmark.name();
    run.device = device.name;
    run.plannedRepetitions = options.harness.repetitions;

    auto finish = [&](core::BenchmarkRun &&done) {
        std::lock_guard<std::mutex> lock(gCells.mutex);
        gCells.cells[core::toString(done.status)] += 1;
        gCells.attempts += done.attempts;
        return std::move(done);
    };

    if (benchmark.numQubits() > device.numQubits()) {
        run.status = RunStatus::TooLarge;
        run.cause = FailureCause::RegisterTooWide;
        run.tooLarge = true;
        run.detail = "needs " + std::to_string(benchmark.numQubits()) +
                     " qubits, device has " +
                     std::to_string(device.numQubits());
        return finish(std::move(run));
    }
    const device::Capabilities &caps = device.caps;
    if (caps.maxRegisterSize > 0 &&
        benchmark.numQubits() > caps.maxRegisterSize) {
        run.status = RunStatus::Skipped;
        run.cause = FailureCause::RegisterTooWide;
        run.detail = "service register cap " +
                     std::to_string(caps.maxRegisterSize);
        return finish(std::move(run));
    }
    if (!caps.midCircuitMeasurement &&
        needsMidCircuitMeasurement(circuitsOf(benchmark))) {
        run.status = RunStatus::Skipped;
        run.cause = FailureCause::MissingMidCircuitMeasurement;
        run.detail = "device lacks mid-circuit measurement/RESET";
        return finish(std::move(run));
    }

    std::uint64_t shots = options.harness.shots;
    if (caps.maxShots > 0 && shots > caps.maxShots) {
        shots = caps.maxShots;
        appendEvent(run.detail, "shots clamped to " + std::to_string(shots) +
                                    " (service cap)");
    }

    core::PreparedCircuits prepared;
    for (const qc::Circuit &logical : circuitsOf(benchmark)) {
        std::optional<std::pair<qc::Circuit, std::vector<std::size_t>>>
            compact;
        {
            ScopedSpan span("transpile", "transpile");
            transpile::TranspileResult result = transpile::cachedTranspile(
                logical, device, options.harness.transpile);
            prepared.physicalTwoQubitGates += result.twoQubitGateCount;
            prepared.swapsInserted += result.swapsInserted;
            compact = transpile::compactCircuit(result.circuit);
            std::lock_guard<std::mutex> lock(gTranspile.mutex);
            gTranspile.calls += 1;
            gTranspile.swaps += result.swapsInserted;
            gTranspile.twoQubitGates += result.twoQubitGateCount;
        }
        if (compact->first.numQubits() > options.harness.maxSimQubits) {
            run.status = RunStatus::TooLarge;
            run.cause = FailureCause::SimulatorLimit;
            run.tooLarge = true;
            return finish(std::move(run));
        }
        ScopedSpan span("sim.plan", "sim");
        prepared.plans.push_back(sim::planCircuit(
            compact->first, device.noise, options.harness.planner));
        prepared.circuits.push_back(std::move(compact->first));
    }
    run.physicalTwoQubitGates = prepared.physicalTwoQubitGates;
    run.swapsInserted = prepared.swapsInserted;
    run.plan = prepared.planSummary();

    const jobs::FaultInjector injector;
    stats::Rng sim_rng(jobs::streamSeed(injector.seed(), device.name,
                                        run.benchmark, options.harness.seed,
                                        1));
    for (std::size_t rep = 0; rep < options.harness.repetitions; ++rep) {
        const jobs::FaultDecision decision =
            injector.decide(device.name, run.benchmark, rep, 0);
        ++run.attempts;
        const sim::NoiseModel noise =
            jobs::FaultInjector::perturbed(device.noise, decision.driftFactor);
        std::vector<stats::Counts> counts;
        try {
            for (std::size_t c = 0; c < prepared.circuits.size(); ++c) {
                const char *engine = engineSpan(prepared.plans[c], noise);
                sim::RunOptions ro;
                ro.shots = shots;
                ro.noise = noise;
                ro.planner = options.harness.planner;
                {
                    ScopedSpan span(engine, "sim");
                    counts.push_back(
                        sim::run(prepared.circuits[c], ro, sim_rng));
                }
                const std::string name = engine;
                gSimMix.add(prepared.circuits[c].numQubits(),
                            name == "sim.density_matrix.run",
                            static_cast<double>(
                                prepared.circuits[c].gates().size()) *
                                passesOf(name, shots));
            }
        } catch (const sim::ResourceExhausted &e) {
            run.status = RunStatus::TooLarge;
            run.cause = FailureCause::ResourceExhausted;
            run.tooLarge = true;
            run.scores.clear();
            appendEvent(run.detail, e.what());
            return finish(std::move(run));
        }
        ScopedSpan span("core.score", "core");
        run.scores.push_back(benchmark.score(counts));
    }
    run.summary = stats::summarize(run.scores);
    run.errorBarScale = 1.0;
    run.status = RunStatus::Ok;
    return finish(std::move(run));
}

// ---------------------------------------------------------------------
// Result JSON

class JsonOut
{
  public:
    void number(const std::string &key, double value)
    {
        std::ostringstream text;
        text.precision(17);
        text << value;
        field(key, text.str());
    }
    void text(const std::string &key, const std::string &value)
    {
        field(key, "\"" + obs::escapeJson(value) + "\"");
    }
    void raw(const std::string &key, const std::string &json)
    {
        field(key, json);
    }
    std::string str() const { return "{" + body_ + "}"; }

  private:
    void field(const std::string &key, const std::string &value)
    {
        if (!body_.empty())
            body_ += ",";
        body_ += "\"" + obs::escapeJson(key) + "\":" + value;
    }
    std::string body_;
};

const char *kCrossCheckedCounters[] = {
    obs::names::kSimShots,
    obs::names::kSimTrajectories,
    obs::names::kSimSvGateApplies,
    obs::names::kSimDmGateApplies,
    obs::names::kSimPlanStatevector,
    obs::names::kSimPlanDensityMatrix,
    obs::names::kSimPlanStabilizer,
    obs::names::kSimPlanTrajectory,
    obs::names::kSimKernelSerialOps,
    obs::names::kSimKernelParallelOps,
    obs::names::kSimKernelSimdAvx2,
    obs::names::kSimKernelSimdScalar,
    obs::names::kSimAllocBytes,
    obs::names::kTranspileCacheMiss,
    obs::names::kServeCacheHit,
    obs::names::kServeCacheMiss,
};

std::string
countersJson()
{
    JsonOut out;
    for (const char *name : kCrossCheckedCounters)
        out.number(name, static_cast<double>(counterValue(name)));
    return out.str();
}

std::string
kernelConfigJson(const sim::kernels::KernelConfig &cfg)
{
    JsonOut out;
    out.number("jobs", static_cast<double>(cfg.jobs));
    out.number("threshold", static_cast<double>(cfg.threshold));
    out.text("simd", cfg.simd == sim::kernels::SimdMode::Auto     ? "auto"
                     : cfg.simd == sim::kernels::SimdMode::Scalar ? "scalar"
                                                                  : "avx2");
    out.raw("force_parallel", cfg.forceParallel ? "true" : "false");
    out.raw("avx2_in_use", sim::kernels::usingAvx2() ? "true" : "false");
    return out.str();
}

bool
sameConfig(const sim::kernels::KernelConfig &a,
           const sim::kernels::KernelConfig &b)
{
    return a.jobs == b.jobs && a.threshold == b.threshold &&
           a.simd == b.simd && a.forceParallel == b.forceParallel;
}

double
ms(std::uint64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

/**
 * Per-layer metrics shared by both replays. Times are divided by
 * @p per (1 for a grid, the number of submits for a serve log).
 */
void
layerMetrics(JsonOut &out, const SpanTotals &spans, double per,
             double worker_ns)
{
    auto span_ms = [&](const char *name) {
        auto it = spans.ns.find(name);
        return it == spans.ns.end() ? 0.0 : ms(it->second) / per;
    };
    const char *timed[][2] = {
        {"core.generate_ms", "core.generate"},
        {"core.generate_variational_ms", "core.generate_variational"},
        {"core.features_ms", "core.features"},
        {"core.score_ms", "core.score"},
        {"transpile.ms", "transpile"},
        {"sim.plan_ms", "sim.plan"},
        {"sim.statevector.run_ms", "sim.statevector.run"},
        {"sim.density_matrix.run_ms", "sim.density_matrix.run"},
        {"sim.stabilizer.run_ms", "sim.stabilizer.run"},
        {"sim.trajectory_midcircuit.run_ms",
         "sim.trajectory_midcircuit.run"},
        {"sim.trajectory_wide.run_ms", "sim.trajectory_wide.run"},
        {"jobs.run_job_ms", "jobs.run_job"},
        {"serve.parse_ms", "serve.parse"},
        {"serve.factory_ms", "serve.factory"},
        {"serve.cache_key_ms", "serve.cache_key"},
        {"serve.cache_lookup_ms", "serve.cache_lookup"},
        {"serve.execute_ms", "serve.execute"},
        {"report.grid_serialize_ms", "report.grid_serialize"},
        {"report.grid_cache_load_ms", "report.grid_cache_load"},
    };
    for (const auto &pair : timed)
        out.number(pair[0], span_ms(pair[1]));

    for (const char *layer :
         {"core", "transpile", "sim", "jobs", "serve", "report"}) {
        auto it = spans.selfNs.find(layer);
        out.number(std::string(layer) + ".self_ms",
                   it == spans.selfNs.end() ? 0.0 : ms(it->second) / per);
    }

    const transpile::CacheStats memo = transpile::transpileCacheStats();
    out.number("transpile.calls", static_cast<double>(gTranspile.calls));
    out.number("transpile.memo_hit_ratio",
               memo.hits + memo.misses == 0
                   ? 0.0
                   : static_cast<double>(memo.hits) /
                         static_cast<double>(memo.hits + memo.misses));
    out.number("transpile.swaps_inserted",
               static_cast<double>(gTranspile.swaps));
    out.number("transpile.two_qubit_gates",
               static_cast<double>(gTranspile.twoQubitGates));

    const char *counts[][2] = {
        {"sim.plan.statevector.calls", obs::names::kSimPlanStatevector},
        {"sim.plan.density_matrix.calls", obs::names::kSimPlanDensityMatrix},
        {"sim.plan.stabilizer.calls", obs::names::kSimPlanStabilizer},
        {"sim.plan.trajectory.calls", obs::names::kSimPlanTrajectory},
        {"sim.shots", obs::names::kSimShots},
        {"sim.trajectories", obs::names::kSimTrajectories},
        {"sim.sv.gate_applies", obs::names::kSimSvGateApplies},
        {"sim.dm.gate_applies", obs::names::kSimDmGateApplies},
        {"sim.kernel.serial_ops", obs::names::kSimKernelSerialOps},
        {"sim.kernel.parallel_ops", obs::names::kSimKernelParallelOps},
        {"sim.alloc_bytes", obs::names::kSimAllocBytes},
    };
    for (const auto &pair : counts)
        out.number(pair[0], static_cast<double>(counterValue(pair[1])));

    const std::uint64_t sv = counterValue(obs::names::kSimSvGateApplies);
    const std::uint64_t dm = counterValue(obs::names::kSimDmGateApplies);
    const double sim_sv_applies =
        static_cast<double>(sv - std::min(sv, gGenerateSvApplies));
    out.number("sim.sv.bytes_computed",
               gGenerateSvBytes +
                   (gSimMix.svWeight > 0
                        ? sim_sv_applies * gSimMix.svWeightedBytes /
                              gSimMix.svWeight
                        : 0.0));
    out.number("sim.dm.bytes_computed",
               gSimMix.dmWeight > 0 ? static_cast<double>(dm) *
                                          gSimMix.dmWeightedBytes /
                                          gSimMix.dmWeight
                                    : 0.0);
    double engine_ns = 0;
    for (const char *engine :
         {"sim.statevector.run", "sim.density_matrix.run",
          "sim.stabilizer.run", "sim.trajectory_midcircuit.run",
          "sim.trajectory_wide.run"}) {
        auto it = spans.ns.find(engine);
        if (it != spans.ns.end())
            engine_ns += static_cast<double>(it->second);
    }
    out.number("sim.ns_per_gate_apply",
               sim_sv_applies + static_cast<double>(dm) > 0
                   ? engine_ns / (sim_sv_applies + static_cast<double>(dm))
                   : 0.0);

    for (const char *status :
         {"ok", "too_large", "skipped", "failed", "partial"}) {
        auto it = gCells.cells.find(status);
        out.number(std::string("jobs.cells.") + status,
                   it == gCells.cells.end()
                       ? 0.0
                       : static_cast<double>(it->second));
    }
    out.number("jobs.retry.attempts", static_cast<double>(gCells.attempts));

    out.number("trace.worker_s", worker_ns / 1e9);
    out.number("trace.coverage_frac",
               worker_ns > 0
                   ? static_cast<double>(spans.selfTotalNs) / worker_ns
                   : 0.0);
}

/** Fields every replay reports next to its metrics; writes the trace. */
void
replayFacts(JsonOut &result, const sim::kernels::KernelConfig &at_start,
            const std::string &out_dir)
{
    writeChromeTrace(out_dir + "/trace.json");
    const sim::kernels::KernelConfig at_end = sim::kernels::kernelConfig();
    result.raw("counters", countersJson());
    result.raw("kernel_config", kernelConfigJson(at_end));
    result.raw("kernel_config_unchanged",
               sameConfig(at_start, at_end) ? "true" : "false");
}

// ---------------------------------------------------------------------
// grid

/** Same scale as `bench_fig2_scores --quick --jobs 2`. */
bench::Scale
gridScale()
{
    bench::Scale scale;
    scale.defaultShots = 150;
    scale.repetitions = 2;
    scale.jobs = 2;
    return scale;
}

int
replayGrid(const std::string &out_dir)
{
    // bench_fig2_scores' ObsSession: fresh registry, metrics on.
    obs::resetMetrics();
    obs::setMetricsEnabled(true);
    const sim::kernels::KernelConfig config_at_start =
        sim::kernels::kernelConfig();
    const bench::Scale scale = gridScale();

    const std::uint64_t t0 = nowNs();
    std::vector<core::BenchmarkPtr> suite = figure2Suite();
    const std::vector<device::Device> devices = device::allDevices();
    const std::uint64_t t1 = nowNs();

    bench::Fig2Grid grid;
    for (const device::Device &dev : devices)
        grid.deviceNames.push_back(dev.name);
    const std::size_t n_rows = suite.size();
    const std::size_t n_devices = devices.size();
    grid.rows.resize(n_rows);
    util::parallelFor(scale.jobs, n_rows, [&](std::size_t r) {
        bench::GridRow &row = grid.rows[r];
        row.benchmark = suite[r]->name();
        row.isErrorCorrection = row.benchmark.rfind("bit_code", 0) == 0 ||
                                row.benchmark.rfind("phase_code", 0) == 0;
        qc::Circuit primary = circuitsOf(*suite[r]).front();
        ScopedSpan span("core.features", "core");
        row.features = core::computeFeatures(primary);
        row.stats = core::computeStats(primary);
        row.runs.resize(n_devices);
    });
    const std::uint64_t t2 = nowNs();

    jobs::JobOptions job_options;
    job_options.harness.repetitions = scale.repetitions;
    job_options.harness.shots = scale.defaultShots;
    std::vector<std::uint64_t> cell_ns(n_rows * n_devices, 0);
    util::parallelFor(scale.jobs, n_rows * n_devices, [&](std::size_t cell) {
        const std::uint64_t start = nowNs();
        const std::size_t r = cell / n_devices;
        const std::size_t d = cell % n_devices;
        jobs::JobOptions options = job_options;
        options.harness.seed = 1000 + r;
        tRequest = static_cast<std::uint32_t>(cell + 1);
        grid.rows[r].runs[d] = replayJob(*suite[r], devices[d], options);
        tRequest = 0;
        cell_ns[cell] = nowNs() - start;
    });
    const std::uint64_t t3 = nowNs();

    std::string text;
    {
        ScopedSpan span("report.grid_serialize", "report");
        text = bench::serializeGrid(grid);
    }
    bool reload_ok = false;
    {
        // Hand the grid to the regenerators' cache loader, as a warm
        // `bench_fig2_scores` run would find it.
        std::ofstream("fig2_cache_150_r2.txt", std::ios::trunc) << text;
        ScopedSpan span("report.grid_cache_load", "report");
        bench::Fig2Grid loaded = bench::computeFig2Grid(scale);
        reload_ok = bench::serializeGrid(loaded) == text;
    }
    const std::uint64_t t4 = nowNs();

    const SpanTotals spans = totalSpans();
    std::uint64_t busy = 0, longest = 0;
    for (std::uint64_t ns : cell_ns) {
        busy += ns;
        longest = std::max(longest, ns);
    }
    // Worker-seconds: each phase's wall time times the threads it keeps
    // busy (suite generation and the report run on one thread).
    const double worker_ns = static_cast<double>(t1 - t0) +
                             2.0 * static_cast<double>(t2 - t1) +
                             2.0 * static_cast<double>(t3 - t2) +
                             static_cast<double>(t4 - t3);

    JsonOut metrics;
    layerMetrics(metrics, spans, 1.0, worker_ns);
    metrics.number("pool.idle_frac",
                   1.0 - static_cast<double>(busy) /
                             (2.0 * static_cast<double>(t3 - t2)));
    metrics.number("pool.longest_cell_ms", ms(longest));
    metrics.number("report.grid_bytes", static_cast<double>(text.size()));

    JsonOut result;
    result.raw("metrics", metrics.str());
    replayFacts(result, config_at_start, out_dir);
    result.raw("reload_ok", reload_ok ? "true" : "false");
    result.number("grid_phase_s", static_cast<double>(t3 - t1) / 1e9);
    std::cout << result.str() << "\n";
    return 0;
}

// ---------------------------------------------------------------------
// serve

struct LogEntry
{
    std::string request;
    std::string reply;
};

std::vector<LogEntry>
readLog(const std::string &path)
{
    std::vector<LogEntry> entries;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const obs::JsonValue record = obs::parseJson(line);
        entries.push_back(LogEntry{record.at("request").asString(),
                                   record.at("reply").asString()});
    }
    return entries;
}

/** The 17-significant-digit number text of smq-serve-result-v1. */
void
writeNumber(std::ostream &out, double value)
{
    std::ostringstream text;
    text.precision(17);
    text << value;
    std::string s = text.str();
    if (s.find("inf") != std::string::npos ||
        s.find("nan") != std::string::npos)
        s = "0";
    out << s;
}

/** The smq-serve-result-v1 payload of docs/PROTOCOL.md section 6. */
std::string
renderResult(const core::BenchmarkRun &run, const serve::SubmitSpec &spec,
             const serve::CacheKey &key)
{
    std::ostringstream out;
    out << "{\"schema\":\"" << serve::kResultSchema << "\""
        << ",\"benchmark\":\"" << obs::escapeJson(run.benchmark) << "\""
        << ",\"device\":\"" << obs::escapeJson(run.device) << "\""
        << ",\"cache_key\":\"" << key.hex << "\""
        << ",\"shots\":" << spec.shots
        << ",\"repetitions\":" << spec.repetitions << ",\"seed\":" << spec.seed
        << ",\"status\":\"" << core::toString(run.status) << "\""
        << ",\"cause\":\"" << core::toString(run.cause) << "\""
        << ",\"scores\":[";
    for (std::size_t i = 0; i < run.scores.size(); ++i) {
        if (i)
            out << ",";
        writeNumber(out, run.scores[i]);
    }
    out << "],\"mean\":";
    writeNumber(out, run.summary.mean);
    out << ",\"stddev\":";
    writeNumber(out, run.summary.stddev);
    out << ",\"error_bar_scale\":";
    writeNumber(out, run.errorBarScale);
    out << ",\"planned_repetitions\":" << run.plannedRepetitions
        << ",\"attempts\":" << run.attempts
        << ",\"physical_two_qubit_gates\":" << run.physicalTwoQubitGates
        << ",\"swaps_inserted\":" << run.swapsInserted << ",\"plan\":\""
        << obs::escapeJson(run.plan) << "\""
        << ",\"detail\":\"" << obs::escapeJson(run.detail) << "\"}";
    return out.str();
}

/** The daemon's job options for one submit (smq_serve defaults). */
jobs::JobOptions
serveJobOptions(const serve::SubmitSpec &spec)
{
    jobs::JobOptions options;
    options.harness.shots = spec.shots;
    options.harness.repetitions = static_cast<std::size_t>(spec.repetitions);
    options.harness.seed = spec.seed;
    options.harness.jobs = 1;
    return options;
}

int
replayServe(const std::string &log_path, const std::string &out_dir)
{
    // smq_serve: metrics on unless --no-metrics.
    obs::resetMetrics();
    obs::setMetricsEnabled(true);
    const sim::kernels::KernelConfig config_at_start =
        sim::kernels::kernelConfig();
    const std::vector<LogEntry> log = readLog(log_path);
    const std::vector<device::Device> devices = device::allDevices();
    serve::ServerOptions defaults;
    serve::ResultCache cache(defaults.cacheBytes);
    // `--workers 2`: one pool thread plus the scheduler thread, so every
    // job runs inside a pool task, as on the daemon.
    util::ThreadPool pool(defaults.workers - 1);

    std::uint64_t next_id = 1, submits = 0, mismatches = 0, reply_bytes = 0;
    std::uint64_t hits = 0;
    std::uint32_t request = 0;
    std::string first_mismatch;
    const std::uint64_t t0 = nowNs();
    for (const LogEntry &entry : log) {
        tRequest = ++request;
        serve::ParsedRequest parsed;
        {
            ScopedSpan span("serve.parse", "serve");
            parsed = serve::parseRequest(entry.request);
        }
        if (!parsed.ok() ||
            parsed.request->type != serve::RequestType::Submit)
            continue;
        const serve::SubmitSpec &spec = parsed.request->submit;
        ++submits;
        core::BenchmarkPtr benchmark;
        const device::Device *device = nullptr;
        {
            ScopedSpan span("serve.factory", "serve");
            benchmark = generate(isVariational(spec.benchmark), [&] {
                return serve::makeBenchmark(spec.benchmark);
            });
            device = serve::findDevice(spec.device, devices);
        }
        if (!benchmark || device == nullptr) {
            ++mismatches;
            continue;
        }
        serve::CacheKey key;
        {
            ScopedSpan span("serve.cache_key", "serve");
            key = serve::deriveCacheKey(spec, *benchmark, *device);
        }
        std::optional<std::string> payload;
        {
            ScopedSpan span("serve.cache_lookup", "serve");
            payload = cache.lookup(key.hex);
        }
        const bool cached = payload.has_value();
        if (cached)
            ++hits;
        const std::string id = "job-" + std::to_string(next_id++);
        if (!cached) {
            pool.parallelFor(1, [&](std::size_t) {
                tRequest = request;
                ScopedSpan span("serve.execute", "serve");
                const core::BenchmarkRun run =
                    replayJob(*benchmark, *device, serveJobOptions(spec));
                payload = renderResult(run, spec, key);
                cache.insert(key.hex, *payload);
            });
        }
        std::string reply;
        {
            ScopedSpan span("serve.reply", "serve");
            const obs::TraceContext trace = obs::TraceContext::derive(
                spec.seed, spec.benchmark, spec.device);
            std::ostringstream out;
            out << "{\"ok\":true,\"type\":\"submit\",\"id\":\"" << id
                << "\",\"state\":\"done\",\"cached\":"
                << (cached ? "true" : "false") << ",\"cache_key\":\""
                << key.hex << "\",\"trace_id\":\"" << trace.traceIdHex()
                << "\",\"result\":" << *payload << "}";
            reply = out.str();
        }
        reply_bytes += reply.size() + 1;
        if (reply != entry.reply) {
            if (first_mismatch.empty())
                first_mismatch = reply;
            ++mismatches;
        }
    }
    tRequest = 0;
    const std::uint64_t t1 = nowNs();
    const SpanTotals spans = totalSpans();
    const double per = submits > 0 ? static_cast<double>(submits) : 1.0;

    JsonOut metrics;
    // The main thread and the pool thread take turns: one busy worker.
    layerMetrics(metrics, spans, per, static_cast<double>(t1 - t0));
    metrics.number("serve.cache.hit_ratio",
                   static_cast<double>(hits) / per);
    metrics.number("serve.cache.lookups", static_cast<double>(submits));
    metrics.number("serve.reply_bytes",
                   static_cast<double>(reply_bytes) / per);

    JsonOut result;
    result.raw("metrics", metrics.str());
    replayFacts(result, config_at_start, out_dir);
    result.number("submits", static_cast<double>(submits));
    result.number("mismatches", static_cast<double>(mismatches));
    result.text("first_mismatch", first_mismatch);
    result.number("replay_s", static_cast<double>(t1 - t0) / 1e9);
    std::cout << result.str() << "\n";
    return 0;
}

/**
 * Re-run @p count seeded misses of a serve log through the batch
 * jobs::runJob path and compare the rendered payloads with the
 * daemon's replies.
 */
int
verifyServe(const std::string &log_path, std::size_t count,
            std::uint64_t seed)
{
    const std::vector<LogEntry> log = readLog(log_path);
    const std::vector<device::Device> devices = device::allDevices();
    std::vector<std::size_t> misses;
    for (std::size_t i = 0; i < log.size(); ++i) {
        if (log[i].reply.find("\"cached\":false") != std::string::npos)
            misses.push_back(i);
    }
    stats::Rng rng(seed);
    std::uint64_t checked = 0, mismatches = 0;
    for (std::size_t k = 0; k < count && !misses.empty(); ++k) {
        const std::size_t pick = rng.index(misses.size());
        const LogEntry &entry = log[misses[pick]];
        misses.erase(misses.begin() + static_cast<std::ptrdiff_t>(pick));
        const serve::ParsedRequest parsed = serve::parseRequest(entry.request);
        ++checked;
        const std::size_t at = entry.reply.find("\"result\":");
        if (!parsed.ok() || at == std::string::npos) {
            ++mismatches;
            continue;
        }
        const serve::SubmitSpec &spec = parsed.request->submit;
        core::BenchmarkPtr benchmark = serve::makeBenchmark(spec.benchmark);
        const device::Device *device =
            serve::findDevice(spec.device, devices);
        if (!benchmark || device == nullptr) {
            ++mismatches;
            continue;
        }
        const serve::CacheKey key =
            serve::deriveCacheKey(spec, *benchmark, *device);
        const jobs::JobOptions options = serveJobOptions(spec);
        jobs::SweepContext ctx(options);
        const core::BenchmarkRun run =
            jobs::runJob(*benchmark, *device, options, ctx);
        const std::string expected = entry.reply.substr(
            at + 9, entry.reply.size() - at - 10);
        if (renderResult(run, spec, key) != expected)
            ++mismatches;
    }
    JsonOut result;
    result.number("checked", static_cast<double>(checked));
    result.number("mismatches", static_cast<double>(mismatches));
    std::cout << result.str() << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    try {
        if (args.size() == 1 && args[0] == "config") {
            // The kernel policy every binary of this build resolves
            // when nothing sets it, which none of the shipped ones do.
            JsonOut result;
            result.raw("kernel_config",
                       kernelConfigJson(sim::kernels::kernelConfig()));
            result.number("threads_available",
                          static_cast<double>(util::defaultJobs()));
            std::cout << result.str() << "\n";
            return 0;
        }
        if (args.size() == 2 && args[0] == "grid")
            return replayGrid(args[1]);
        if (args.size() == 3 && args[0] == "serve")
            return replayServe(args[1], args[2]);
        if (args.size() == 4 && args[0] == "verify")
            return verifyServe(args[1], std::stoul(args[2]),
                               std::stoull(args[3]));
    } catch (const std::exception &e) {
        std::cerr << "smqbench_replay: " << e.what() << "\n";
        return 1;
    }
    std::cerr << "usage: smqbench_replay config | grid OUT_DIR | "
                 "serve LOG OUT_DIR | verify LOG N SEED\n";
    return 2;
}
