#include "core/harness.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "sim/memory.hpp"
#include "sim/planner.hpp"
#include "transpile/cache.hpp"
#include "util/thread_pool.hpp"

namespace smq::core {

std::string
PreparedCircuits::planSummary() const
{
    std::string summary;
    for (const sim::Plan &plan : plans) {
        const std::string token = plan.token();
        // Deduplicate while preserving first-seen order (most
        // benchmarks plan all their circuits identically).
        if (("+" + summary + "+").find("+" + token + "+") !=
            std::string::npos)
            continue;
        if (!summary.empty())
            summary += "+";
        summary += token;
    }
    return summary;
}

PreparedCircuits
prepareCircuits(const Benchmark &benchmark, const device::Device &device,
                const HarnessOptions &options)
{
    SMQ_TRACE_SPAN(obs::names::kSpanPrepare,
                   obs::jsonField("benchmark", benchmark.name()) + "," +
                       obs::jsonField("device", device.name));
    // Transpile each circuit once (the Closed-Division pipeline is
    // deterministic); repetitions then differ by trajectory sampling,
    // which captures shot-to-shot and run-to-run noise variation.
    // Results are memoized process-wide, so repeated sweeps over the
    // same (benchmark instance, device) stop re-transpiling.
    PreparedCircuits prepared;
    for (const qc::Circuit &logical : benchmark.circuits()) {
        transpile::TranspileResult result =
            transpile::cachedTranspile(logical, device, options.transpile);
        prepared.physicalTwoQubitGates += result.twoQubitGateCount;
        prepared.swapsInserted += result.swapsInserted;
        auto [compact, mapping] =
            transpile::compactCircuit(result.circuit);
        if (compact.numQubits() > options.maxSimQubits) {
            // Bail out consistently: a half-summed gate count over a
            // prefix of the circuit list would be misleading.
            prepared = PreparedCircuits{};
            prepared.tooLarge = true;
            return prepared;
        }
        // Record the backend decision next to the circuit it covers:
        // planCircuit is pure, so the plan journaled here is exactly
        // the one the runner re-derives at execution time.
        prepared.plans.push_back(
            sim::planCircuit(compact, device.noise, options.planner));
        prepared.circuits.push_back(std::move(compact));
    }
    return prepared;
}

double
runRepetition(const Benchmark &benchmark, const PreparedCircuits &prepared,
              const sim::NoiseModel &noise, std::uint64_t shots,
              stats::Rng &rng, const sim::FaultHook &faultHook,
              const sim::PlannerConfig &planner)
{
    std::vector<stats::Counts> counts;
    counts.reserve(prepared.circuits.size());
    for (const qc::Circuit &circuit : prepared.circuits) {
        sim::RunOptions ro;
        ro.shots = shots;
        ro.noise = noise;
        ro.faultHook = faultHook;
        ro.planner = planner;
        counts.push_back(sim::run(circuit, ro, rng));
    }
    return benchmark.score(counts);
}

BenchmarkRun
runBenchmark(const Benchmark &benchmark, const device::Device &device,
             const HarnessOptions &options)
{
    static obs::Counter &runs_counter =
        obs::counter(obs::names::kHarnessRuns);
    static obs::Counter &too_large_counter =
        obs::counter(obs::names::kHarnessTooLarge);
    runs_counter.add();

    BenchmarkRun run;
    run.benchmark = benchmark.name();
    run.device = device.name;
    run.plannedRepetitions = options.repetitions;

    if (benchmark.numQubits() > device.numQubits()) {
        too_large_counter.add();
        run.status = RunStatus::TooLarge;
        run.cause = FailureCause::RegisterTooWide;
        run.tooLarge = true;
        return run;
    }

    PreparedCircuits prepared =
        prepareCircuits(benchmark, device, options);
    if (prepared.tooLarge) {
        too_large_counter.add();
        run.status = RunStatus::TooLarge;
        run.cause = FailureCause::SimulatorLimit;
        run.tooLarge = true;
        return run;
    }
    run.physicalTwoQubitGates = prepared.physicalTwoQubitGates;
    run.swapsInserted = prepared.swapsInserted;
    run.plan = prepared.planSummary();

    // Every repetition owns a seed-derived stream, so the loop can fan
    // out across worker threads and still produce the scores a serial
    // run would: each slot is written by exactly one task.
    static obs::Counter &reps_counter =
        obs::counter(obs::names::kHarnessRepetitions);
    run.scores.assign(options.repetitions, 0.0);
    try {
        util::parallelFor(
            options.jobs, options.repetitions, [&](std::size_t rep) {
                SMQ_TRACE_SPAN(
                    obs::names::kSpanRepetition,
                    obs::jsonField("benchmark", run.benchmark) + "," +
                        obs::jsonField("device", run.device) + "," +
                        obs::jsonField("rep",
                                       static_cast<std::uint64_t>(rep)));
                reps_counter.add();
                stats::Rng rng(util::deriveTaskSeed(options.seed, rep));
                run.scores[rep] = runRepetition(
                    benchmark, prepared, device.noise, options.shots,
                    rng, {}, options.planner);
                obs::progressTick(obs::names::kSpanRepetition);
            });
    } catch (const sim::ResourceExhausted &e) {
        // A cell that would not fit in memory is a structured outcome
        // (Fig. 2's X), not a reason to take down the whole sweep.
        too_large_counter.add();
        run = BenchmarkRun{};
        run.benchmark = benchmark.name();
        run.device = device.name;
        run.plannedRepetitions = options.repetitions;
        run.status = RunStatus::TooLarge;
        run.cause = FailureCause::ResourceExhausted;
        run.tooLarge = true;
        run.detail = e.what();
        return run;
    }
    run.attempts = options.repetitions;
    run.summary = stats::summarize(run.scores);
    return run;
}

double
noiselessScore(const Benchmark &benchmark, std::uint64_t shots,
               std::uint64_t seed, std::size_t maxSimQubits)
{
    if (shots == 0)
        throw std::invalid_argument("noiselessScore: shots == 0");
    if (benchmark.numQubits() > maxSimQubits) {
        throw std::invalid_argument(
            "noiselessScore: " + benchmark.name() + " needs " +
            std::to_string(benchmark.numQubits()) +
            " qubits, over the statevector budget of " +
            std::to_string(maxSimQubits));
    }
    stats::Rng rng(seed);
    std::vector<stats::Counts> counts;
    for (const qc::Circuit &circuit : benchmark.circuits()) {
        sim::RunOptions ro;
        ro.shots = shots;
        counts.push_back(sim::run(circuit, ro, rng));
    }
    return benchmark.score(counts);
}

obs::RunManifest
makeRunManifest(const std::string &tool, const HarnessOptions &options)
{
    obs::RunManifest manifest = obs::RunManifest::capture(tool);
    manifest.deviceTableVersion = device::kDeviceTableVersion;
    manifest.seed = options.seed;
    manifest.shots = options.shots;
    manifest.repetitions = options.repetitions;
    manifest.jobs = options.jobs;
    // The requested engine; per-job manifests additionally carry the
    // resolved per-cell plan (chosen backend + reason).
    manifest.extra["sim.backend"] = sim::toString(options.planner.force);
    return manifest;
}

} // namespace smq::core
