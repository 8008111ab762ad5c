#include "jobs/scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "sim/memory.hpp"

namespace smq::jobs {

namespace {

/** Stream discriminators for the per-job derived seeds. */
constexpr std::uint64_t kSimStream = 1;
constexpr std::uint64_t kRetryStream = 2;

bool
needsMidCircuitMeasurement(const core::Benchmark &benchmark)
{
    for (const qc::Circuit &circuit : benchmark.circuits()) {
        if (sim::hasMidCircuitOperations(circuit))
            return true;
    }
    return false;
}

std::string
attemptTag(std::size_t rep, std::size_t attempt)
{
    return "rep" + std::to_string(rep) + "/try" +
           std::to_string(attempt + 1);
}

void
appendEvent(std::string &detail, const std::string &event)
{
    if (!detail.empty())
        detail += "; ";
    detail += event;
}

/** Bump the per-status cell counter for a finished job. */
void
countCellStatus(core::RunStatus status)
{
    const char *name = nullptr;
    switch (status) {
      case core::RunStatus::Ok:
        name = obs::names::kJobsCellsOk;
        break;
      case core::RunStatus::Partial:
        name = obs::names::kJobsCellsPartial;
        break;
      case core::RunStatus::Skipped:
        name = obs::names::kJobsCellsSkipped;
        break;
      case core::RunStatus::TooLarge:
        name = obs::names::kJobsCellsTooLarge;
        break;
      case core::RunStatus::Failed:
        name = obs::names::kJobsCellsFailed;
        break;
    }
    if (name != nullptr)
        obs::counter(name).add();
}

/** runJob body; the public wrapper adds the span and cell counters. */
core::BenchmarkRun
runJobImpl(const core::Benchmark &benchmark, const device::Device &device,
           const JobOptions &options, SweepContext &ctx)
{
    using core::FailureCause;
    using core::RunStatus;

    core::BenchmarkRun run;
    run.benchmark = benchmark.name();
    run.device = device.name;
    run.plannedRepetitions = options.harness.repetitions;

    // --- capability gating: structured skips instead of throws ------
    if (benchmark.numQubits() > device.numQubits()) {
        run.status = RunStatus::TooLarge;
        run.cause = FailureCause::RegisterTooWide;
        run.tooLarge = true;
        run.detail = "needs " + std::to_string(benchmark.numQubits()) +
                     " qubits, device has " +
                     std::to_string(device.numQubits());
        return run;
    }
    const device::Capabilities &caps = device.caps;
    if (caps.maxRegisterSize > 0 &&
        benchmark.numQubits() > caps.maxRegisterSize) {
        run.status = RunStatus::Skipped;
        run.cause = FailureCause::RegisterTooWide;
        run.detail = "service register cap " +
                     std::to_string(caps.maxRegisterSize);
        return run;
    }
    if (!caps.midCircuitMeasurement &&
        needsMidCircuitMeasurement(benchmark)) {
        run.status = RunStatus::Skipped;
        run.cause = FailureCause::MissingMidCircuitMeasurement;
        run.detail = "device lacks mid-circuit measurement/RESET";
        return run;
    }
    if (ctx.deadline().expired(ctx.clock())) {
        run.status = RunStatus::Skipped;
        run.cause = FailureCause::DeadlineExceeded;
        run.detail = "suite budget exhausted before submission";
        return run;
    }

    // --- graceful degradation: clamp to the service shot cap --------
    std::uint64_t shots = options.harness.shots;
    if (caps.maxShots > 0 && shots > caps.maxShots) {
        shots = caps.maxShots;
        appendEvent(run.detail, "shots clamped to " +
                                    std::to_string(shots) +
                                    " (service cap)");
    }

    // --- transpile once, as the synchronous harness does ------------
    core::PreparedCircuits prepared =
        core::prepareCircuits(benchmark, device, options.harness);
    if (prepared.tooLarge) {
        run.status = RunStatus::TooLarge;
        run.cause = FailureCause::SimulatorLimit;
        run.tooLarge = true;
        return run;
    }
    if (options.stop && options.stop()) {
        run.status = RunStatus::Skipped;
        run.cause = FailureCause::Interrupted;
        run.detail = "shutdown requested before submission";
        return run;
    }
    run.physicalTwoQubitGates = prepared.physicalTwoQubitGates;
    run.swapsInserted = prepared.swapsInserted;
    // The plan rides along even for Partial/Failed outcomes: a
    // salvaged cell's record still names the engine that produced its
    // scores.
    run.plan = prepared.planSummary();

    // Per-job streams derived from (injector seed, labels): results do
    // not depend on where in the sweep this job runs.
    const FaultInjector &injector = ctx.injector();
    stats::Rng sim_rng(streamSeed(injector.seed(), device.name,
                                  run.benchmark, options.harness.seed,
                                  kSimStream));
    stats::Rng retry_rng(streamSeed(injector.seed(), device.name,
                                    run.benchmark, options.harness.seed,
                                    kRetryStream));

    const double shot_cost_us =
        options.cost.perShotUs *
        static_cast<double>(prepared.circuits.size());

    bool deadline_hit = false;
    bool attempts_exhausted = false;
    bool interrupted = false;
    std::size_t truncated_reps = 0;

    for (std::size_t rep = 0; rep < options.harness.repetitions; ++rep) {
        double delay = options.retry.baseDelayUs;
        bool completed = false;
        for (std::size_t attempt = 0;
             attempt < options.retry.maxAttempts; ++attempt) {
            // Cooperative shutdown behaves exactly like an expired
            // deadline: stop submitting, keep what already finished.
            if (options.stop && options.stop()) {
                interrupted = true;
                break;
            }
            if (ctx.deadline().expired(ctx.clock())) {
                deadline_hit = true;
                break;
            }
            FaultDecision decision = injector.decide(
                device.name, run.benchmark, rep, attempt);
            ctx.clock().advance(options.cost.submitOverheadUs +
                                options.cost.queueWaitUs);
            ++run.attempts;
            static obs::Counter &attempt_counter =
                obs::counter(obs::names::kJobsRetryAttempts);
            attempt_counter.add();

            if (decision.kind == FaultKind::TransientFault ||
                decision.kind == FaultKind::QueueTimeout) {
                obs::counter(decision.kind == FaultKind::TransientFault
                                 ? obs::names::kJobsFaultsTransient
                                 : obs::names::kJobsFaultsQueueTimeout)
                    .add();
                appendEvent(run.detail,
                            attemptTag(rep, attempt) + ": " +
                                core::causeToken(
                                    decision.kind ==
                                            FaultKind::TransientFault
                                        ? FailureCause::TransientFault
                                        : FailureCause::QueueTimeout));
                if (attempt + 1 == options.retry.maxAttempts) {
                    attempts_exhausted = true;
                    break;
                }
                delay = options.retry.nextDelay(delay, retry_rng);
                ctx.clock().advance(delay);
                continue;
            }

            std::uint64_t eff_shots = shots;
            if (decision.kind == FaultKind::ShotTruncation) {
                obs::counter(obs::names::kJobsFaultsShotTruncation).add();
                eff_shots = std::max<std::uint64_t>(
                    1, static_cast<std::uint64_t>(
                           static_cast<double>(shots) *
                           decision.shotFraction));
                ++truncated_reps;
                appendEvent(run.detail,
                            attemptTag(rep, attempt) +
                                ": truncated to " +
                                std::to_string(eff_shots) + "/" +
                                std::to_string(shots) + " shots");
            }
            ctx.clock().advance(static_cast<double>(eff_shots) *
                                shot_cost_us);
            sim::NoiseModel noise = FaultInjector::perturbed(
                device.noise, decision.driftFactor);
            try {
                run.scores.push_back(core::runRepetition(
                    benchmark, prepared, noise, eff_shots, sim_rng, {},
                    options.harness.planner));
            } catch (const sim::ResourceExhausted &e) {
                // The simulator refused the allocation up front: the
                // cell is structurally too large, end it here rather
                // than retrying into the same wall.
                run.status = RunStatus::TooLarge;
                run.cause = FailureCause::ResourceExhausted;
                run.tooLarge = true;
                run.scores.clear();
                appendEvent(run.detail, e.what());
                return run;
            }
            completed = true;
            break;
        }
        if (!completed && (deadline_hit || interrupted))
            break; // no budget left for the remaining repetitions
    }

    // --- salvage & classify -----------------------------------------
    std::size_t completed_reps = run.scores.size();
    if (completed_reps > 0) {
        run.summary = stats::summarize(run.scores);
        run.errorBarScale = std::sqrt(
            static_cast<double>(options.harness.repetitions) /
            static_cast<double>(completed_reps));
    }

    FailureCause loss = FailureCause::None;
    if (interrupted)
        loss = FailureCause::Interrupted;
    else if (deadline_hit)
        loss = FailureCause::DeadlineExceeded;
    else if (attempts_exhausted)
        loss = FailureCause::AttemptsExhausted;
    else if (truncated_reps > 0)
        loss = FailureCause::ShotTruncation;

    if (completed_reps == 0) {
        run.status = RunStatus::Failed;
        run.cause = loss == FailureCause::None ? FailureCause::Internal
                                               : loss;
    } else if (completed_reps < options.harness.repetitions) {
        run.status = RunStatus::Partial;
        run.cause = loss;
        appendEvent(run.detail,
                    "salvaged " + std::to_string(completed_reps) + "/" +
                        std::to_string(options.harness.repetitions) +
                        " repetitions");
    } else if (truncated_reps > 0) {
        run.status = RunStatus::Partial;
        run.cause = FailureCause::ShotTruncation;
    } else {
        run.status = RunStatus::Ok;
    }
    return run;
}

} // namespace

core::BenchmarkRun
runJob(const core::Benchmark &benchmark, const device::Device &device,
       const JobOptions &options, SweepContext &ctx)
{
    core::BenchmarkRun run;
    {
        SMQ_TRACE_SPAN(obs::names::kSpanJob,
                       obs::jsonField("benchmark", benchmark.name()) +
                           "," + obs::jsonField("device", device.name));
        run = runJobImpl(benchmark, device, options, ctx);
    }
    countCellStatus(run.status);
    obs::progressTick(obs::names::kSpanJob);
    if (run.status == core::RunStatus::Partial &&
        !run.scores.empty()) {
        obs::counter(obs::names::kJobsSalvagedRepetitions)
            .add(run.scores.size());
    }
    return run;
}

} // namespace smq::jobs
