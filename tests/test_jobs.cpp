/**
 * @file
 * Tests for the fault-tolerant job execution layer: seeded
 * fault-schedule determinism, retry-until-success under transient
 * faults, deadline exhaustion salvaging partial results, capability
 * gating, and byte-for-byte reproducibility of full sweep reports.
 */

#include <gtest/gtest.h>

#include "core/benchmarks/error_correction.hpp"
#include "core/benchmarks/ghz.hpp"
#include "core/suites.hpp"
#include "jobs/report.hpp"

namespace smq::jobs {
namespace {

FaultProfile
stormProfile()
{
    FaultProfile profile;
    profile.pTransient = 0.25;
    profile.pQueueTimeout = 0.10;
    profile.pShotTruncation = 0.15;
    profile.calibrationDrift = 0.05;
    return profile;
}

JobOptions
quickJobOptions()
{
    JobOptions options;
    options.harness.shots = 100;
    options.harness.repetitions = 3;
    return options;
}

TEST(FaultInjector, DeterministicAndOrderIndependent)
{
    FaultInjector a(42), b(42);
    a.setDefaultProfile(stormProfile());
    b.setDefaultProfile(stormProfile());

    // Same labels, any call order: identical decisions.
    FaultDecision d1 = a.decide("IBM-Lagos", "ghz_5", 2, 1);
    a.decide("IonQ", "vqe_4", 0, 0); // interleaved unrelated call
    FaultDecision d2 = a.decide("IBM-Lagos", "ghz_5", 2, 1);
    FaultDecision d3 = b.decide("IBM-Lagos", "ghz_5", 2, 1);
    EXPECT_EQ(d1.kind, d2.kind);
    EXPECT_EQ(d1.kind, d3.kind);
    EXPECT_DOUBLE_EQ(d1.shotFraction, d3.shotFraction);
    EXPECT_DOUBLE_EQ(d1.driftFactor, d3.driftFactor);

    // A different seed produces a different schedule somewhere.
    FaultInjector c(43);
    c.setDefaultProfile(stormProfile());
    bool any_different = false;
    for (std::size_t rep = 0; rep < 20 && !any_different; ++rep) {
        for (std::size_t attempt = 0; attempt < 4; ++attempt) {
            if (a.decide("IBM-Lagos", "ghz_5", rep, attempt).kind !=
                c.decide("IBM-Lagos", "ghz_5", rep, attempt).kind) {
                any_different = true;
                break;
            }
        }
    }
    EXPECT_TRUE(any_different);
}

TEST(FaultInjector, CleanProfileInjectsNothing)
{
    FaultInjector injector(9);
    for (std::size_t rep = 0; rep < 10; ++rep) {
        FaultDecision d = injector.decide("IBM-Lagos", "ghz_5", rep, 0);
        EXPECT_EQ(d.kind, FaultKind::None);
        EXPECT_DOUBLE_EQ(d.shotFraction, 1.0);
        EXPECT_DOUBLE_EQ(d.driftFactor, 1.0);
    }
}

TEST(FaultInjector, DriftPerturbsOnlyErrorRates)
{
    sim::NoiseModel noise = device::ibmLagos().noise;
    sim::NoiseModel drifted = FaultInjector::perturbed(noise, 1.5);
    EXPECT_DOUBLE_EQ(drifted.p1, noise.p1 * 1.5);
    EXPECT_DOUBLE_EQ(drifted.p2, noise.p2 * 1.5);
    EXPECT_DOUBLE_EQ(drifted.pMeas, noise.pMeas * 1.5);
    EXPECT_DOUBLE_EQ(drifted.t1, noise.t1);
    EXPECT_DOUBLE_EQ(drifted.time2q, noise.time2q);
    // Probabilities stay probabilities under extreme drift.
    sim::NoiseModel extreme = FaultInjector::perturbed(noise, 1e6);
    EXPECT_LE(extreme.p2, 0.5);
}

TEST(RetryPolicy, DecorrelatedJitterStaysWithinBounds)
{
    RetryPolicy policy;
    stats::Rng rng(3);
    double delay = policy.baseDelayUs;
    for (int i = 0; i < 50; ++i) {
        delay = policy.nextDelay(delay, rng);
        EXPECT_GE(delay, policy.baseDelayUs);
        EXPECT_LE(delay, policy.maxDelayUs);
    }
}

TEST(Scheduler, RetryUntilSuccessUnderTransientFaults)
{
    core::GhzBenchmark bench(3);
    JobOptions options = quickJobOptions();
    options.retry.maxAttempts = 8;

    FaultInjector injector(11);
    FaultProfile profile;
    profile.pTransient = 0.5; // heavy transient weather, no other modes
    injector.setDefaultProfile(profile);

    SweepContext ctx(options, injector);
    core::BenchmarkRun run =
        runJob(bench, device::ibmLagos(), options, ctx);

    EXPECT_EQ(run.status, core::RunStatus::Ok);
    EXPECT_EQ(run.cause, core::FailureCause::None);
    ASSERT_EQ(run.scores.size(), options.harness.repetitions);
    // With p=0.5 per attempt, retries must have happened for this seed.
    EXPECT_GT(run.attempts, options.harness.repetitions);
    EXPECT_FALSE(run.detail.empty());
    for (double s : run.scores) {
        EXPECT_GE(s, 0.0);
        EXPECT_LE(s, 1.0);
    }
}

TEST(Scheduler, AttemptCapExhaustionSalvagesOtherRepetitions)
{
    core::GhzBenchmark bench(3);
    JobOptions options = quickJobOptions();
    options.harness.repetitions = 6;
    options.retry.maxAttempts = 1; // a single fault loses the rep

    FaultInjector injector(5);
    FaultProfile profile;
    profile.pTransient = 0.5;
    injector.setDefaultProfile(profile);

    SweepContext ctx(options, injector);
    core::BenchmarkRun run =
        runJob(bench, device::ibmLagos(), options, ctx);

    // For this seed some repetitions fail outright and some survive.
    ASSERT_GT(run.scores.size(), 0u);
    ASSERT_LT(run.scores.size(), options.harness.repetitions);
    EXPECT_EQ(run.status, core::RunStatus::Partial);
    EXPECT_EQ(run.cause, core::FailureCause::AttemptsExhausted);
    EXPECT_GT(run.errorBarScale, 1.0);
    EXPECT_EQ(run.summary.n, run.scores.size());
}

TEST(Scheduler, DeadlineExhaustionSalvagesCompletedRepetitions)
{
    core::GhzBenchmark bench(3);
    JobOptions options = quickJobOptions();
    options.harness.repetitions = 4;

    // Reference: the same job with no deadline (same seeds).
    SweepContext unlimited(options, FaultInjector(1));
    core::BenchmarkRun full =
        runJob(bench, device::ibmLagos(), options, unlimited);
    ASSERT_EQ(full.scores.size(), 4u);

    // Budget covers roughly two repetitions: submit + queue is 0.6 s
    // and 100 shots cost 0.025 s, so one repetition is ~0.625 s.
    JobOptions limited = options;
    limited.suiteBudgetUs = 1.26e6;
    SweepContext ctx(limited, FaultInjector(1));
    core::BenchmarkRun run =
        runJob(bench, device::ibmLagos(), limited, ctx);

    EXPECT_EQ(run.status, core::RunStatus::Partial);
    EXPECT_EQ(run.cause, core::FailureCause::DeadlineExceeded);
    ASSERT_GT(run.scores.size(), 0u);
    ASSERT_LT(run.scores.size(), 4u);
    // Salvaged scores are exactly the completed repetitions: a prefix
    // of the unlimited run, not re-scored or interpolated.
    for (std::size_t i = 0; i < run.scores.size(); ++i)
        EXPECT_DOUBLE_EQ(run.scores[i], full.scores[i]);
    EXPECT_GT(run.errorBarScale, 1.0);
    EXPECT_EQ(run.summary.n, run.scores.size());

    // The next job in the same exhausted context is skipped, not run.
    core::BenchmarkRun next =
        runJob(bench, device::ibmLagos(), limited, ctx);
    EXPECT_EQ(next.status, core::RunStatus::Skipped);
    EXPECT_EQ(next.cause, core::FailureCause::DeadlineExceeded);
    EXPECT_TRUE(next.scores.empty());
}

TEST(Scheduler, CapabilityGatesErrorCorrectionOnIonDevice)
{
    // The IonQ service generation the paper used had no mid-circuit
    // measurement; the reference collection script skips bit-code.
    device::Device ion = device::ionqDevice();
    ASSERT_FALSE(ion.caps.midCircuitMeasurement);

    JobOptions options = quickJobOptions();
    SweepContext ctx(options);

    core::BitCodeBenchmark bit_code =
        core::BitCodeBenchmark::alternating(3, 1);
    core::BenchmarkRun gated = runJob(bit_code, ion, options, ctx);
    EXPECT_EQ(gated.status, core::RunStatus::Skipped);
    EXPECT_EQ(gated.cause,
              core::FailureCause::MissingMidCircuitMeasurement);
    EXPECT_TRUE(gated.scores.empty());

    // Terminal-measurement benchmarks still run on the same device.
    core::GhzBenchmark ghz(3);
    core::BenchmarkRun ok = runJob(ghz, ion, options, ctx);
    EXPECT_EQ(ok.status, core::RunStatus::Ok);
    EXPECT_EQ(ok.scores.size(), options.harness.repetitions);
}

TEST(Scheduler, ServiceLimitsGateAndDegradeGracefully)
{
    core::GhzBenchmark bench(3);
    JobOptions options = quickJobOptions();
    options.harness.shots = 500;

    // A register cap below the benchmark width skips the job.
    device::Device capped = device::perfectDevice(6);
    capped.caps.maxRegisterSize = 2;
    SweepContext ctx1(options);
    core::BenchmarkRun skipped = runJob(bench, capped, options, ctx1);
    EXPECT_EQ(skipped.status, core::RunStatus::Skipped);
    EXPECT_EQ(skipped.cause, core::FailureCause::RegisterTooWide);

    // A shot cap clamps rather than failing.
    device::Device miser = device::perfectDevice(6);
    miser.caps.maxShots = 50;
    SweepContext ctx2(options);
    core::BenchmarkRun clamped = runJob(bench, miser, options, ctx2);
    EXPECT_EQ(clamped.status, core::RunStatus::Ok);
    EXPECT_NE(clamped.detail.find("clamped"), std::string::npos);
}

TEST(Scheduler, ShotTruncationReportsPartialWithCause)
{
    core::GhzBenchmark bench(3);
    JobOptions options = quickJobOptions();

    FaultInjector injector(2);
    FaultProfile profile;
    profile.pShotTruncation = 1.0; // every attempt truncates
    profile.minShotFraction = 0.3;
    injector.setDefaultProfile(profile);

    SweepContext ctx(options, injector);
    core::BenchmarkRun run =
        runJob(bench, device::ibmLagos(), options, ctx);

    EXPECT_EQ(run.status, core::RunStatus::Partial);
    EXPECT_EQ(run.cause, core::FailureCause::ShotTruncation);
    EXPECT_EQ(run.scores.size(), options.harness.repetitions);
    EXPECT_NE(run.detail.find("truncated"), std::string::npos);
}

TEST(Report, FullSweepNeverThrowsAndExplainsEveryCell)
{
    std::vector<core::BenchmarkPtr> suite = core::quickSuite();
    std::vector<device::Device> devices = device::allDevices();

    JobOptions options;
    options.harness.shots = 40;
    options.harness.repetitions = 2;
    options.retry.maxAttempts = 2;

    FaultInjector injector(2022);
    injector.setDefaultProfile(stormProfile());

    SuiteReport report;
    ASSERT_NO_THROW(
        report = runSweep(suite, devices, options, injector));
    ASSERT_EQ(report.rows.size(), suite.size());

    std::size_t degraded = 0;
    for (const ReportRow &row : report.rows) {
        ASSERT_EQ(row.runs.size(), devices.size());
        for (const core::BenchmarkRun &run : row.runs) {
            if (run.status == core::RunStatus::Ok) {
                EXPECT_EQ(run.cause, core::FailureCause::None);
                EXPECT_EQ(run.scores.size(),
                          options.harness.repetitions);
            } else {
                // Every degraded cell explains itself.
                EXPECT_NE(run.cause, core::FailureCause::None)
                    << run.benchmark << " @ " << run.device;
                ++degraded;
            }
            if (run.scores.size() < options.harness.repetitions) {
                EXPECT_NE(run.status, core::RunStatus::Ok);
            }
        }
    }
    // The storm profile and capability gates must have landed somewhere
    // in the 8 x 9 grid (EC-on-IonQ skips alone guarantee two).
    EXPECT_GT(degraded, 0u);

    std::array<std::size_t, 5> tally = statusTally(report);
    EXPECT_GT(tally[static_cast<std::size_t>(
                  core::RunStatus::Skipped)],
              0u);
}

TEST(Report, SameSeedReproducesReportByteForByte)
{
    std::vector<core::BenchmarkPtr> suite = core::quickSuite();
    std::vector<device::Device> devices = device::allDevices();

    JobOptions options;
    options.harness.shots = 40;
    options.harness.repetitions = 2;
    options.retry.maxAttempts = 2;

    FaultInjector injector(2022);
    injector.setDefaultProfile(stormProfile());

    std::string first =
        renderReport(runSweep(suite, devices, options, injector));
    std::string second =
        renderReport(runSweep(suite, devices, options, injector));
    EXPECT_EQ(first, second);

    FaultInjector other(2023);
    other.setDefaultProfile(stormProfile());
    std::string different =
        renderReport(runSweep(suite, devices, options, other));
    EXPECT_NE(first, different);
}

TEST(Runner, FaultHookTruncatesExecution)
{
    core::GhzBenchmark bench(3);
    qc::Circuit circuit = bench.circuits().front();

    sim::RunOptions ro;
    ro.shots = 1000;
    ro.noise = device::ibmLagos().noise;
    ro.faultHook = [](std::uint64_t done) { return done >= 100; };
    stats::Rng rng(4);
    stats::Counts counts = sim::run(circuit, ro, rng);
    EXPECT_GE(counts.shots(), 100u);
    EXPECT_LT(counts.shots(), 1000u);

    // Noiseless path batches too.
    sim::RunOptions ideal;
    ideal.shots = 5000;
    ideal.faultHook = [](std::uint64_t done) { return done >= 600; };
    stats::Counts ideal_counts = sim::run(circuit, ideal, rng);
    EXPECT_GE(ideal_counts.shots(), 600u);
    EXPECT_LT(ideal_counts.shots(), 5000u);
}

} // namespace
} // namespace smq::jobs
