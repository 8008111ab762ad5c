/**
 * @file
 * Tests for the backend planner and the Backend dispatch refactor of
 * sim::run (`ctest -L planner`): planner policy over the whole
 * decision surface, planner-vs-forced-backend histogram equivalence
 * (byte-identity when the engine matches, TVD bounds against exact
 * references for trajectories), exact shot accounting with FaultHook
 * truncation on every backend, trailing-operation semantics of
 * hasMidCircuitOperations, overflow-checked denseBytes at widths the
 * old arithmetic silently wrapped on, TooLarge-vs-trajectory routing
 * through the jobs layer at widths beyond the density-matrix cap, the
 * plan record's journey into grid caches / checkpoint journals /
 * manifests, serve cache-key stability across daemon --backend
 * changes, and the noisy-step rules every engine shares (a readout
 * flip per measurement, no error after a 3-qubit gate, the tableau's
 * recorded noisy path).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "core/benchmarks/ghz.hpp"
#include "core/benchmarks/hamiltonian_simulation.hpp"
#include "core/harness.hpp"
#include "device/device.hpp"
#include "fig_data.hpp"
#include "jobs/scheduler.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "report/checkpoint.hpp"
#include "serve/server.hpp"
#include "sim/density_matrix.hpp"
#include "sim/memory.hpp"
#include "sim/planner.hpp"
#include "sim/runner.hpp"

namespace smq {
namespace {

namespace fs = std::filesystem;

// --- circuit fixtures ------------------------------------------------

/** GHZ ladder with terminal measure-all: Clifford, terminal. */
qc::Circuit
cliffordTerminal(std::size_t n)
{
    qc::Circuit c(n, n, "ghz");
    c.h(0);
    for (std::size_t q = 1; q < n; ++q)
        c.cx(q - 1, q);
    for (std::size_t q = 0; q < n; ++q)
        c.measure(q, q);
    return c;
}

/** Non-Clifford (rotation angles off the Clifford grid), terminal. */
qc::Circuit
rotationTerminal(std::size_t n)
{
    qc::Circuit c(n, n, "rot");
    for (std::size_t q = 0; q < n; ++q)
        c.rx(0.3 + 0.2 * static_cast<double>(q), q);
    for (std::size_t q = 1; q < n; ++q)
        c.cx(q - 1, q);
    c.ry(0.7, 0);
    for (std::size_t q = 0; q < n; ++q)
        c.measure(q, q);
    return c;
}

/** Mid-circuit collapse: measured qubit is reused before the end. */
qc::Circuit
midCircuit(std::size_t n)
{
    qc::Circuit c(n, n, "mid");
    c.rx(0.4, 0);
    c.measure(0, 0);
    c.rx(0.9, 0); // gate on a finalized qubit: outcome-dependent
    for (std::size_t q = 1; q < n; ++q)
        c.cx(q - 1, q);
    for (std::size_t q = 0; q < n; ++q)
        c.measure(q, q);
    return c;
}

sim::NoiseModel
mildNoise()
{
    sim::NoiseModel noise;
    noise.enabled = true;
    noise.p1 = 0.002;
    noise.p2 = 0.01;
    noise.pMeas = 0.01;
    return noise;
}

/** TVD of an empirical histogram from an exact distribution. */
double
tvdFrom(const stats::Counts &counts, const stats::Distribution &ref)
{
    const double n = static_cast<double>(counts.shots());
    double sum = 0.0;
    for (const auto &[bits, c] : counts.map())
        sum += std::abs(static_cast<double>(c) / n -
                        ref.probability(bits));
    for (const auto &[bits, p] : ref.map()) {
        if (counts.at(bits) == 0)
            sum += p;
    }
    return sum / 2.0;
}

// --- planner policy --------------------------------------------------

TEST(Planner, NoiselessTerminalCliffordSamplesTheStatevector)
{
    sim::Plan plan =
        sim::planCircuit(cliffordTerminal(4), sim::NoiseModel::ideal());
    EXPECT_EQ(plan.backend, sim::BackendKind::Statevector);
    EXPECT_EQ(plan.reason, "ideal");
    EXPECT_TRUE(plan.clifford);
    EXPECT_FALSE(plan.midCircuit);
    EXPECT_EQ(plan.token(), "statevector:ideal");
}

TEST(Planner, NoisyCliffordScalesOnTheTableau)
{
    sim::Plan plan = sim::planCircuit(cliffordTerminal(4), mildNoise());
    EXPECT_EQ(plan.backend, sim::BackendKind::Stabilizer);
    EXPECT_EQ(plan.token(), "stabilizer:clifford");
}

TEST(Planner, MidCircuitCliffordStaysOnTheTableau)
{
    // The tableau collapses measurements natively, so Clifford
    // mid-circuit circuits avoid the shot-per-trajectory path.
    qc::Circuit c(2, 2, "mc");
    c.h(0);
    c.measure(0, 0);
    c.x(0);
    c.cx(0, 1);
    c.measure(0, 0);
    c.measure(1, 1);
    sim::Plan plan = sim::planCircuit(c, sim::NoiseModel::ideal());
    EXPECT_TRUE(plan.midCircuit);
    EXPECT_EQ(plan.backend, sim::BackendKind::Stabilizer);
}

TEST(Planner, NonCliffordMidCircuitForcesTrajectories)
{
    sim::Plan plan =
        sim::planCircuit(midCircuit(3), sim::NoiseModel::ideal());
    EXPECT_EQ(plan.backend, sim::BackendKind::Trajectory);
    EXPECT_EQ(plan.reason, "mid-circuit");
    EXPECT_TRUE(plan.midCircuit);
    EXPECT_FALSE(plan.clifford);
}

TEST(Planner, NoiselessTerminalNonCliffordSamplesTheStatevector)
{
    sim::Plan plan =
        sim::planCircuit(rotationTerminal(3), sim::NoiseModel::ideal());
    EXPECT_EQ(plan.backend, sim::BackendKind::Statevector);
    EXPECT_EQ(plan.reason, "ideal");
}

TEST(Planner, SmallNoisyTerminalGetsExactKrausChannels)
{
    sim::Plan plan = sim::planCircuit(rotationTerminal(3), mildNoise());
    EXPECT_EQ(plan.backend, sim::BackendKind::DensityMatrix);
    EXPECT_EQ(plan.token(), "density-matrix:exact-noise");
}

TEST(Planner, WideNoisyTerminalFallsToTrajectorySampling)
{
    // 7 qubits is just past the default density-matrix cost cutoff.
    sim::Plan plan = sim::planCircuit(rotationTerminal(7), mildNoise());
    EXPECT_EQ(plan.backend, sim::BackendKind::Trajectory);
    EXPECT_EQ(plan.reason, "width>dm-cutoff");
}

TEST(Planner, DensityMatrixCutoffIsClampedToTheEngineHardCap)
{
    sim::PlannerConfig config;
    config.maxDensityMatrixQubits = 20; // above the engine's 11
    sim::Plan wide =
        sim::planCircuit(rotationTerminal(12), mildNoise(), config);
    EXPECT_EQ(wide.backend, sim::BackendKind::Trajectory);
    sim::Plan at_cap =
        sim::planCircuit(rotationTerminal(11), mildNoise(), config);
    EXPECT_EQ(at_cap.backend, sim::BackendKind::DensityMatrix);
}

TEST(Planner, ForcedBackendWinsAndIsRecordedAsForced)
{
    sim::PlannerConfig config;
    config.force = sim::BackendKind::Trajectory;
    sim::Plan plan =
        sim::planCircuit(cliffordTerminal(3), sim::NoiseModel::ideal(),
                         config);
    EXPECT_EQ(plan.backend, sim::BackendKind::Trajectory);
    EXPECT_EQ(plan.token(), "trajectory:forced");
    // The facts are still recorded even when they did not decide.
    EXPECT_TRUE(plan.clifford);
}

TEST(Planner, BackendTokensRoundTripAndRejectUnknowns)
{
    for (sim::BackendKind kind : sim::kAllBackendKinds) {
        auto parsed = sim::backendFromString(sim::toString(kind));
        ASSERT_TRUE(parsed.has_value()) << sim::toString(kind);
        EXPECT_EQ(*parsed, kind);
    }
    EXPECT_FALSE(sim::backendFromString("densitymatrix").has_value());
    EXPECT_FALSE(sim::backendFromString("").has_value());
    EXPECT_FALSE(sim::backendFromString("Stabilizer").has_value());
}

// --- planner-vs-forced equivalence -----------------------------------

stats::Counts
runWith(const qc::Circuit &circuit, const sim::NoiseModel &noise,
        sim::BackendKind backend, std::uint64_t shots,
        std::uint64_t seed)
{
    sim::RunOptions ro;
    ro.shots = shots;
    ro.noise = noise;
    ro.planner.force = backend;
    stats::Rng rng(seed);
    return sim::run(circuit, ro, rng);
}

TEST(PlannerEquivalence, ForcingThePlannersChoiceIsByteIdentical)
{
    struct Case
    {
        qc::Circuit circuit;
        sim::NoiseModel noise;
    };
    const Case cases[] = {
        {cliffordTerminal(4), sim::NoiseModel::ideal()},
        {cliffordTerminal(4), mildNoise()},
        {rotationTerminal(3), sim::NoiseModel::ideal()},
        {rotationTerminal(3), mildNoise()},
        {rotationTerminal(7), mildNoise()},
        {midCircuit(3), mildNoise()},
    };
    for (const Case &c : cases) {
        const sim::Plan plan = sim::planCircuit(c.circuit, c.noise);
        stats::Counts via_auto = runWith(c.circuit, c.noise,
                                         sim::BackendKind::Auto, 400, 11);
        stats::Counts via_forced =
            runWith(c.circuit, c.noise, plan.backend, 400, 11);
        EXPECT_EQ(via_auto.map(), via_forced.map())
            << "plan " << plan.token();
    }
}

TEST(PlannerEquivalence, TrajectoriesTrackTheExactNoisyDistribution)
{
    // The same small noisy circuit the planner sends to the exact
    // density-matrix engine, forced through trajectory sampling: the
    // stochastic unravelling must reproduce the closed-form
    // distribution to within multinomial sampling noise.
    const qc::Circuit circuit = rotationTerminal(3);
    const sim::NoiseModel noise = mildNoise();
    const stats::Distribution exact =
        sim::noisyDistribution(circuit, noise);
    stats::Counts sampled = runWith(circuit, noise,
                                    sim::BackendKind::Trajectory,
                                    6000, 23);
    EXPECT_EQ(sampled.shots(), 6000u);
    EXPECT_LT(tvdFrom(sampled, exact), 0.08);
}

TEST(PlannerEquivalence, StabilizerTracksTheExactNoisyDistribution)
{
    // Pauli-twirled tableau noise vs the exact Kraus channels on a
    // depolarising-only model (twirling is exact in distribution).
    const qc::Circuit circuit = cliffordTerminal(3);
    const sim::NoiseModel noise = mildNoise();
    const stats::Distribution exact =
        sim::noisyDistribution(circuit, noise);
    stats::Counts sampled = runWith(circuit, noise,
                                    sim::BackendKind::Stabilizer,
                                    6000, 29);
    EXPECT_LT(tvdFrom(sampled, exact), 0.08);
}

TEST(PlannerEquivalence, ForcedStabilizerRejectsNonClifford)
{
    EXPECT_THROW(runWith(rotationTerminal(3), sim::NoiseModel::ideal(),
                         sim::BackendKind::Stabilizer, 50, 5),
                 std::invalid_argument);
}

// --- exact shot accounting & FaultHook truncation --------------------

TEST(ShotAccounting, TrajectoryBatchingNeverOvershootsTheRequest)
{
    // 103 is deliberately not a multiple of shotsPerTrajectory: the
    // final batch must clamp instead of rounding up to 120.
    sim::RunOptions ro;
    ro.shots = 103;
    ro.noise = mildNoise();
    ro.shotsPerTrajectory = 20;
    ro.planner.force = sim::BackendKind::Trajectory;
    stats::Rng rng(3);
    stats::Counts counts = sim::run(rotationTerminal(4), ro, rng);
    EXPECT_EQ(counts.shots(), 103u);
}

TEST(ShotAccounting, FaultHookTruncatesAtTheBatchBoundary)
{
    sim::RunOptions ro;
    ro.shots = 200;
    ro.noise = mildNoise();
    ro.shotsPerTrajectory = 20;
    ro.planner.force = sim::BackendKind::Trajectory;
    ro.faultHook = [](std::uint64_t done) { return done >= 40; };
    stats::Rng rng(3);
    stats::Counts counts = sim::run(rotationTerminal(4), ro, rng);
    EXPECT_EQ(counts.shots(), 40u);
}

TEST(ShotAccounting, TruncatedTrajectoryRunIsAPrefixOfTheFullRun)
{
    // Per-trajectory deriveTaskSeed streams: the 60-shot histogram
    // must be exactly the first 60 shots of the 200-shot run.
    const qc::Circuit circuit = rotationTerminal(4);
    sim::RunOptions ro;
    ro.noise = mildNoise();
    ro.planner.force = sim::BackendKind::Trajectory;
    ro.shots = 200;
    stats::Rng rng_full(17);
    stats::Counts full = sim::run(circuit, ro, rng_full);
    ro.shots = 60;
    stats::Rng rng_cut(17);
    stats::Counts cut = sim::run(circuit, ro, rng_cut);
    EXPECT_EQ(cut.shots(), 60u);
    for (const auto &[bits, n] : cut.map())
        EXPECT_LE(n, full.at(bits)) << bits;
}

TEST(ShotAccounting, StabilizerBackendHonoursTheFaultHook)
{
    sim::RunOptions ro;
    ro.shots = 500;
    ro.noise = mildNoise();
    ro.faultHook = [](std::uint64_t done) { return done >= 25; };
    stats::Rng rng(7);
    stats::Counts counts = sim::run(cliffordTerminal(4), ro, rng);
    EXPECT_EQ(counts.shots(), 25u);
}

TEST(ShotAccounting, MidCircuitPathCountsShotsExactly)
{
    sim::RunOptions ro;
    ro.shots = 57;
    ro.noise = mildNoise();
    stats::Rng rng(9);
    stats::Counts counts = sim::run(midCircuit(3), ro, rng);
    EXPECT_EQ(counts.shots(), 57u);
}

// --- lockstep trajectory lanes ---------------------------------------

/** Every channel the trajectory engine draws: gate, readout, reset
 *  and idle-relaxation errors. */
sim::NoiseModel
laneNoise()
{
    sim::NoiseModel noise = mildNoise();
    noise.p2 = 0.02;
    noise.pMeas = 0.02;
    noise.pReset = 0.01;
    noise.t1 = 40.0;
    noise.t2 = 30.0;
    noise.time1q = 0.05;
    noise.time2q = 0.4;
    noise.timeMeas = 1.0;
    return noise;
}

/** Non-Clifford with a mid-circuit measure + reset: one shot per
 *  trajectory. Four classical bits keep the histograms short. */
qc::Circuit
laneMidCircuit(std::size_t n)
{
    qc::Circuit c(n, 4, "lanes-mid");
    for (std::size_t q = 0; q < n; ++q)
        c.ry(0.4 + 0.15 * static_cast<double>(q), q);
    for (std::size_t q = 1; q < n; ++q)
        c.cx(q - 1, q);
    c.measure(0, 0);
    c.reset(0);
    c.rx(0.9, 0);
    c.cx(0, n - 1);
    c.measure(0, 1);
    c.measure(n / 2, 2);
    c.measure(n - 1, 3);
    return c;
}

/** Non-Clifford, terminal, wider than the density-matrix cutoff. */
qc::Circuit
laneTerminal(std::size_t n)
{
    qc::Circuit c(n, 4, "lanes-terminal");
    for (std::size_t q = 0; q < n; ++q)
        c.ry(0.4 + 0.15 * static_cast<double>(q), q);
    for (std::size_t q = 1; q < n; ++q)
        c.cx(q - 1, q);
    c.rz(0.3, 0);
    c.rx(0.6, n - 1);
    c.measure(0, 0);
    c.measure(n / 3, 1);
    c.measure(2 * n / 3, 2);
    c.measure(n - 1, 3);
    return c;
}

/** A histogram as "bits:count" pairs in key order. */
std::string
renderCounts(const stats::Counts &counts)
{
    std::string out;
    for (const auto &[bits, n] : counts.map())
        out += (out.empty() ? "" : " ") + bits + ":" + std::to_string(n);
    return out;
}

stats::Counts
runLaneCircuit(const qc::Circuit &circuit, std::uint64_t shots,
               std::uint64_t seed, sim::FaultHook hook = {})
{
    sim::RunOptions ro;
    ro.noise = laneNoise();
    ro.shots = shots;
    ro.faultHook = std::move(hook);
    stats::Rng rng(seed);
    return sim::run(circuit, ro, rng);
}

TEST(TrajectoryLanes, HistogramsMatchTheOneTrajectoryAtATimeEngine)
{
    // Recorded with the engine that ran one trajectory at a time. 151
    // mid-circuit shots and 17 terminal trajectories (330 shots at 20
    // per trajectory, the last one 10) leave a partial last batch at
    // every lane count but 1.
    struct Pin
    {
        std::size_t width;
        std::uint64_t lanes;
        const char *mid;
        const char *terminal;
    };
    const Pin pins[] = {
        {10, 16,
         "0000:17 0001:37 0010:30 0011:30 0100:10 0101:5 0110:6 0111:5 "
         "1000:4 1001:2 1010:2 1011:2 1101:1",
         "0000:61 0001:59 0010:46 0011:59 0100:25 0101:20 0110:24 "
         "0111:19 1000:4 1001:3 1010:2 1011:1 1100:2 1101:1 1110:2 "
         "1111:2"},
        {11, 8,
         "0000:34 0001:26 0010:32 0011:23 0100:7 0101:6 0110:10 0111:3 "
         "1000:1 1001:3 1010:3 1011:3",
         "0000:57 0001:35 0010:52 0011:65 0100:28 0101:22 0110:22 "
         "0111:28 1000:1 1001:2 1010:3 1011:2 1100:1 1101:6 1110:2 "
         "1111:4"},
        {12, 4,
         "0000:27 0001:30 0010:26 0011:22 0100:10 0101:8 0110:8 0111:10 "
         "1000:2 1001:4 1010:1 1011:1 1101:1 1110:1",
         "0000:53 0001:56 0010:42 0011:46 0100:30 0101:30 0110:30 "
         "0111:20 1000:3 1001:3 1010:1 1011:5 1100:2 1101:3 1110:4 "
         "1111:2"},
        {13, 2,
         "0000:25 0001:27 0010:30 0011:26 0100:5 0101:6 0110:14 0111:8 "
         "1000:3 1001:3 1010:3 1011:1",
         "0000:46 0001:47 0010:44 0011:50 0100:29 0101:33 0110:29 "
         "0111:30 1000:3 1001:1 1010:1 1011:3 1100:2 1101:5 1110:5 "
         "1111:2"},
        {14, 1,
         "0000:28 0001:28 0010:24 0011:23 0100:15 0101:7 0110:8 0111:9 "
         "1000:1 1001:3 1011:3 1101:2",
         "0000:43 0001:62 0010:38 0011:46 0100:25 0101:27 0110:36 "
         "0111:31 1000:2 1001:2 1010:2 1011:4 1100:4 1110:5 1111:3"},
    };
    const bool metrics_were_on = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    obs::Counter &batches =
        obs::counter(obs::names::kSimTrajectoryBatches);
    for (const Pin &pin : pins) {
        const std::uint64_t seed = 1000 + pin.width;
        const qc::Circuit mid = laneMidCircuit(pin.width);
        ASSERT_EQ(sim::planCircuit(mid, laneNoise()).token(),
                  "trajectory:mid-circuit");
        std::uint64_t before = batches.value();
        EXPECT_EQ(renderCounts(runLaneCircuit(mid, 151, seed)), pin.mid)
            << "mid-circuit, width " << pin.width;
        EXPECT_EQ(batches.value() - before, (151 + pin.lanes - 1) / pin.lanes)
            << "mid-circuit batches, width " << pin.width;

        const qc::Circuit terminal = laneTerminal(pin.width);
        ASSERT_EQ(sim::planCircuit(terminal, laneNoise()).token(),
                  "trajectory:width>dm-cutoff");
        before = batches.value();
        EXPECT_EQ(renderCounts(runLaneCircuit(terminal, 330, seed)),
                  pin.terminal)
            << "terminal, width " << pin.width;
        EXPECT_EQ(batches.value() - before, (17 + pin.lanes - 1) / pin.lanes)
            << "terminal batches, width " << pin.width;
    }
    obs::setMetricsEnabled(metrics_were_on);
}

/** ry on q0, a cx chain and an rz: qubit k idles untouched for its
 *  first k moments. Terminal, non-Clifford, four classical bits. */
qc::Circuit
laneChain(std::size_t n)
{
    qc::Circuit c(n, 4, "lanes-chain");
    c.ry(0.4, 0);
    for (std::size_t q = 1; q < n; ++q)
        c.cx(q - 1, q);
    c.rz(0.3, n - 1);
    c.measure(0, 0);
    c.measure(n / 3, 1);
    c.measure(2 * n / 3, 2);
    c.measure(n - 1, 3);
    return c;
}

TEST(TrajectoryLanes, UntouchedQubitsKeepEveryDraw)
{
    // The other lane circuits put a gate on every qubit in moment 0.
    // Here most idle steps fall on qubits no instruction has touched
    // yet, whose P(1) and relax passes the engine skips while still
    // drawing each lane's event. Recorded with the engine that ran
    // both passes on every idle qubit. 330 shots at 20 per trajectory
    // is 17 trajectories; width 16 has four reduce chunks per lane.
    struct Pin
    {
        std::size_t width;
        std::uint64_t lanes;
        const char *histogram;
    };
    const Pin pins[] = {
        {10, 16,
         "0000:241 0001:24 0010:7 0011:2 0100:4 0110:1 0111:15 1000:6 "
         "1001:1 1011:2 1101:2 1110:2 1111:23"},
        {11, 8,
         "0000:217 0001:14 0010:3 0011:37 0100:4 0110:1 1000:3 1001:1 "
         "1011:2 1101:1 1111:47"},
        {14, 1,
         "0000:262 0001:7 0010:4 0011:36 0100:3 0111:1 1000:6 1001:1 "
         "1011:1 1100:2 1111:7"},
        {16, 1,
         "0000:274 0001:6 0010:32 0011:1 0100:4 0110:1 1000:5 1010:2 "
         "1111:5"},
    };
    const bool metrics_were_on = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    obs::Counter &batches =
        obs::counter(obs::names::kSimTrajectoryBatches);
    for (const Pin &pin : pins) {
        const qc::Circuit chain = laneChain(pin.width);
        ASSERT_EQ(sim::planCircuit(chain, laneNoise()).token(),
                  "trajectory:width>dm-cutoff");
        const std::uint64_t before = batches.value();
        EXPECT_EQ(renderCounts(runLaneCircuit(chain, 330, 2000 + pin.width)),
                  pin.histogram)
            << "width " << pin.width;
        EXPECT_EQ(batches.value() - before, (17 + pin.lanes - 1) / pin.lanes)
            << "batches, width " << pin.width;
    }
    obs::setMetricsEnabled(metrics_were_on);
}

TEST(TrajectoryLanes, MidCircuitHookInsideABatchEqualsTheShorterRun)
{
    // Width 10 runs 16 lanes a batch: the hook fires inside the third.
    const qc::Circuit circuit = laneMidCircuit(10);
    const stats::Counts cut = runLaneCircuit(
        circuit, 150, 77, [](std::uint64_t done) { return done >= 37; });
    const stats::Counts shorter = runLaneCircuit(circuit, 37, 77);
    EXPECT_EQ(cut.shots(), 37u);
    EXPECT_EQ(cut.map(), shorter.map());
}

TEST(TrajectoryLanes, TerminalHookInsideABatchEqualsTheShorterRun)
{
    // 150 shots at 20 per trajectory is 8 trajectories, one batch at
    // width 10; the hook fires after the third.
    const qc::Circuit circuit = laneTerminal(10);
    const stats::Counts cut = runLaneCircuit(
        circuit, 150, 78, [](std::uint64_t done) { return done >= 60; });
    const stats::Counts shorter = runLaneCircuit(circuit, 60, 78);
    EXPECT_EQ(cut.shots(), 60u);
    EXPECT_EQ(cut.map(), shorter.map());
}

/** Heavier than laneNoise: within one batch, damping jumps, dephasing
 *  flips, Pauli errors, readout flips and reset excitations all fire,
 *  so lanes that shared a state split at every kind of event. */
sim::NoiseModel
sharedNoise()
{
    sim::NoiseModel noise;
    noise.enabled = true;
    noise.p1 = 0.01;
    noise.p2 = 0.04;
    noise.pMeas = 0.03;
    noise.pReset = 0.05;
    noise.t1 = 8.0;
    noise.t2 = 6.0;
    noise.time1q = 0.1;
    noise.time2q = 0.5;
    noise.timeMeas = 1.5;
    return noise;
}

/** Two syndrome rounds on the last qubit (a cx chain, then measure,
 *  reset and rx) and two final reads. Non-Clifford, four clbits. */
qc::Circuit
laneSyndrome(std::size_t n)
{
    qc::Circuit c(n, 4, "lanes-syndrome");
    for (std::size_t q = 0; q < n; ++q)
        c.ry(0.3 + 0.2 * static_cast<double>(q), q);
    for (std::size_t round = 0; round < 2; ++round) {
        for (std::size_t q = 1; q < n; ++q)
            c.cx(q - 1, q);
        c.measure(n - 1, round);
        c.reset(n - 1);
        c.rx(0.7, n - 1);
    }
    c.measure(0, 2);
    c.measure(n / 2, 3);
    return c;
}

/** @p circuit under sharedNoise; terminal circuits on forced
 *  trajectories of two shots each. */
stats::Counts
runShared(const qc::Circuit &circuit, std::uint64_t shots,
          std::uint64_t seed, sim::FaultHook hook = {})
{
    sim::RunOptions ro;
    ro.noise = sharedNoise();
    ro.shots = shots;
    ro.shotsPerTrajectory = 2;
    ro.planner.force = sim::BackendKind::Trajectory;
    ro.faultHook = std::move(hook);
    stats::Rng rng(seed);
    return sim::run(circuit, ro, rng);
}

TEST(TrajectoryLanes, SharedStatesMatchRecordedBits)
{
    // Recorded with the engine that gave every lane a state of its own,
    // 16 lanes a batch. Width 5 now runs each run's 151 mid-circuit or
    // 165 terminal trajectories (330 shots at 2) in one batch, width 7
    // in batches of 128, lanes sharing a state while their draws agree.
    struct Pin
    {
        std::size_t width;
        std::uint64_t batches;
        const char *mid;
        const char *terminal;
    };
    const Pin pins[] = {
        {5, 1,
         "0000:46 0001:8 0011:2 0100:20 0101:6 0111:1 1000:22 1001:9 "
         "1010:1 1011:5 1100:25 1101:5 1111:1",
         "0000:147 0001:54 0010:21 0011:45 0100:13 0101:3 0110:5 0111:16 "
         "1000:10 1001:1 1010:1 1100:2 1110:6 1111:6"},
        {7, 2,
         "0000:37 0001:10 0010:2 0100:12 0101:9 0110:7 0111:2 1000:22 "
         "1001:18 1010:5 1011:2 1100:17 1101:6 1110:2",
         "0000:96 0001:72 0010:29 0011:40 0100:18 0101:14 0110:15 0111:18 "
         "1000:6 1001:5 1010:2 1011:5 1100:2 1101:2 1110:4 1111:2"},
    };
    const bool metrics_were_on = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    obs::Counter &batches =
        obs::counter(obs::names::kSimTrajectoryBatches);
    obs::Counter &states = obs::counter(obs::names::kSimTrajectoryStates);
    for (const Pin &pin : pins) {
        const qc::Circuit mid = laneSyndrome(pin.width);
        ASSERT_EQ(sim::planCircuit(mid, sharedNoise()).token(),
                  "trajectory:mid-circuit");
        std::uint64_t batches0 = batches.value();
        std::uint64_t states0 = states.value();
        EXPECT_EQ(renderCounts(runShared(mid, 151, 5000 + pin.width)),
                  pin.mid)
            << "mid-circuit, width " << pin.width;
        EXPECT_EQ(batches.value() - batches0, pin.batches)
            << "mid-circuit batches, width " << pin.width;
        // Each batch starts on one state and splits; no lane holds
        // more than one.
        EXPECT_GT(states.value() - states0, pin.batches)
            << "mid-circuit states, width " << pin.width;
        EXPECT_LE(states.value() - states0, 151u)
            << "mid-circuit states, width " << pin.width;

        batches0 = batches.value();
        states0 = states.value();
        const qc::Circuit terminal = laneTerminal(pin.width);
        EXPECT_EQ(renderCounts(runShared(terminal, 330, 6000 + pin.width)),
                  pin.terminal)
            << "terminal, width " << pin.width;
        EXPECT_EQ(batches.value() - batches0, pin.batches)
            << "terminal batches, width " << pin.width;
        EXPECT_GT(states.value() - states0, pin.batches)
            << "terminal states, width " << pin.width;
        EXPECT_LE(states.value() - states0, 165u)
            << "terminal states, width " << pin.width;
    }
    obs::setMetricsEnabled(metrics_were_on);
}

TEST(TrajectoryLanes, HookInsideAWideBatchEqualsTheShorterRun)
{
    // Width 5 runs every trajectory of these runs in one batch: the
    // hook fires at its 97th lane, past the 16 a batch used to hold.
    const qc::Circuit mid = laneSyndrome(5);
    const stats::Counts cut = runShared(
        mid, 150, 79, [](std::uint64_t done) { return done >= 97; });
    EXPECT_EQ(cut.shots(), 97u);
    EXPECT_EQ(cut.map(), runShared(mid, 97, 79).map());

    const qc::Circuit terminal = laneTerminal(5);
    const stats::Counts cut_terminal = runShared(
        terminal, 300, 80, [](std::uint64_t done) { return done >= 194; });
    EXPECT_EQ(cut_terminal.shots(), 194u);
    EXPECT_EQ(cut_terminal.map(), runShared(terminal, 194, 80).map());
}

// --- one noisy-step list for every engine ----------------------------

TEST(NoisySteps, ReadoutErrorIsIndependentPerMeasurement)
{
    // One qubit read into two classical bits: each read flips on its
    // own, on the density matrix as on the sampled engines.
    qc::Circuit c(2, 2, "double-read");
    c.x(0).s(1);
    c.measure(0, 0);
    c.measure(0, 1);
    sim::NoiseModel noise;
    noise.enabled = true;
    noise.pMeas = 0.1;
    const stats::Distribution exact = sim::noisyDistribution(c, noise);
    EXPECT_NEAR(exact.probability("11"), 0.81, 1e-12);
    EXPECT_NEAR(exact.probability("01"), 0.09, 1e-12);
    EXPECT_NEAR(exact.probability("10"), 0.09, 1e-12);
    EXPECT_NEAR(exact.probability("00"), 0.01, 1e-12);
    for (sim::BackendKind kind :
         {sim::BackendKind::Trajectory, sim::BackendKind::Stabilizer}) {
        EXPECT_LT(tvdFrom(runWith(c, noise, kind, 20000, 43), exact), 0.02)
            << sim::toString(kind);
    }
}

/** h, a cx chain (qubit k idles untouched for k moments), s/sx, a
 *  mid-circuit measure and reset, a targeted barrier, then h/cz/swap:
 *  every step the tableau interprets. Clifford, four classical bits. */
qc::Circuit
tableauSteps(std::size_t n)
{
    const auto mid = static_cast<qc::Qubit>(n / 2);
    const auto last = static_cast<qc::Qubit>(n - 1);
    qc::Circuit c(n, 4, "tableau-steps");
    c.h(0);
    for (std::size_t q = 1; q < n; ++q)
        c.cx(q - 1, q);
    c.s(0).sx(last);
    c.measure(0, 0);
    c.reset(0);
    c.barrier({0, mid});
    c.h(0).cz(0, mid).swap(mid, last);
    c.measure(0, 1);
    c.measure(mid, 2);
    c.measure(last, 3);
    return c;
}

TEST(NoisySteps, StabilizerHistogramsMatchRecordedBits)
{
    // No Fig. 2 cell plans onto the tableau, so the quick-grid
    // reference cannot vouch for its noisy path. Recorded with the
    // engine that walked the schedule itself; width 70 takes two
    // tableau words per row.
    struct Pin
    {
        std::size_t width;
        const char *histogram;
    };
    const Pin pins[] = {
        {5,
         "0000:46 0001:5 0010:34 0011:3 0100:54 0101:2 0110:48 0111:9 "
         "1000:2 1001:41 1010:10 1011:49 1100:9 1101:42 1110:5 1111:41"},
        {70,
         "0000:28 0001:23 0010:36 0011:18 0100:28 0101:23 0110:26 "
         "0111:16 1000:25 1001:30 1010:22 1011:29 1100:32 1101:22 "
         "1110:20 1111:22"},
    };
    for (const Pin &pin : pins) {
        const stats::Counts counts =
            runWith(tableauSteps(pin.width), laneNoise(),
                    sim::BackendKind::Stabilizer, 400, 3000 + pin.width);
        EXPECT_EQ(renderCounts(counts), pin.histogram)
            << "width " << pin.width;
    }
}

TEST(NoisySteps, ThreeQubitGatesCarryNoGateError)
{
    // Table II has no 3-qubit error rate: CCX and CSWAP carry no gate
    // error on any engine, however large p2 is.
    qc::Circuit c(3, 3, "toffoli");
    c.x(0).x(1);
    c.ccx(0, 1, 2);
    c.cswap(0, 1, 2);
    c.measureAll();
    sim::NoiseModel noise;
    noise.enabled = true;
    noise.p2 = 0.9;
    EXPECT_NEAR(sim::noisyDistribution(c, noise).probability("111"), 1.0,
                1e-12);
    EXPECT_EQ(renderCounts(runWith(c, noise, sim::BackendKind::Trajectory,
                                   200, 47)),
              "111:200");
}

// --- hasMidCircuitOperations trailing-op semantics -------------------

TEST(MidCircuitDetection, TrailingBarrierAfterMeasureIsNotMidCircuit)
{
    qc::Circuit c(2, 2);
    c.h(0);
    c.cx(0, 1);
    c.measure(0, 0);
    c.measure(1, 1);
    c.barrier();
    EXPECT_FALSE(sim::hasMidCircuitOperations(c));
}

TEST(MidCircuitDetection, TrailingCleanupResetIsNotMidCircuit)
{
    qc::Circuit c(2, 2);
    c.h(0);
    c.measure(0, 0);
    c.measure(1, 1);
    c.reset(0);
    c.reset(1);
    EXPECT_FALSE(sim::hasMidCircuitOperations(c));
}

TEST(MidCircuitDetection, TrailingUnitaryAfterMeasureIsNotMidCircuit)
{
    qc::Circuit c(2, 2);
    c.h(0);
    c.measure(0, 0);
    c.measure(1, 1);
    c.x(0); // cannot influence any recorded bit
    EXPECT_FALSE(sim::hasMidCircuitOperations(c));
}

TEST(MidCircuitDetection, ResetBeforeTheLastMeasureIsMidCircuit)
{
    qc::Circuit c(2, 2);
    c.h(0);
    c.reset(1);
    c.measure(0, 0);
    c.measure(1, 1);
    EXPECT_TRUE(sim::hasMidCircuitOperations(c));
}

TEST(MidCircuitDetection, GateOnMeasuredQubitBeforeLastMeasureIsMid)
{
    qc::Circuit c(2, 2);
    c.h(0);
    c.measure(0, 0);
    c.x(0);
    c.measure(1, 1);
    EXPECT_TRUE(sim::hasMidCircuitOperations(c));
}

TEST(MidCircuitDetection, NoMeasurementMeansNoCollapse)
{
    qc::Circuit c(2);
    c.h(0);
    c.reset(0);
    c.x(0);
    EXPECT_FALSE(sim::hasMidCircuitOperations(c));
}

TEST(MidCircuitDetection, TrailingOpsKeepTheTerminalFastPath)
{
    // A trailing barrier must not change the plan: the terminal fast
    // path (ideal sampling) stays selected.
    qc::Circuit c = cliffordTerminal(3);
    c.barrier();
    sim::Plan plan = sim::planCircuit(c, sim::NoiseModel::ideal());
    EXPECT_EQ(plan.backend, sim::BackendKind::Statevector);
    EXPECT_EQ(plan.reason, "ideal");
    // And the runner executes it (idealDistribution alone would throw
    // on the trailing op; the runner strips to the terminal core).
    stats::Counts counts = runWith(c, sim::NoiseModel::ideal(),
                                   sim::BackendKind::Auto, 100, 1);
    EXPECT_EQ(counts.shots(), 100u);
}

TEST(MidCircuitDetection, BarrierOnAMeasuredQubitKeepsTheExactNoisyPath)
{
    // A barrier is not a gate on the measured qubit it touches: the
    // planner calls this circuit terminal, so the density-matrix engine
    // it picks must run it too.
    qc::Circuit c(2, 2);
    c.ry(0.3, 0);
    c.cx(0, 1);
    c.measure(0, 0);
    c.barrier({0, 1});
    c.measure(1, 1);
    const sim::NoiseModel noise = device::ibmCasablanca().noise;
    EXPECT_FALSE(sim::hasMidCircuitOperations(c));
    EXPECT_EQ(sim::planCircuit(c, noise).token(),
              "density-matrix:exact-noise");
    stats::Counts counts;
    ASSERT_NO_THROW(counts = runWith(c, noise, sim::BackendKind::Auto,
                                     300, 5));
    EXPECT_EQ(counts.shots(), 300u);
}

// --- denseBytes overflow hardening -----------------------------------

TEST(DenseBytes, FortyQubitStatevectorSizeIsExact)
{
    // 2^40 amplitudes * 16 bytes = 2^44: representable, must be exact
    // (the old 1u<<bits arithmetic wrapped to 0 for widths >= 32 on
    // 32-bit size_t and overflowed the multiply well before 64).
    EXPECT_EQ(sim::denseBytes(40, 16, false),
              std::uint64_t(1) << 44);
}

TEST(DenseBytes, FortyQubitDensityMatrixSaturates)
{
    // 4^40 * 16 bytes cannot be represented: saturate, never wrap.
    EXPECT_EQ(sim::denseBytes(40, 16, true),
              std::numeric_limits<std::size_t>::max());
}

TEST(DenseBytes, ShiftWidthAtWordSizeSaturates)
{
    EXPECT_EQ(sim::denseBytes(64, 1, false),
              std::numeric_limits<std::size_t>::max());
    EXPECT_EQ(sim::denseBytes(200, 16, false),
              std::numeric_limits<std::size_t>::max());
}

TEST(DenseBytes, SaturatedSizeIsRejectedByTheBudget)
{
    EXPECT_THROW(sim::checkAllocationBudget(
                     "statevector(40 qubits)",
                     sim::denseBytes(40, 16, true)),
                 sim::ResourceExhausted);
}

// --- jobs-layer routing at widths beyond the DM cap ------------------

device::Device
noisy14QubitDevice()
{
    device::Device dev = device::perfectDevice(14);
    dev.name = "Noisy-14";
    dev.noise = mildNoise();
    return dev;
}

TEST(PlannerJobs, ForcedDensityMatrixBeyondTheCapIsTooLarge)
{
    core::HamiltonianSimulationBenchmark bench(14, 1);
    jobs::JobOptions options;
    options.harness.shots = 60;
    options.harness.repetitions = 1;
    options.harness.planner.force = sim::BackendKind::DensityMatrix;
    jobs::SweepContext ctx(options, jobs::FaultInjector());
    core::BenchmarkRun run =
        jobs::runJob(bench, noisy14QubitDevice(), options, ctx);
    EXPECT_EQ(run.status, core::RunStatus::TooLarge);
    EXPECT_EQ(run.cause, core::FailureCause::ResourceExhausted);
    EXPECT_TRUE(run.tooLarge);
    // The plan record survives the failure: it names the engine that
    // refused the cell.
    EXPECT_EQ(run.plan, "density-matrix:forced");
}

TEST(PlannerJobs, AutoCompletesTheSameCellThroughTrajectories)
{
    core::HamiltonianSimulationBenchmark bench(14, 1);
    jobs::JobOptions options;
    options.harness.shots = 60;
    options.harness.repetitions = 1;
    jobs::SweepContext ctx(options, jobs::FaultInjector());
    core::BenchmarkRun run =
        jobs::runJob(bench, noisy14QubitDevice(), options, ctx);
    EXPECT_EQ(run.status, core::RunStatus::Ok);
    EXPECT_EQ(run.plan, "trajectory:width>dm-cutoff");
    ASSERT_EQ(run.scores.size(), 1u);
    EXPECT_GE(run.scores[0], 0.0);
    EXPECT_LE(run.scores[0], 1.0);
}

// --- byte-identity across --jobs -------------------------------------

TEST(PlannerJobs, TrajectoryScoresAreByteIdenticalAtAnyJobs)
{
    core::HamiltonianSimulationBenchmark bench(4, 1);
    device::Device dev = device::ibmLagos();

    core::HarnessOptions serial;
    serial.shots = 120;
    serial.repetitions = 6;
    serial.jobs = 1;
    serial.planner.force = sim::BackendKind::Trajectory;
    core::BenchmarkRun a = core::runBenchmark(bench, dev, serial);

    core::HarnessOptions threaded = serial;
    threaded.jobs = 8;
    core::BenchmarkRun b = core::runBenchmark(bench, dev, threaded);

    ASSERT_EQ(a.status, core::RunStatus::Ok);
    ASSERT_EQ(a.scores.size(), b.scores.size());
    for (std::size_t i = 0; i < a.scores.size(); ++i)
        EXPECT_EQ(a.scores[i], b.scores[i]) << "repetition " << i;
    EXPECT_EQ(a.plan, b.plan);
    EXPECT_EQ(a.plan, "trajectory:forced");
}

// --- the plan record in caches, journals and manifests ---------------

TEST(PlanRecord, GridSerializationCarriesThePlanToken)
{
    bench::Fig2Grid grid;
    grid.deviceNames = {"devA"};
    bench::GridRow row;
    row.benchmark = "b1";
    row.runs.resize(1);
    row.runs[0].benchmark = "b1";
    row.runs[0].device = "devA";
    row.runs[0].plan = "stabilizer:clifford";
    grid.rows.push_back(row);
    const std::string text = bench::serializeGrid(grid);
    EXPECT_NE(text.find("smq-fig2-cache-v3"), std::string::npos);
    EXPECT_NE(text.find(" stabilizer:clifford "), std::string::npos);

    // An unplanned cell serializes the '-' placeholder so the record
    // stays a fixed-arity token stream.
    grid.rows[0].runs[0].plan.clear();
    EXPECT_NE(bench::serializeGrid(grid).find(" - "),
              std::string::npos);
}

TEST(PlanRecord, CheckpointCellRoundTripsThePlan)
{
    const fs::path dir =
        fs::temp_directory_path() / "smq_planner_ckpt_test";
    fs::remove_all(dir);

    report::CheckpointHeader header;
    header.tool = "test";
    header.config = "c";
    header.devices = {"devA"};
    header.benchmarks = {"b1"};

    core::BenchmarkRun cell;
    cell.benchmark = "b1";
    cell.device = "devA";
    cell.plan = "trajectory:width>dm-cutoff";
    cell.scores = {0.5};

    report::CheckpointWriter writer(dir.string());
    ASSERT_TRUE(writer.writeHeader(header));
    ASSERT_TRUE(writer.appendCell(cell));

    report::CheckpointLoad load = report::loadCheckpoint(dir.string());
    ASSERT_TRUE(load.headerOk);
    ASSERT_EQ(load.cells.size(), 1u);
    EXPECT_EQ(load.cells[0].plan, "trajectory:width>dm-cutoff");
    fs::remove_all(dir);
}

TEST(PlanRecord, PrePlannerJournalCellsParseWithAnEmptyPlan)
{
    const fs::path dir =
        fs::temp_directory_path() / "smq_planner_ckpt_compat";
    fs::remove_all(dir);

    report::CheckpointHeader header;
    header.tool = "test";
    header.config = "c";
    header.devices = {"devA"};
    header.benchmarks = {"b1"};
    report::CheckpointWriter writer(dir.string());
    ASSERT_TRUE(writer.writeHeader(header));
    {
        // A cell record as written before the plan field existed.
        std::ofstream out(dir / report::kCheckpointFile, std::ios::app);
        out << "{\"schema\":\"smq-checkpoint-v1\",\"kind\":\"cell\","
               "\"benchmark\":\"b1\",\"device\":\"devA\","
               "\"final\":true,\"status\":0,\"cause\":0,"
               "\"planned\":1,\"attempts\":1,\"error_bar\":1,"
               "\"swaps\":0,\"phys_2q\":0,\"scores\":[0.5]}\n";
    }
    report::CheckpointLoad load = report::loadCheckpoint(dir.string());
    ASSERT_EQ(load.cells.size(), 1u);
    EXPECT_TRUE(load.cells[0].plan.empty());
    EXPECT_EQ(load.skippedLines, 0u);
    fs::remove_all(dir);
}

TEST(PlanRecord, RunManifestNamesTheRequestedBackend)
{
    core::HarnessOptions options;
    options.planner.force = sim::BackendKind::Trajectory;
    obs::RunManifest manifest =
        core::makeRunManifest("test", options);
    EXPECT_EQ(manifest.extra.at("sim.backend"), "trajectory");
}

TEST(PlanRecord, BenchmarkRunJoinsUniquePlanTokens)
{
    // ghz on a noisy device: every circuit plans identically, so the
    // summary is one token, not one per circuit. The plan describes
    // the *routed* circuit — AQT's native RXX/RY family puts the
    // logical GHZ Clifford off the tableau, so the small noisy cell
    // gets exact Kraus channels.
    core::GhzBenchmark bench(3);
    core::HarnessOptions options;
    options.shots = 50;
    options.repetitions = 1;
    core::BenchmarkRun run =
        core::runBenchmark(bench, device::aqtDevice(), options);
    ASSERT_EQ(run.status, core::RunStatus::Ok);
    EXPECT_EQ(run.plan, "density-matrix:exact-noise");
}

// --- serve: cache-key stability & plan provenance --------------------

TEST(PlannerServe, CacheKeyIsStableAcrossBackendAndPlanIsReported)
{
    serve::ServerOptions base;
    base.autoStart = false;
    serve::ServerOptions forced = base;
    forced.backend = sim::BackendKind::Trajectory;

    serve::Server auto_server(base);
    serve::Server forced_server(forced);

    const std::string submit =
        "{\"type\":\"submit\",\"benchmark\":\"ghz_3\","
        "\"device\":\"AQT\",\"shots\":50,\"repetitions\":2,"
        "\"wait\":true}";
    const obs::JsonValue a =
        obs::parseJson(auto_server.handle(submit));
    const obs::JsonValue b =
        obs::parseJson(forced_server.handle(submit));

    // The key hashes the request, not the engine: a daemon restarted
    // with another --backend addresses the same cache slot.
    EXPECT_EQ(a.at("cache_key").asString(),
              b.at("cache_key").asString());

    // But each reply names the engine that actually ran the job
    // (routed to AQT's non-Clifford native family, the small noisy
    // cell plans exact Kraus channels under Auto).
    EXPECT_EQ(a.at("result").at("plan").asString(),
              "density-matrix:exact-noise");
    EXPECT_EQ(b.at("result").at("plan").asString(),
              "trajectory:forced");
}

} // namespace
} // namespace smq
