/**
 * @file
 * Tests for the noise machinery: NoiseModel derived quantities, the
 * trajectory runner, the density-matrix oracle, and the agreement
 * between the two noisy engines.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/density_matrix.hpp"
#include "sim/runner.hpp"
#include "sim/statevector.hpp"
#include "stats/hellinger.hpp"

namespace smq::sim {
namespace {

TEST(NoiseModel, DerivedRatesAreSane)
{
    NoiseModel m;
    m.t1 = 100.0;
    m.t2 = 80.0;
    EXPECT_GT(m.dephasingRate(), 0.0);
    EXPECT_NEAR(m.idleChannel(0.0).damp, 0.0, 1e-15);
    EXPECT_NEAR(m.idleChannel(1e9).damp, 1.0, 1e-6);
    EXPECT_LT(m.idleChannel(1e9).dephase, 0.5 + 1e-9);

    // T2 = 2 T1 limit: no pure dephasing
    NoiseModel pure;
    pure.t1 = 50.0;
    pure.t2 = 100.0;
    EXPECT_NEAR(pure.dephasingRate(), 0.0, 1e-15);
}

TEST(NoiseModel, ScaledClampsAndShrinksCoherence)
{
    NoiseModel m;
    m.enabled = true;
    m.p1 = 0.4;
    m.p2 = 0.6;
    m.pMeas = 0.3;
    m.t1 = 100.0;
    m.t2 = 50.0;
    NoiseModel doubled = m.scaled(2.0);
    EXPECT_NEAR(doubled.p1, 0.8, 1e-12);
    EXPECT_NEAR(doubled.p2, 1.0, 1e-12); // clamped
    EXPECT_NEAR(doubled.t1, 50.0, 1e-12);
    NoiseModel off = m.scaled(0.0);
    EXPECT_FALSE(off.enabled);
}

TEST(Runner, RequiresMeasurement)
{
    qc::Circuit c(1, 0);
    c.h(0);
    stats::Rng rng(1);
    EXPECT_THROW(run(c, RunOptions{}, rng), std::invalid_argument);
}

TEST(Runner, NoiselessGhzMatchesIdealDistribution)
{
    qc::Circuit c(3, 3);
    c.h(0).cx(0, 1).cx(1, 2).measureAll();
    RunOptions options;
    options.shots = 20000;
    stats::Rng rng(5);
    stats::Counts counts = run(c, options, rng);
    EXPECT_EQ(counts.shots(), 20000u);
    EXPECT_NEAR(counts.probability("000"), 0.5, 0.02);
    EXPECT_NEAR(counts.probability("111"), 0.5, 0.02);
    EXPECT_EQ(counts.at("010"), 0u);
}

TEST(Runner, MidCircuitMeasureAndResetReuseQubit)
{
    // prepare |1>, measure (expect 1), reset, measure (expect 0)
    qc::Circuit c(1, 2);
    c.x(0);
    c.measure(0, 0);
    c.reset(0);
    c.measure(0, 1);
    RunOptions options;
    options.shots = 200;
    stats::Rng rng(8);
    stats::Counts counts = run(c, options, rng);
    EXPECT_EQ(counts.at("10"), 200u);
}

TEST(Runner, DetectsMidCircuitOperations)
{
    qc::Circuit terminal(2, 2);
    terminal.h(0).cx(0, 1).measureAll();
    EXPECT_FALSE(hasMidCircuitOperations(terminal));

    qc::Circuit with_reset(1, 1);
    with_reset.reset(0);
    with_reset.measure(0, 0);
    EXPECT_TRUE(hasMidCircuitOperations(with_reset));

    qc::Circuit reused(1, 2);
    reused.measure(0, 0);
    reused.h(0);
    reused.measure(0, 1);
    EXPECT_TRUE(hasMidCircuitOperations(reused));
}

TEST(Runner, DepolarizingNoiseDegradesGhz)
{
    qc::Circuit c(3, 3);
    c.h(0).cx(0, 1).cx(1, 2).measureAll();

    RunOptions noisy;
    noisy.shots = 4000;
    noisy.noise.enabled = true;
    noisy.noise.p1 = 0.01;
    noisy.noise.p2 = 0.05;
    stats::Rng rng(13);
    stats::Counts counts = run(c, noisy, rng);

    double good = counts.probability("000") + counts.probability("111");
    EXPECT_LT(good, 0.99); // errors visible
    EXPECT_GT(good, 0.5);  // but not catastrophic
}

TEST(Runner, ReadoutErrorFlipsDeterministicOutcome)
{
    qc::Circuit c(1, 1);
    c.x(0);
    c.measure(0, 0);
    RunOptions options;
    options.shots = 20000;
    options.noise.enabled = true;
    options.noise.pMeas = 0.1;
    stats::Rng rng(21);
    stats::Counts counts = run(c, options, rng);
    EXPECT_NEAR(counts.probability("0"), 0.1, 0.015);
}

TEST(DensityMatrix, PureStateEvolutionMatchesStateVector)
{
    qc::Circuit c(2);
    c.h(0).cx(0, 1).s(1).rx(0.4, 0);
    StateVector sv = finalState(c);
    DensityMatrix dm(2);
    for (const qc::Gate &g : c.gates())
        dm.applyGate(g);
    EXPECT_NEAR(dm.trace(), 1.0, 1e-10);
    EXPECT_NEAR(dm.purity(), 1.0, 1e-10);
    auto probs_sv = sv.probabilities();
    auto probs_dm = dm.probabilities();
    for (std::size_t i = 0; i < probs_sv.size(); ++i)
        EXPECT_NEAR(probs_sv[i], probs_dm[i], 1e-10);
}

TEST(DensityMatrix, DepolarizingReducesPurity)
{
    DensityMatrix dm(1);
    dm.applyGate(qc::Gate(qc::GateType::H, {0}));
    dm.depolarize1(0, 0.3);
    EXPECT_NEAR(dm.trace(), 1.0, 1e-10);
    EXPECT_LT(dm.purity(), 1.0);
}

TEST(DensityMatrix, FullDepolarizingGivesMaximallyMixed)
{
    DensityMatrix dm(1);
    // p = 3/4 is the fixed point mapping any state to I/2
    dm.applyGate(qc::Gate(qc::GateType::H, {0}));
    dm.depolarize1(0, 0.75);
    EXPECT_NEAR(dm.purity(), 0.5, 1e-10);
}

TEST(DensityMatrix, AmplitudeDampingDecaysExcitedState)
{
    DensityMatrix dm(1);
    dm.applyGate(qc::Gate(qc::GateType::X, {0}));
    dm.thermalRelax(0, 0.25, 0.0);
    auto probs = dm.probabilities();
    EXPECT_NEAR(probs[1], 0.75, 1e-10);
    EXPECT_NEAR(dm.trace(), 1.0, 1e-10);
}

TEST(DensityMatrix, DephasingKillsCoherences)
{
    DensityMatrix dm(1);
    dm.applyGate(qc::Gate(qc::GateType::H, {0}));
    dm.thermalRelax(0, 0.0, 0.5); // full phase flip mixing
    EXPECT_NEAR(std::abs(dm.element(0, 1)), 0.0, 1e-10);
    EXPECT_NEAR(dm.probabilities()[0], 0.5, 1e-10);
}

TEST(DensityMatrix, TwoQubitChannelsRejectADuplicateQubit)
{
    // A block of rows (q, q) aliases itself: the trace left 1.0 on
    // H (x) 3 before the operands were checked to differ.
    DensityMatrix dm(3);
    for (qc::Qubit q = 0; q < 3; ++q)
        dm.applyGate(qc::Gate(qc::GateType::H, {q}));
    EXPECT_THROW(dm.depolarize2(1, 1, 0.3), std::invalid_argument);
    EXPECT_THROW(dm.applyMatrix2(2, 2, gateMatrix2(qc::Gate(
                                            qc::GateType::CX, {0, 1}))),
                 std::invalid_argument);
    EXPECT_THROW(dm.applyGate(qc::Gate(qc::GateType::CCX, {0, 1, 2}), 0.1),
                 std::invalid_argument);
    EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
    EXPECT_NEAR(dm.purity(), 1.0, 1e-12);
}

TEST(NoisyDistribution, MatchesTrajectoriesOnBellCircuit)
{
    qc::Circuit c(2, 2);
    c.h(0).cx(0, 1).measureAll();

    NoiseModel noise;
    noise.enabled = true;
    noise.p1 = 0.02;
    noise.p2 = 0.08;
    noise.pMeas = 0.03;
    noise.t1 = 100.0;
    noise.t2 = 70.0;
    noise.time1q = 0.05;
    noise.time2q = 0.5;
    noise.timeMeas = 5.0;

    stats::Distribution exact = noisyDistribution(c, noise);
    EXPECT_NEAR(exact.totalMass(), 1.0, 1e-9);

    RunOptions options;
    options.shots = 60000;
    options.noise = noise;
    options.shotsPerTrajectory = 1;
    stats::Rng rng(77);
    stats::Counts sampled = run(c, options, rng);

    // the trajectory unravelling must reproduce the exact channel
    double fid = stats::hellingerFidelity(sampled, exact);
    EXPECT_GT(fid, 0.999);
}

TEST(NoisyDistribution, RejectsReset)
{
    qc::Circuit c(1, 1);
    c.reset(0);
    c.measure(0, 0);
    EXPECT_THROW(noisyDistribution(c, NoiseModel::ideal()),
                 std::invalid_argument);
}

} // namespace
} // namespace smq::sim
