/**
 * @file
 * Intra-op kernel suite (`ctest -L perf`): byte-identity of the
 * pool-parallel dense/stabilizer kernels against serial execution,
 * threshold boundary behaviour, AVX2-vs-scalar bitwise equality, the
 * nested-parallelism guard, and two-qubit fusion absorption.
 *
 * "Byte-identical" is meant literally: amplitudes are compared with
 * memcmp, not a tolerance. The determinism rules that make this hold
 * (disjoint elementwise partitions, fixed-grain chunked reductions
 * folded in chunk order) are documented in sim/kernels.hpp.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "qc/circuit.hpp"
#include "sim/density_matrix.hpp"
#include "sim/fusion.hpp"
#include "sim/kernels.hpp"
#include "sim/stabilizer.hpp"
#include "sim/statevector.hpp"
#include "stats/rng.hpp"
#include "util/thread_pool.hpp"

using namespace smq;
namespace kernels = smq::sim::kernels;

namespace {

/** Bit-pattern equality for doubles (distinguishes -0.0 from 0.0). */
bool
bitEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/** Non-Clifford mix of 1q/2q/3q gates exercising every kernel path. */
qc::Circuit
denseKernelCircuit(std::size_t n)
{
    qc::Circuit c(n);
    for (std::size_t q = 0; q < n; ++q)
        c.h(q);
    for (std::size_t q = 0; q + 1 < n; ++q)
        c.cx(q, q + 1);
    c.t(0).rz(0.37, 1).rx(1.1, 2).s(n - 1);
    c.cz(0, n - 1);
    c.swap(1, 2);
    if (n >= 3) {
        c.ccx(0, 1, 2);
        c.cswap(n - 1, 0, 1);
    }
    c.rz(-0.81, 0).t(n - 2);
    c.cx(n - 1, 0);
    return c;
}

/** Clifford-only circuit wide enough for multi-word tableau rows. */
qc::Circuit
cliffordKernelCircuit(std::size_t n)
{
    qc::Circuit c(n);
    for (std::size_t q = 0; q < n; ++q)
        c.h(q);
    for (std::size_t q = 0; q + 1 < n; ++q)
        c.cx(q, q + 1);
    for (std::size_t q = 0; q < n; q += 3)
        c.s(q);
    c.x(1).y(2).z(3);
    c.cz(0, n / 2);
    c.swap(2, n - 1);
    return c;
}

std::vector<sim::Complex>
runStateVector(const qc::Circuit &circuit)
{
    sim::StateVector sv(circuit.numQubits());
    for (const qc::Gate &g : circuit.gates())
        sv.applyGate(g);
    return sv.amplitudes();
}

std::vector<sim::Complex>
snapshotDm(const sim::DensityMatrix &rho)
{
    std::vector<sim::Complex> out;
    out.reserve(rho.dimension() * rho.dimension());
    for (std::size_t r = 0; r < rho.dimension(); ++r)
        for (std::size_t c = 0; c < rho.dimension(); ++c)
            out.push_back(rho.element(r, c));
    return out;
}

sim::DensityMatrix
runDensityMatrix(const qc::Circuit &circuit)
{
    sim::DensityMatrix rho(circuit.numQubits());
    for (const qc::Gate &g : circuit.gates())
        rho.applyGate(g);
    // Exercise the channel kernels too (closed-form + Kraus paths).
    rho.depolarize1(0, 0.01);
    rho.depolarize2(0, 1, 0.02);
    rho.thermalRelax(2, 0.003, 0.001);
    rho.amplitudeDamp(1, 0.005);
    rho.dephase(0, 0.004);
    return rho;
}

void
expectBitIdentical(const std::vector<sim::Complex> &a,
                   const std::vector<sim::Complex> &b, const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    ASSERT_EQ(std::memcmp(a.data(), b.data(),
                          a.size() * sizeof(sim::Complex)),
              0)
        << what << ": states differ bitwise";
}

} // namespace

// ---------------------------------------------------------------------
// Parallel vs serial byte-identity
// ---------------------------------------------------------------------

TEST(KernelIdentity, StateVectorBitIdenticalAcrossJobs)
{
    qc::Circuit circuit = denseKernelCircuit(7);
    kernels::KernelConfigGuard guard;
    kernels::setKernelThreshold(1); // every kernel takes the split path

    kernels::setKernelJobs(1);
    std::vector<sim::Complex> serial = runStateVector(circuit);

    kernels::setForceParallel(true);
    for (std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        kernels::setKernelJobs(jobs);
        std::vector<sim::Complex> par = runStateVector(circuit);
        expectBitIdentical(serial, par, "statevector");
    }
}

TEST(KernelIdentity, StateVectorReductionsBitIdenticalAcrossJobs)
{
    qc::Circuit circuit = denseKernelCircuit(8);
    kernels::KernelConfigGuard guard;
    kernels::setKernelThreshold(1);

    kernels::setKernelJobs(1);
    sim::StateVector serial(circuit.numQubits());
    for (const qc::Gate &g : circuit.gates())
        serial.applyGate(g);
    const double p1 = serial.probabilityOfOne(3);
    const double ez = serial.expectationZ(std::vector<std::size_t>{2});

    kernels::setForceParallel(true);
    for (std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
        kernels::setKernelJobs(jobs);
        sim::StateVector par(circuit.numQubits());
        for (const qc::Gate &g : circuit.gates())
            par.applyGate(g);
        EXPECT_TRUE(bitEqual(par.probabilityOfOne(3), p1)) << "jobs " << jobs;
        EXPECT_TRUE(bitEqual(par.expectationZ(std::vector<std::size_t>{2}),
                             ez))
            << "jobs " << jobs;
    }
}

TEST(KernelIdentity, RunBasedProbabilityOfOneEqualsAPlainScan)
{
    // P(1) walks only the bit-set runs. At width 17 the runs of qubits
    // >= 14 span several kReduceGrain chunks and the lower qubits'
    // runs tile each chunk; either way the sum must be bit-equal to a
    // scan of every index that adds the set ones, under the same
    // chunking.
    constexpr std::size_t kWidth = 17;
    qc::Circuit circuit(kWidth);
    for (std::size_t q = 0; q < kWidth; ++q)
        circuit.ry(0.2 + 0.37 * static_cast<double>(q), q);
    for (std::size_t q = 0; q + 1 < kWidth; ++q)
        circuit.cx(q, q + 1);
    circuit.rx(1.3, 0).t(5).rz(0.4, kWidth - 1);
    sim::StateVector state(kWidth);
    sim::StateLanes lane(kWidth, 1);
    lane.resetToZero(1);
    for (const qc::Gate &g : circuit.gates()) {
        state.applyGate(g);
        lane.applyGate(g);
    }
    const std::vector<sim::Complex> &amps = state.amplitudes();

    kernels::KernelConfigGuard guard;
    kernels::setKernelThreshold(1);
    std::vector<double> lane_p1;
    for (std::size_t q = 0; q < kWidth; ++q) {
        const std::size_t mask = std::size_t{1} << q;
        const double scan = kernels::reduceChunked<double>(
            amps.size(), [&](std::size_t b, std::size_t e) {
                double p = 0.0;
                for (std::size_t idx = b; idx < e; ++idx) {
                    if (idx & mask)
                        p += std::norm(amps[idx]);
                }
                return p;
            });
        kernels::setForceParallel(false);
        kernels::setKernelJobs(1);
        EXPECT_TRUE(bitEqual(state.probabilityOfOne(q), scan))
            << "qubit " << q;
        kernels::setForceParallel(true);
        kernels::setKernelJobs(4);
        lane.probabilitiesOfOne(q, lane_p1);
        ASSERT_EQ(lane_p1.size(), 1u);
        EXPECT_TRUE(bitEqual(lane_p1[0], scan)) << "lane, qubit " << q;
    }
}

TEST(KernelIdentity, DensityMatrixBitIdenticalAcrossJobs)
{
    qc::Circuit circuit = denseKernelCircuit(5);
    kernels::KernelConfigGuard guard;
    kernels::setKernelThreshold(1);

    kernels::setKernelJobs(1);
    sim::DensityMatrix serial = runDensityMatrix(circuit);
    std::vector<sim::Complex> ref = snapshotDm(serial);
    const double purity = serial.purity();

    kernels::setForceParallel(true);
    for (std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        kernels::setKernelJobs(jobs);
        sim::DensityMatrix par = runDensityMatrix(circuit);
        expectBitIdentical(ref, snapshotDm(par), "density matrix");
        EXPECT_TRUE(bitEqual(par.purity(), purity)) << "jobs " << jobs;
    }
}

TEST(KernelIdentity, StabilizerBitIdenticalAcrossJobs)
{
    // 70 qubits: two 64-bit words per row, so the word loops and the
    // partial top word are both exercised.
    qc::Circuit circuit = cliffordKernelCircuit(70);
    kernels::KernelConfigGuard guard;
    kernels::setKernelThreshold(1);

    auto runTableau = [&](std::vector<int> *outcomes) {
        sim::StabilizerSimulator st(circuit.numQubits());
        for (const qc::Gate &g : circuit.gates())
            st.applyGate(g);
        stats::Rng rng(42);
        for (std::size_t q = 0; q < 8; ++q)
            outcomes->push_back(st.measure(q, rng));
        return st;
    };

    kernels::setKernelJobs(1);
    std::vector<int> serial_outcomes;
    sim::StabilizerSimulator serial = runTableau(&serial_outcomes);

    kernels::setForceParallel(true);
    for (std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        kernels::setKernelJobs(jobs);
        std::vector<int> outcomes;
        sim::StabilizerSimulator par = runTableau(&outcomes);
        EXPECT_EQ(outcomes, serial_outcomes) << "jobs " << jobs;
        EXPECT_TRUE(par.identicalTo(serial)) << "jobs " << jobs;
    }
}

// ---------------------------------------------------------------------
// Threshold boundary
// ---------------------------------------------------------------------

TEST(KernelThreshold, BoundaryDecidesParallelVsSerial)
{
    // applyMatrix1 on n qubits touches 2^n amplitudes; the dispatch
    // goes parallel iff elements >= threshold (and jobs > 1).
    constexpr std::size_t kQubits = 6;
    constexpr std::size_t kElements = std::size_t{1} << kQubits;

    obs::setMetricsEnabled(true);
    obs::Counter &par_ops = obs::counter(obs::names::kSimKernelParallelOps);
    obs::Counter &ser_ops = obs::counter(obs::names::kSimKernelSerialOps);

    kernels::KernelConfigGuard guard;
    kernels::setKernelJobs(2);

    auto countGate = [&](std::size_t threshold, std::uint64_t *par_delta,
                         std::uint64_t *ser_delta) {
        kernels::setKernelThreshold(threshold);
        sim::StateVector sv(kQubits);
        const std::uint64_t p0 = par_ops.value();
        const std::uint64_t s0 = ser_ops.value();
        sv.applyGate(qc::Gate(qc::GateType::H, {0}));
        *par_delta = par_ops.value() - p0;
        *ser_delta = ser_ops.value() - s0;
    };

    std::uint64_t par = 0, ser = 0;
    countGate(kElements, &par, &ser); // threshold == elements: parallel
    EXPECT_EQ(par, 1u);
    EXPECT_EQ(ser, 0u);

    countGate(kElements + 1, &par, &ser); // one past: serial
    EXPECT_EQ(par, 0u);
    EXPECT_EQ(ser, 1u);

    countGate(0, &par, &ser); // degenerate thresholds: always parallel
    EXPECT_EQ(par, 1u);
    countGate(1, &par, &ser);
    EXPECT_EQ(par, 1u);

    obs::setMetricsEnabled(false);
}

TEST(KernelThreshold, SingleJobStaysSerial)
{
    obs::setMetricsEnabled(true);
    obs::Counter &par_ops = obs::counter(obs::names::kSimKernelParallelOps);

    kernels::KernelConfigGuard guard;
    kernels::setKernelThreshold(1);
    kernels::setKernelJobs(1);

    const std::uint64_t p0 = par_ops.value();
    sim::StateVector sv(8);
    sv.applyGate(qc::Gate(qc::GateType::H, {0}));
    EXPECT_EQ(par_ops.value(), p0);

    obs::setMetricsEnabled(false);
}

// ---------------------------------------------------------------------
// SIMD dispatch
// ---------------------------------------------------------------------

TEST(KernelSimd, Avx2MatchesScalarBitwise)
{
    if (!kernels::avx2Supported())
        GTEST_SKIP() << "no AVX2 on this CPU";

    qc::Circuit circuit = denseKernelCircuit(8);
    kernels::KernelConfigGuard guard;
    kernels::setKernelJobs(1);

    kernels::setSimdMode(kernels::SimdMode::Scalar);
    ASSERT_FALSE(kernels::usingAvx2());
    std::vector<sim::Complex> scalar = runStateVector(circuit);

    kernels::setSimdMode(kernels::SimdMode::Avx2);
    if (!kernels::usingAvx2())
        GTEST_SKIP() << "AVX2 not compiled in (SMQ_SIMD=off)";
    std::vector<sim::Complex> avx = runStateVector(circuit);
    expectBitIdentical(scalar, avx, "avx2 vs scalar statevector");

    kernels::setSimdMode(kernels::SimdMode::Scalar);
    sim::DensityMatrix dm_scalar = runDensityMatrix(circuit);
    kernels::setSimdMode(kernels::SimdMode::Avx2);
    sim::DensityMatrix dm_avx = runDensityMatrix(circuit);
    expectBitIdentical(snapshotDm(dm_scalar), snapshotDm(dm_avx),
                       "avx2 vs scalar density matrix");
}

// ---------------------------------------------------------------------
// Nested-parallelism guard
// ---------------------------------------------------------------------

TEST(KernelGuard, NestedKernelsDegradeToSerial)
{
    obs::setMetricsEnabled(true);
    obs::Counter &par_ops = obs::counter(obs::names::kSimKernelParallelOps);
    obs::Counter &ser_ops = obs::counter(obs::names::kSimKernelSerialOps);

    kernels::KernelConfigGuard guard;
    kernels::setKernelThreshold(1);
    kernels::setKernelJobs(4);

    // Inside a util::parallelFor worker (a grid cell), kernels must
    // refuse to fork a second pool and run serial instead.
    const std::uint64_t p0 = par_ops.value();
    const std::uint64_t s0 = ser_ops.value();
    util::parallelFor(2, 2, [&](std::size_t) {
        sim::StateVector sv(6);
        sv.applyGate(qc::Gate(qc::GateType::H, {0}));
    });
    EXPECT_EQ(par_ops.value(), p0) << "nested kernel went parallel";
    EXPECT_EQ(ser_ops.value() - s0, 2u);

    // forceParallel overrides the guard (the fuzz sweep relies on it).
    kernels::setForceParallel(true);
    const std::uint64_t p1 = par_ops.value();
    util::parallelFor(2, 2, [&](std::size_t) {
        sim::StateVector sv(6);
        sv.applyGate(qc::Gate(qc::GateType::H, {0}));
    });
    EXPECT_EQ(par_ops.value() - p1, 2u) << "force did not override guard";

    obs::setMetricsEnabled(false);
}

// ---------------------------------------------------------------------
// Dispatch shape
// ---------------------------------------------------------------------

using Ranges = std::vector<std::pair<std::size_t, std::size_t>>;

/** The [begin, end) ranges one forEachRange dispatch hands its body. */
Ranges
rangesOf(std::size_t n, std::size_t elements)
{
    std::mutex mutex;
    Ranges ranges;
    kernels::forEachRange(n, elements, [&](std::size_t b, std::size_t e) {
        std::lock_guard<std::mutex> lock(mutex);
        ranges.emplace_back(b, e);
    });
    std::sort(ranges.begin(), ranges.end());
    return ranges;
}

TEST(KernelDispatch, SerialDispatchIsOneCallOverTheWholeRange)
{
    obs::setMetricsEnabled(true);
    obs::Counter &ser_ops = obs::counter(obs::names::kSimKernelSerialOps);
    kernels::KernelConfigGuard guard;
    kernels::setKernelJobs(4);
    const Ranges whole = {{0, 100}};

    // Below the element threshold.
    kernels::setKernelThreshold(1000);
    std::uint64_t s0 = ser_ops.value();
    EXPECT_EQ(rangesOf(100, 999), whole);
    EXPECT_EQ(ser_ops.value() - s0, 1u);

    // Inside a pool task, not forced.
    kernels::setKernelThreshold(1);
    Ranges nested[2];
    s0 = ser_ops.value();
    util::ThreadPool pool(1);
    pool.parallelFor(2, [&](std::size_t i) {
        nested[i] = rangesOf(100, 100000);
    });
    EXPECT_EQ(nested[0], whole);
    EXPECT_EQ(nested[1], whole);
    EXPECT_EQ(ser_ops.value() - s0, 2u);

    obs::setMetricsEnabled(false);
}

TEST(KernelDispatch, ForcedParallelSplitsIntoAtMostFourRangesPerJob)
{
    obs::setMetricsEnabled(true);
    obs::Counter &par_ops = obs::counter(obs::names::kSimKernelParallelOps);
    kernels::KernelConfigGuard guard;
    kernels::setKernelThreshold(1);
    kernels::setForceParallel(true);

    auto expectPartition = [](const Ranges &ranges, std::size_t n,
                              std::size_t jobs) {
        EXPECT_LE(ranges.size(), jobs * 4);
        std::size_t next = 0;
        for (const auto &[begin, end] : ranges) {
            EXPECT_EQ(begin, next);
            EXPECT_LT(begin, end);
            next = end;
        }
        EXPECT_EQ(next, n);
    };
    for (std::size_t jobs : {2, 3, 4}) {
        kernels::setKernelJobs(jobs);
        for (std::size_t n : {2, 7, 12, 1000}) {
            const std::uint64_t p0 = par_ops.value();
            expectPartition(rangesOf(n, n), n, jobs);
            EXPECT_EQ(par_ops.value() - p0, 1u) << jobs << " " << n;
        }
        // Force holds inside pool tasks too.
        Ranges nested[2];
        const std::uint64_t p0 = par_ops.value();
        util::parallelFor(2, 2, [&](std::size_t i) {
            nested[i] = rangesOf(1000, 1000);
        });
        EXPECT_EQ(par_ops.value() - p0, 2u);
        expectPartition(nested[0], 1000, jobs);
        expectPartition(nested[1], 1000, jobs);
    }

    obs::setMetricsEnabled(false);
}

TEST(KernelDispatch, DefaultJobsIsOneValueOnEveryThread)
{
    const std::size_t here = util::defaultJobs();
    EXPECT_EQ(here,
              std::max<std::size_t>(1, std::thread::hardware_concurrency()));
    std::vector<std::size_t> seen(8, 0);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < seen.size(); ++i)
        threads.emplace_back([&seen, i] { seen[i] = util::defaultJobs(); });
    for (std::thread &t : threads)
        t.join();
    for (std::size_t jobs : seen)
        EXPECT_EQ(jobs, here);

    kernels::KernelConfigGuard guard;
    kernels::setKernelJobs(0); // 0 = the default
    EXPECT_EQ(kernels::kernelConfig().jobs, here);
}

// ---------------------------------------------------------------------
// Two-qubit fusion absorption
// ---------------------------------------------------------------------

TEST(FusionTwoQubit, AdjacentSamePairOpsMergeWithAbsorbedRuns)
{
    qc::Circuit c(2);
    c.cx(0, 1);
    c.rz(0.3, 0);
    c.cx(0, 1);
    auto ops = sim::fuseUnitaryCircuit(c);
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].kind, sim::FusedOp::Kind::Unitary2);
    EXPECT_EQ(ops[0].sourceGates, 3u);

    sim::StateVector fused(2);
    fused.applyUnitaryCircuit(c);
    sim::StateVector plain(2);
    for (const qc::Gate &g : c.gates())
        plain.applyGate(g);
    for (std::size_t i = 0; i < fused.dimension(); ++i) {
        EXPECT_NEAR(std::abs(fused.amplitude(i) - plain.amplitude(i)), 0.0,
                    1e-12)
            << "basis state " << i;
    }
}

TEST(FusionTwoQubit, ReversedPairDoesNotMerge)
{
    qc::Circuit c(2);
    c.cx(0, 1);
    c.cx(1, 0);
    auto ops = sim::fuseUnitaryCircuit(c);
    ASSERT_EQ(ops.size(), 2u);
    std::size_t absorbed = 0;
    for (const auto &op : ops)
        absorbed += op.sourceGates;
    EXPECT_EQ(absorbed, c.gates().size());
}

TEST(FusionTwoQubit, InterveningOtherQubitGateStaysCommuted)
{
    // H(2) between the two CX(0,1) commutes with them; the CXs still
    // merge and the overall unitary is unchanged.
    qc::Circuit c(3);
    c.cx(0, 1);
    c.h(2);
    c.t(1);
    c.cx(0, 1);
    auto ops = sim::fuseUnitaryCircuit(c);
    std::size_t absorbed = 0;
    std::size_t two_qubit = 0;
    for (const auto &op : ops) {
        absorbed += op.sourceGates;
        if (op.kind == sim::FusedOp::Kind::Unitary2)
            ++two_qubit;
    }
    EXPECT_EQ(absorbed, c.gates().size());
    EXPECT_EQ(two_qubit, 1u);

    sim::StateVector fused(3);
    fused.applyUnitaryCircuit(c);
    sim::StateVector plain(3);
    for (const qc::Gate &g : c.gates())
        plain.applyGate(g);
    for (std::size_t i = 0; i < fused.dimension(); ++i) {
        EXPECT_NEAR(std::abs(fused.amplitude(i) - plain.amplitude(i)), 0.0,
                    1e-12)
            << "basis state " << i;
    }
}
