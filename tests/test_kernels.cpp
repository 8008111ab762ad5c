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
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "device/device.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "qc/circuit.hpp"
#include "sim/density_matrix.hpp"
#include "sim/fusion.hpp"
#include "sim/kernels.hpp"
#include "sim/simd.hpp"
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

/** Non-Clifford mix of 1q/2q/3q gates exercising every kernel path
 *  (the gates on qubit 2 only from n = 3). */
qc::Circuit
denseKernelCircuit(std::size_t n)
{
    qc::Circuit c(n);
    for (std::size_t q = 0; q < n; ++q)
        c.h(q);
    for (std::size_t q = 0; q + 1 < n; ++q)
        c.cx(q, q + 1);
    c.t(0).rz(0.37, 1);
    if (n >= 3)
        c.rx(1.1, 2);
    c.s(n - 1);
    c.cz(0, n - 1);
    if (n >= 3) {
        c.swap(1, 2);
        c.ccx(0, 1, 2);
        c.cswap(n - 1, 0, 1);
    }
    c.rz(-0.81, 0).t(n - 2);
    c.cx(n - 1, 0);
    return c;
}

/**
 * denseKernelCircuit, then a ladder of ry pairs each closed by a cx.
 * Fused, every rung is one 4x4 product with no zero entry.
 */
qc::Circuit
rotatedKernelCircuit(std::size_t n)
{
    qc::Circuit c = denseKernelCircuit(n);
    for (std::size_t q = 0; q + 1 < n; ++q) {
        const double x = static_cast<double>(q);
        c.ry(0.3 + 0.41 * x, q).ry(0.5 + 0.23 * x, q + 1);
        c.cx(q, q + 1);
    }
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
    // Exercise the closed-form channel kernels too.
    rho.depolarize1(0, 0.01);
    rho.depolarize2(0, 1, 0.02);
    rho.thermalRelax(2, 0.003, 0.001);
    rho.thermalRelax(1, 0.005, 0.0);
    rho.thermalRelax(0, 0.0, 0.004);
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
    // chunking. The chunks are summed as interleaved chains.
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

    // Sixteen lanes of width 9 in distinct states: one P(1) sweep sums
    // them as interleaved chains. Each lane's P(1) must be bit-equal to
    // a chunked scan of that lane alone, serial and forced-parallel.
    constexpr std::size_t kNarrow = 9, kLanes = 16;
    constexpr std::size_t kDim = std::size_t{1} << kNarrow;
    sim::StateLanes lanes(kNarrow, kLanes);
    lanes.resetToZero(kLanes);
    std::vector<sim::Matrix2> rotations;
    for (std::size_t l = 0; l < kLanes; ++l) {
        rotations.push_back(sim::gateMatrix1(qc::Gate(
            qc::GateType::RY, {0}, {0.3 + 0.17 * static_cast<double>(l)})));
    }
    std::vector<const sim::Matrix2 *> per_lane(kLanes);
    for (std::size_t q = 0; q < kNarrow; ++q) {
        for (std::size_t l = 0; l < kLanes; ++l)
            per_lane[l] = &rotations[(l + 3 * q) % kLanes];
        lanes.applyPerLane(q, per_lane);
    }
    const qc::Circuit narrow = denseKernelCircuit(kNarrow);
    for (const qc::Gate &g : narrow.gates())
        lanes.applyGate(g);
    const std::vector<sim::Complex> &lane_amps = lanes.amplitudes();
    for (std::size_t q = 0; q < kNarrow; ++q) {
        const std::size_t mask = std::size_t{1} << q;
        for (bool parallel : {false, true}) {
            kernels::setForceParallel(parallel);
            kernels::setKernelJobs(parallel ? 4 : 1);
            kernels::setKernelThreshold(parallel ? 1 : std::size_t{1} << 16);
            lanes.probabilitiesOfOne(q, lane_p1);
            ASSERT_EQ(lane_p1.size(), kLanes);
            for (std::size_t l = 0; l < kLanes; ++l) {
                const sim::Complex *lane = lane_amps.data() + l * kDim;
                const double scan = kernels::reduceChunked<double>(
                    kDim, [&](std::size_t b, std::size_t e) {
                        double p = 0.0;
                        for (std::size_t idx = b; idx < e; ++idx) {
                            if (idx & mask)
                                p += std::norm(lane[idx]);
                        }
                        return p;
                    });
                EXPECT_TRUE(bitEqual(lane_p1[l], scan))
                    << "lane " << l << ", qubit " << q
                    << (parallel ? ", parallel" : ", serial");
            }
        }
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
// Pinned density-matrix bits
// ---------------------------------------------------------------------

namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/** FNV-1a over @p size bytes, continuing from @p hash. */
std::uint64_t
fnv1a(const void *data, std::size_t size, std::uint64_t hash = kFnvBasis)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::uint64_t
rhoHash(const sim::DensityMatrix &rho)
{
    const std::vector<sim::Complex> v = snapshotDm(rho);
    return fnv1a(v.data(), v.size() * sizeof(sim::Complex));
}

/**
 * Seeded random unitary circuit over every gate type, CCX and CSWAP
 * included. A local splitmix64 draws it, so the circuit depends on
 * nothing but the seed.
 */
qc::Circuit
seededFuzzCircuit(std::size_t n, std::uint64_t seed)
{
    auto next = [&seed] {
        std::uint64_t z = (seed += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };
    constexpr std::size_t kTypes =
        static_cast<std::size_t>(qc::GateType::CSWAP) + 1;
    qc::Circuit c(n);
    for (std::size_t k = 0; k < 24; ++k) {
        const auto type = static_cast<qc::GateType>(next() % kTypes);
        std::vector<qc::Qubit> qubits;
        while (qubits.size() < qc::gateArity(type)) {
            const auto q = static_cast<qc::Qubit>(next() % n);
            if (std::find(qubits.begin(), qubits.end(), q) == qubits.end())
                qubits.push_back(q);
        }
        std::vector<double> params;
        for (std::size_t i = 0; i < qc::gateParamCount(type); ++i) {
            // uniform in [-3, 3) from 53 random mantissa bits
            const double u = static_cast<double>(next() >> 11) * 0x1p-53;
            params.push_back(6.0 * u - 3.0);
        }
        c.append(qc::Gate(type, qubits, params));
    }
    c.ccx(0, 1, 2).cswap(n - 1, 0, 1);
    return c;
}

/** noisyDistribution as "bits %a" lines, one per outcome. */
std::string
hexDistribution(const qc::Circuit &circuit, const sim::NoiseModel &noise)
{
    qc::Circuit measured = circuit;
    measured.measureAll();
    const stats::Distribution dist = sim::noisyDistribution(measured, noise);
    std::string text;
    char line[64];
    for (const auto &[bits, p] : dist.map()) {
        std::snprintf(line, sizeof(line), "%s %a\n", bits.c_str(), p);
        text += line;
    }
    return text;
}

} // namespace

TEST(KernelPinned, DensityMatrixMatchesRecordedBits)
{
    // Values recorded from the density matrix's own row/column kernels
    // before it moved onto the statevector's; a refactor of either
    // engine's dense kernels must reproduce them to the last bit.
    // Tolerance and same-build comparisons cannot see last-ulp drift.
    // The bits also depend on code generation (FMA contraction) and
    // on libm's sin/cos/exp, so they are pinned for x86-64 glibc only.
#if !defined(__x86_64__) || !defined(__GLIBC__)
    GTEST_SKIP() << "bits pinned for x86-64 glibc builds only";
#endif
    struct Seeded
    {
        std::size_t n;
        std::uint64_t seed;
        std::uint64_t hash;
    };
    const Seeded seeded[] = {
        {3, 11, 0x5b2f513778a18088ull},
        {4, 12, 0x8dc52ccd6806fe32ull},
        {6, 13, 0x1f0ba5fd0aa50bb3ull},
    };
    const device::Device casablanca = device::ibmCasablanca();
    const device::Device aqt = device::aqtDevice();
    const std::string dist3_casablanca = "000 0x1.04727a5818a9fp-3\n"
                                         "001 0x1.01bee5cecce17p-3\n"
                                         "010 0x1.00f551431cd65p-3\n"
                                         "011 0x1.fc3052e77a4ebp-4\n"
                                         "100 0x1.01b0ad79052a9p-3\n"
                                         "101 0x1.00a0e562847c3p-3\n"
                                         "110 0x1.f9accee5a2b0bp-4\n"
                                         "111 0x1.f73255a7caebbp-4\n";
    const std::string dist3_aqt = "000 0x1.02867058e6701p-3\n"
                                  "001 0x1.00e4a020988ep-3\n"
                                  "010 0x1.00c07039a3ebcp-3\n"
                                  "011 0x1.fdc32f63bae6fp-4\n"
                                  "100 0x1.00dcbf4b3f5a6p-3\n"
                                  "101 0x1.005c09e7352a3p-3\n"
                                  "110 0x1.fc793ca7718bcp-4\n"
                                  "111 0x1.fafb0029a4afap-4\n";
    // FNV-1a of the 64-line %a text of the 6-qubit distributions.
    const std::uint64_t dist6_casablanca = 0xf153b6c8dabfa536ull;
    const std::uint64_t dist6_aqt = 0xed4343e98ce0884aull;

    kernels::KernelConfigGuard guard;
    std::vector<kernels::SimdMode> modes = {kernels::SimdMode::Scalar};
    if (kernels::avx2Supported())
        modes.push_back(kernels::SimdMode::Avx2);
    for (kernels::SimdMode mode : modes) {
        kernels::setSimdMode(mode);
        SCOPED_TRACE(kernels::usingAvx2() ? "avx2" : "scalar");
        EXPECT_EQ(rhoHash(runDensityMatrix(denseKernelCircuit(5))),
                  0x59c6c2a4b420bca2ull);
        for (const Seeded &s : seeded) {
            const qc::Circuit c = seededFuzzCircuit(s.n, s.seed);
            EXPECT_EQ(rhoHash(runDensityMatrix(c)), s.hash)
                << "seed " << s.seed;
        }
        EXPECT_EQ(hexDistribution(denseKernelCircuit(3), casablanca.noise),
                  dist3_casablanca);
        EXPECT_EQ(hexDistribution(denseKernelCircuit(3), aqt.noise),
                  dist3_aqt);
        const std::string six_casablanca =
            hexDistribution(denseKernelCircuit(6), casablanca.noise);
        const std::string six_aqt =
            hexDistribution(denseKernelCircuit(6), aqt.noise);
        EXPECT_EQ(fnv1a(six_casablanca.data(), six_casablanca.size()),
                  dist6_casablanca);
        EXPECT_EQ(fnv1a(six_aqt.data(), six_aqt.size()), dist6_aqt);
    }
}

namespace {

/**
 * Sixteen lanes of width 6 through every per-lane kernel: a Pauli or
 * nothing per lane on q0 and q3, a 2q gate with its second operand on
 * bit 0, every relaxation kind with and without dephasing on q0 and
 * q5, and a collapse. Returns the lanes' amplitudes followed by every
 * qubit's per-lane P(1), as raw bits.
 */
std::vector<double>
runLaneKernels()
{
    constexpr std::size_t kWidth = 6, kLanes = 16;
    sim::StateLanes lanes(kWidth, kLanes);
    lanes.resetToZero(kLanes);
    const qc::Circuit circuit = denseKernelCircuit(kWidth);
    for (const qc::Gate &g : circuit.gates())
        lanes.applyGate(g);
    const sim::Matrix2 paulis[3] = {
        sim::gateMatrix1(qc::Gate(qc::GateType::X, {0})),
        sim::gateMatrix1(qc::Gate(qc::GateType::Y, {0})),
        sim::gateMatrix1(qc::Gate(qc::GateType::Z, {0})),
    };
    std::vector<const sim::Matrix2 *> per_lane(kLanes);
    for (std::size_t q : {std::size_t{0}, std::size_t{3}}) {
        for (std::size_t l = 0; l < kLanes; ++l) {
            const std::size_t k = (l + q) % 4;
            per_lane[l] = k == 0 ? nullptr : &paulis[k - 1];
        }
        lanes.applyPerLane(q, per_lane);
    }
    lanes.applyGate(qc::Gate(qc::GateType::RXX, {1, 0}, {0.7}));
    for (std::size_t q : {std::size_t{0}, std::size_t{5}}) {
        std::vector<sim::Relaxation> events(kLanes);
        for (std::size_t l = 0; l < kLanes; ++l) {
            sim::Relaxation &ev = events[l];
            switch ((l + q) % 3) {
              case 0:
                ev.damping = sim::Relaxation::Damping::None;
                break;
              case 1:
                ev.damping = sim::Relaxation::Damping::Decay;
                ev.keep0 = 1.0 + 0.01 * static_cast<double>(l);
                ev.keep1 = 0.9 - 0.01 * static_cast<double>(l);
                break;
              default:
                ev.damping = sim::Relaxation::Damping::Jump;
                ev.keep1 = 1.5 + 0.1 * static_cast<double>(l);
                break;
            }
            ev.dephase = (l / 3) % 2 == 1;
        }
        lanes.relax(q, events);
    }
    std::vector<double> p1;
    lanes.probabilitiesOfOne(2, p1);
    std::vector<int> outcomes(kLanes);
    for (std::size_t l = 0; l < kLanes; ++l)
        outcomes[l] = static_cast<int>(l % 2);
    lanes.collapse(2, outcomes, p1);

    const std::vector<sim::Complex> &amps = lanes.amplitudes();
    std::vector<double> bits(reinterpret_cast<const double *>(amps.data()),
                             reinterpret_cast<const double *>(amps.data() +
                                                              amps.size()));
    for (std::size_t q = 0; q < kWidth; ++q) {
        lanes.probabilitiesOfOne(q, p1);
        bits.insert(bits.end(), p1.begin(), p1.end());
    }
    return bits;
}

} // namespace

TEST(KernelPinned, StateVectorMatchesRecordedBits)
{
    // Values recorded from the per-run SIMD kernels and one-chain P(1)
    // sums, before the range kernels and interleaved chains replaced
    // them. Avx2MatchesScalarBitwise compares two paths of one build;
    // these pins also catch a change that moves both at once. Pinned
    // for x86-64 glibc only, as the density-matrix pins are.
#if !defined(__x86_64__) || !defined(__GLIBC__)
    GTEST_SKIP() << "bits pinned for x86-64 glibc builds only";
#endif
    struct Pinned
    {
        std::size_t n;
        std::uint64_t hash;
    };
    const Pinned states[] = {
        {2, 0x3b4781fdc6c83a0bull},
        {3, 0x8061d3bae554f861ull},
        {5, 0xed1e0c9c47ebd61full},
        {8, 0xa551fb56dec1db45ull},
    };
    const std::uint64_t lanes_hash = 0x5d3758b9e72c339eull;
    // Gate matrices have at most two nonzeros a row, which hides a
    // change in the quad fold's order; the fused path's dense 4x4
    // products do not.
    const Pinned fused[] = {
        {2, 0xc854b93c059ca4afull},
        {3, 0x3d5fb03f32ee26e7ull},
        {5, 0x8f1ba58879517b79ull},
        {8, 0x24a60b94e3ef79ceull},
    };

    kernels::KernelConfigGuard guard;
    std::vector<kernels::SimdMode> modes = {kernels::SimdMode::Scalar};
    if (kernels::avx2Supported())
        modes.push_back(kernels::SimdMode::Avx2);
    for (kernels::SimdMode mode : modes) {
        kernels::setSimdMode(mode);
        SCOPED_TRACE(kernels::usingAvx2() ? "avx2" : "scalar");
        for (const Pinned &p : states) {
            const std::vector<sim::Complex> amps =
                runStateVector(denseKernelCircuit(p.n));
            EXPECT_EQ(fnv1a(amps.data(), amps.size() * sizeof(sim::Complex)),
                      p.hash)
                << "width " << p.n;
        }
        const std::vector<double> bits = runLaneKernels();
        EXPECT_EQ(fnv1a(bits.data(), bits.size() * sizeof(double)),
                  lanes_hash);
        for (const Pinned &p : fused) {
            const sim::StateVector sv =
                sim::finalState(rotatedKernelCircuit(p.n));
            EXPECT_EQ(fnv1a(sv.amplitudes().data(),
                            sv.amplitudes().size() * sizeof(sim::Complex)),
                      p.hash)
                << "fused, width " << p.n;
        }
    }
}

// ---------------------------------------------------------------------
// Idle passes: relaxation and P(1) at every stride
// ---------------------------------------------------------------------

namespace {

/**
 * Per-lane RY rotations on every qubit, then a cx ladder: distinct,
 * entangled lanes. @p salt varies the angles from call to call.
 */
void
mixLanes(sim::StateLanes &state, std::size_t n, std::size_t lanes,
         std::size_t salt)
{
    std::vector<sim::Matrix2> rotations(lanes);
    std::vector<const sim::Matrix2 *> per_lane(lanes);
    for (std::size_t q = 0; q < n; ++q) {
        for (std::size_t l = 0; l < lanes; ++l) {
            const double angle = 0.3 + 0.17 * static_cast<double>(l) +
                                 0.05 * static_cast<double>(q) +
                                 0.4 * static_cast<double>(salt);
            rotations[l] =
                sim::gateMatrix1(qc::Gate(qc::GateType::RY, {0}, {angle}));
            per_lane[l] = &rotations[l];
        }
        state.applyPerLane(q, per_lane);
    }
    for (std::size_t q = 0; q + 1 < n; ++q)
        state.applyGate(qc::Gate(qc::GateType::CX,
                                 {static_cast<qc::Qubit>(q),
                                  static_cast<qc::Qubit>(q + 1)}));
}

/**
 * One idle event per lane: None, Decay or Jump by (l + salt) % 3, and
 * dephasing by ((l + salt) / 3) % 2, so six consecutive salts give
 * every lane every kind with and without dephasing.
 */
std::vector<sim::Relaxation>
idleEvents(std::size_t lanes, std::size_t salt)
{
    std::vector<sim::Relaxation> events(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
        sim::Relaxation &ev = events[l];
        const double x = static_cast<double>(l);
        switch ((l + salt) % 3) {
          case 0:
            break;
          case 1:
            ev.damping = sim::Relaxation::Damping::Decay;
            ev.keep0 = 1.0 + 0.01 * (x + 1.0);
            ev.keep1 = 0.9 - 0.01 * x;
            break;
          default:
            ev.damping = sim::Relaxation::Damping::Jump;
            ev.keep1 = 1.5 + 0.1 * x;
            break;
        }
        ev.dephase = ((l + salt) / 3) % 2 == 1;
    }
    return events;
}

/**
 * FNV-1a of @p lanes lanes of width @p n through six sweeps of one
 * relaxation per qubit (idleEvents(lanes, q + sweep)), each sweep
 * after a fresh mixLanes, and first one batch whose events are all
 * no-ops. After each relax it hashes the amplitudes, then every other
 * qubit's per-lane P(1), as raw bits.
 */
std::uint64_t
idlePassHash(std::size_t n, std::size_t lanes)
{
    sim::StateLanes state(n, lanes);
    state.resetToZero(lanes);
    std::uint64_t hash = kFnvBasis;
    std::vector<double> p1;
    auto absorb = [&](std::size_t q) {
        const std::vector<sim::Complex> &amps = state.amplitudes();
        hash = fnv1a(amps.data(), amps.size() * sizeof(sim::Complex), hash);
        for (std::size_t other = 0; other < n; ++other) {
            if (other == q)
                continue;
            state.probabilitiesOfOne(other, p1);
            hash = fnv1a(p1.data(), p1.size() * sizeof(double), hash);
        }
    };
    mixLanes(state, n, lanes, 0);
    state.relax(0, std::vector<sim::Relaxation>(lanes));
    absorb(0);
    for (std::size_t sweep = 0; sweep < 6; ++sweep) {
        if (sweep > 0)
            mixLanes(state, n, lanes, sweep);
        for (std::size_t q = 0; q < n; ++q) {
            state.relax(q, idleEvents(lanes, q + sweep));
            absorb(q);
        }
    }
    return hash;
}

/** The two lane shapes of the trajectory grid's widest cells. */
struct LaneShape
{
    std::size_t n;
    std::size_t lanes;
};
constexpr LaneShape kIdleShapes[] = {{16, 1}, {11, 8}};

} // namespace

TEST(KernelPinned, IdlePassesMatchRecordedBits)
{
    // Values recorded from the per-run relax kernel and the separate
    // P(1) pass, before one idle walker replaced both: width 16 is one
    // lane of four reduce chunks, so qubits 14 and 15 scale and sum
    // whole chunks; width 11 is eight one-chunk lanes. Pinned for
    // x86-64 glibc only (RY's sin/cos), as the other pins are.
#if !defined(__x86_64__) || !defined(__GLIBC__)
    GTEST_SKIP() << "bits pinned for x86-64 glibc builds only";
#endif
    const std::uint64_t pinned[] = {0x525d30f2175be314ull,
                                    0x5037fd87c8daac30ull};
    kernels::KernelConfigGuard guard;
    std::vector<kernels::SimdMode> modes = {kernels::SimdMode::Scalar};
    if (kernels::avx2Supported())
        modes.push_back(kernels::SimdMode::Avx2);
    for (kernels::SimdMode mode : modes) {
        kernels::setSimdMode(mode);
        SCOPED_TRACE(kernels::usingAvx2() ? "avx2" : "scalar");
        for (std::size_t i = 0; i < std::size(kIdleShapes); ++i) {
            const LaneShape &shape = kIdleShapes[i];
            EXPECT_EQ(idlePassHash(shape.n, shape.lanes), pinned[i])
                << "width " << shape.n << " x " << shape.lanes;
        }
    }
}

TEST(KernelIdentity, FusedIdlePassSumsTheStandaloneP1)
{
    // relax(q, events, next, p1) must leave the amplitudes of
    // relax(q, events) and sum probabilitiesOfOne(next) bit for bit,
    // for every (q, next) pair, whichever dispatch and SIMD path runs.
    struct Mode
    {
        const char *name;
        std::size_t jobs;
        std::size_t threshold;
        bool force;
        kernels::SimdMode simd;
    };
    const Mode modes[] = {
        {"serial", 1, std::size_t{1} << 16, false, kernels::SimdMode::Auto},
        {"forced-parallel", 4, 1, true, kernels::SimdMode::Auto},
        {"scalar", 1, std::size_t{1} << 16, false, kernels::SimdMode::Scalar},
    };
    for (const Mode &mode : modes) {
        kernels::KernelConfigGuard guard;
        kernels::setKernelJobs(mode.jobs);
        kernels::setKernelThreshold(mode.threshold);
        kernels::setForceParallel(mode.force);
        kernels::setSimdMode(mode.simd);
        for (const LaneShape &shape : kIdleShapes) {
            SCOPED_TRACE(std::string(mode.name) + ", width " +
                         std::to_string(shape.n) + " x " +
                         std::to_string(shape.lanes));
            sim::StateLanes base(shape.n, shape.lanes);
            std::vector<double> summed, standalone;
            std::size_t nonzero = 0;
            for (std::size_t q = 0; q < shape.n; ++q) {
                // Each pair starts from the same mixed state: a second
                // jump on q would copy its zeroed |1> half over the
                // |0> half and leave nothing to sum.
                base.resetToZero(shape.lanes);
                mixLanes(base, shape.n, shape.lanes, q);
                for (std::size_t next = 0; next < shape.n; ++next) {
                    sim::StateLanes fused = base;
                    sim::StateLanes split = base;
                    const auto events = idleEvents(shape.lanes, q + next);
                    const bool busy = std::any_of(
                        events.begin(), events.end(),
                        [](const sim::Relaxation &ev) { return !ev.idle(); });
                    // With no event to apply nothing is walked, and the
                    // next step sums its own P(1), as LaneBatch does.
                    EXPECT_EQ(fused.relax(q, events, next, summed), busy);
                    if (!busy)
                        fused.probabilitiesOfOne(next, summed);
                    split.relax(q, events);
                    split.probabilitiesOfOne(next, standalone);
                    ASSERT_EQ(summed.size(), standalone.size());
                    for (std::size_t l = 0; l < shape.lanes; ++l) {
                        EXPECT_TRUE(bitEqual(summed[l], standalone[l]))
                            << "relax " << q << ", P(1) of " << next
                            << ", lane " << l;
                        nonzero += standalone[l] > 0.0;
                    }
                    expectBitIdentical(fused.amplitudes(), split.amplitudes(),
                                       "fused vs split relax");
                }
            }
            // Only a jump on the summed qubit itself leaves P(1) = 0.
            EXPECT_GE(nonzero, shape.n * (shape.n - 1) * shape.lanes);
            // Every event a no-op: nothing is walked, p1 is left alone.
            summed.assign(shape.lanes, -1.0);
            EXPECT_FALSE(base.relax(
                0, std::vector<sim::Relaxation>(shape.lanes), 1, summed));
            EXPECT_EQ(summed, std::vector<double>(shape.lanes, -1.0));
        }
    }
}

// ---------------------------------------------------------------------
// Liveness blocks: the lane walk against a dense reference
// ---------------------------------------------------------------------

namespace {

/**
 * A plain dense copy of StateLanes: every kernel runs over every
 * amplitude. Gates go through pairRange / quadRange over the whole
 * range, everything else through plain loops.
 */
struct DenseLanes
{
    std::size_t n = 0;
    std::size_t lanes = 0;
    std::vector<sim::Complex> amps;

    std::size_t dim() const { return std::size_t{1} << n; }

    void
    reset(std::size_t active)
    {
        lanes = active;
        std::fill(amps.begin(), amps.end(), sim::Complex{});
        for (std::size_t l = 0; l < lanes; ++l)
            amps[l * dim()] = 1.0;
    }

    void
    gate(const qc::Gate &g)
    {
        const std::size_t size = lanes * dim();
        if (g.qubits.size() == 1) {
            kernels::pairRange(amps.data(), 0, size / 2, g.qubits[0],
                               sim::gateMatrix1(g));
        } else if (g.qubits.size() == 2) {
            kernels::quadRange(amps.data(), 0, size / 4, g.qubits[0],
                               g.qubits[1], sim::gateMatrix2(g));
        } else {
            // CCX: swap the c0 = c1 = 1 pairs of the target.
            const std::size_t c0 = std::size_t{1} << g.qubits[0];
            const std::size_t c1 = std::size_t{1} << g.qubits[1];
            const std::size_t t = std::size_t{1} << g.qubits[2];
            for (std::size_t i = 0; i < size; ++i) {
                if ((i & c0) && (i & c1) && !(i & t))
                    std::swap(amps[i], amps[i | t]);
            }
        }
    }

    void
    perLane(std::size_t q, const std::vector<const sim::Matrix2 *> &m)
    {
        const std::size_t half = dim() / 2;
        for (std::size_t l = 0; l < lanes; ++l) {
            if (m[l] != nullptr)
                kernels::pairRange(amps.data(), l * half, (l + 1) * half, q,
                                   *m[l]);
        }
    }

    void
    relax(std::size_t q, const std::vector<sim::Relaxation> &events)
    {
        const std::size_t bit = std::size_t{1} << q;
        for (std::size_t l = 0; l < lanes; ++l) {
            const sim::Relaxation &ev = events[l];
            double *a = reinterpret_cast<double *>(amps.data() + l * dim());
            for (std::size_t i = 0; i < dim(); ++i) {
                if (ev.damping == sim::Relaxation::Damping::Jump) {
                    if (i & bit)
                        continue;
                    a[2 * i] = a[2 * (i | bit)] * ev.keep1;
                    a[2 * i + 1] = a[2 * (i | bit) + 1] * ev.keep1;
                    a[2 * (i | bit)] = ev.dephase ? -0.0 : 0.0;
                    a[2 * (i | bit) + 1] = ev.dephase ? -0.0 : 0.0;
                    continue;
                }
                const bool decay =
                    ev.damping == sim::Relaxation::Damping::Decay;
                double f = (i & bit) ? (decay ? ev.keep1 : 1.0)
                                     : (decay ? ev.keep0 : 1.0);
                if ((i & bit) && ev.dephase)
                    f = -f;
                a[2 * i] *= f;
                a[2 * i + 1] *= f;
            }
        }
    }

    /** Each lane's P(1) of qubit q: plain chain sums, chunk by chunk. */
    std::vector<double>
    p1(std::size_t q) const
    {
        std::vector<double> out(lanes);
        for (std::size_t l = 0; l < lanes; ++l) {
            const sim::Complex *lane = amps.data() + l * dim();
            out[l] = kernels::reduceChunked<double>(
                dim(), [&](std::size_t b, std::size_t e) {
                    double sum = 0.0;
                    for (std::size_t i = b; i < e; ++i) {
                        if ((i >> q) & 1)
                            sum += std::norm(lane[i]);
                    }
                    return sum;
                });
        }
        return out;
    }

    void
    collapse(std::size_t q, const std::vector<int> &outcomes,
             const std::vector<double> &p1s)
    {
        const std::size_t bit = std::size_t{1} << q;
        for (std::size_t l = 0; l < lanes; ++l) {
            double keep = outcomes[l] ? p1s[l] : 1.0 - p1s[l];
            if (keep <= 0.0)
                keep = 1.0;
            const double scale = 1.0 / std::sqrt(keep);
            sim::Complex *lane = amps.data() + l * dim();
            for (std::size_t i = 0; i < dim(); ++i) {
                if (((i & bit) != 0) == (outcomes[l] == 1))
                    lane[i] *= scale;
                else
                    lane[i] = 0.0;
            }
        }
    }

    std::size_t
    sample(std::size_t lane, stats::Rng &rng) const
    {
        const double r = rng.uniform();
        double acc = 0.0;
        for (std::size_t i = 0; i < dim(); ++i) {
            acc += std::norm(amps[lane * dim() + i]);
            if (r < acc)
                return i;
        }
        return dim() - 1;
    }
};

/**
 * Every nonzero double of the active lanes bit-equal to the
 * reference's, and every zero equal as a value (its sign may differ in
 * a block the walk skipped). Returns the first mismatch, or "".
 */
std::string
compareLanes(const sim::StateLanes &lanes, const DenseLanes &ref)
{
    const double *got = reinterpret_cast<const double *>(
        lanes.amplitudes().data());
    const double *want = reinterpret_cast<const double *>(ref.amps.data());
    for (std::size_t i = 0; i < 2 * ref.lanes * ref.dim(); ++i) {
        const bool same = want[i] != 0.0 ? bitEqual(got[i], want[i])
                                         : got[i] == 0.0;
        if (!same) {
            char text[96];
            std::snprintf(text, sizeof(text), "double %zu: %a, want %a", i,
                          got[i], want[i]);
            return text;
        }
    }
    return "";
}

/** One seeded lane program, checked against DenseLanes op by op. */
void
checkLaneProgram(std::size_t n, std::size_t max_lanes, std::uint64_t seed)
{
    stats::Rng rng(seed);
    sim::StateLanes lanes(n, max_lanes);
    DenseLanes ref{n, 0, std::vector<sim::Complex>(max_lanes << n)};
    // A bit below, across or above the 64-amplitude block boundary.
    auto qubit = [&](int kind) -> std::size_t {
        const std::size_t split = std::min<std::size_t>(n, 6);
        if (kind == 0 || split == n)
            return rng.index(split);
        return split + rng.index(n - split);
    };
    const qc::GateType oneQ[] = {qc::GateType::H,  qc::GateType::X,
                                 qc::GateType::SX, qc::GateType::RY,
                                 qc::GateType::RZ, qc::GateType::T};
    const qc::GateType twoQ[] = {qc::GateType::CX, qc::GateType::CZ,
                                 qc::GateType::SWAP, qc::GateType::RXX,
                                 qc::GateType::CH};
    const sim::Matrix2 paulis[3] = {
        sim::gateMatrix1(qc::Gate(qc::GateType::X, {0})),
        sim::gateMatrix1(qc::Gate(qc::GateType::Y, {0})),
        sim::gateMatrix1(qc::Gate(qc::GateType::Z, {0})),
    };
    std::vector<double> got, want;
    std::vector<const sim::Matrix2 *> per_lane;
    std::vector<sim::Relaxation> events;
    std::vector<int> outcomes;
    // Three batches, the middle one with fewer lanes.
    const std::size_t batches[] = {max_lanes,
                                   std::max<std::size_t>(1, max_lanes / 3),
                                   max_lanes};
    for (std::size_t active : batches) {
        lanes.resetToZero(active);
        ref.reset(active);
        for (std::size_t step = 0; step < 48; ++step) {
            const std::size_t op = rng.index(8);
            std::string what;
            if (op <= 1) {
                const auto type = oneQ[rng.index(std::size(oneQ))];
                const auto q = static_cast<qc::Qubit>(qubit(
                    static_cast<int>(rng.index(2))));
                std::vector<double> params;
                if (qc::gateParamCount(type) == 1)
                    params.push_back(rng.uniform(-3.0, 3.0));
                const qc::Gate g(type, {q}, params);
                lanes.applyGate(g);
                ref.gate(g);
                what = g.toString();
            } else if (op == 2) {
                // Both bits low, one on each side, or both high.
                const int kind = static_cast<int>(rng.index(3));
                std::size_t a = qubit(kind == 2 ? 1 : 0);
                std::size_t b = qubit(kind == 0 ? 0 : 1);
                if (a == b)
                    b = (b + 1) % n;
                if (rng.index(2) == 1)
                    std::swap(a, b);
                const auto type = twoQ[rng.index(std::size(twoQ))];
                std::vector<double> params;
                if (qc::gateParamCount(type) == 1)
                    params.push_back(rng.uniform(-3.0, 3.0));
                const qc::Gate g(type,
                                 {static_cast<qc::Qubit>(a),
                                  static_cast<qc::Qubit>(b)},
                                 params);
                lanes.applyGate(g);
                ref.gate(g);
                what = g.toString();
            } else if (op == 3) {
                const std::size_t q = qubit(static_cast<int>(rng.index(2)));
                per_lane.assign(active, nullptr);
                for (std::size_t l = 0; l < active; ++l) {
                    const std::size_t k = rng.index(4);
                    per_lane[l] = k == 0 ? nullptr : &paulis[k - 1];
                }
                lanes.applyPerLane(q, per_lane);
                ref.perLane(q, per_lane);
                what = "paulis on " + std::to_string(q);
            } else if (op <= 5) {
                // Decay / Jump / None x dephase, standalone or fused.
                const std::size_t q = qubit(static_cast<int>(rng.index(2)));
                events.assign(active, sim::Relaxation{});
                for (std::size_t l = 0; l < active; ++l) {
                    sim::Relaxation &ev = events[l];
                    switch (rng.index(3)) {
                      case 0:
                        break;
                      case 1:
                        ev.damping = sim::Relaxation::Damping::Decay;
                        ev.keep0 = rng.uniform(1.0, 1.2);
                        ev.keep1 = rng.uniform(0.7, 1.0);
                        break;
                      default:
                        ev.damping = sim::Relaxation::Damping::Jump;
                        ev.keep1 = rng.uniform(1.0, 1.5);
                        break;
                    }
                    ev.dephase = rng.index(2) == 1;
                }
                what = "relax " + std::to_string(q);
                ref.relax(q, events);
                if (op == 4) {
                    lanes.relax(q, events);
                } else {
                    const std::size_t next =
                        qubit(static_cast<int>(rng.index(2)));
                    if (lanes.relax(q, events, next, got)) {
                        want = ref.p1(next);
                        for (std::size_t l = 0; l < active; ++l)
                            ASSERT_TRUE(bitEqual(got[l], want[l]))
                                << what << ", fused P(1) of " << next
                                << ", lane " << l << ", step " << step;
                    }
                }
            } else if (op == 6) {
                const std::size_t q = qubit(static_cast<int>(rng.index(2)));
                lanes.probabilitiesOfOne(q, got);
                want = ref.p1(q);
                outcomes.assign(active, 0);
                for (std::size_t l = 0; l < active; ++l) {
                    ASSERT_TRUE(bitEqual(got[l], want[l]))
                        << "P(1) of " << q << ", lane " << l << ", step "
                        << step;
                    outcomes[l] = rng.uniform() < want[l] ? 1 : 0;
                }
                lanes.collapse(q, outcomes, got);
                ref.collapse(q, outcomes, want);
                what = "collapse " + std::to_string(q);
            } else {
                for (std::size_t l = 0; l < active; ++l) {
                    stats::Rng a(seed + 977 * step + l), b = a;
                    ASSERT_EQ(lanes.sampleBasisState(l, a), ref.sample(l, b))
                        << "sample, lane " << l << ", step " << step;
                }
                what = "sample";
            }
            const std::string diff = compareLanes(lanes, ref);
            ASSERT_EQ(diff, "") << what << " at step " << step;
        }
        // Every qubit's P(1) and a CCX at the end of each batch.
        if (n >= 3) {
            const qc::Gate ccx(qc::GateType::CCX,
                               {0, static_cast<qc::Qubit>(n - 1), 3});
            lanes.applyGate(ccx);
            ref.gate(ccx);
            ASSERT_EQ(compareLanes(lanes, ref), "") << "ccx";
        }
        for (std::size_t q = 0; q < n; ++q) {
            lanes.probabilitiesOfOne(q, got);
            want = ref.p1(q);
            for (std::size_t l = 0; l < active; ++l)
                ASSERT_TRUE(bitEqual(got[l], want[l]))
                    << "final P(1) of " << q << ", lane " << l;
        }
    }
}

} // namespace

TEST(TrajectoryLanes, LiveBlockWalkMatchesDenseReference)
{
    // Seeded lane programs from |0...0>, where blocks really die and
    // revive: the walk over live blocks must give the dense walk's
    // nonzero amplitudes, P(1) values and samples bit for bit, and
    // zeros equal as values, under every dispatch and SIMD path.
    struct Mode
    {
        const char *name;
        std::size_t jobs;
        std::size_t threshold;
        bool force;
        kernels::SimdMode simd;
    };
    const Mode modes[] = {
        {"serial", 1, std::size_t{1} << 16, false, kernels::SimdMode::Auto},
        {"forced-parallel", 4, 1, true, kernels::SimdMode::Auto},
        {"scalar", 1, std::size_t{1} << 16, false, kernels::SimdMode::Scalar},
    };
    const LaneShape shapes[] = {{7, 16}, {8, 5},  {9, 3},  {10, 8},
                                {11, 8}, {12, 2}, {14, 1}, {16, 1},
                                {16, 2}};
    obs::setMetricsEnabled(true);
    obs::Counter &skipped = obs::counter(obs::names::kSimLanesBlocksSkipped);
    obs::Counter &walked = obs::counter(obs::names::kSimLanesBlocksWalked);
    for (const Mode &mode : modes) {
        kernels::KernelConfigGuard guard;
        kernels::setKernelJobs(mode.jobs);
        kernels::setKernelThreshold(mode.threshold);
        kernels::setForceParallel(mode.force);
        kernels::setSimdMode(mode.simd);
        const std::uint64_t skipped0 = skipped.value();
        const std::uint64_t walked0 = walked.value();
        for (std::size_t i = 0; i < std::size(shapes); ++i) {
            const LaneShape &shape = shapes[i];
            SCOPED_TRACE(std::string(mode.name) + ", width " +
                         std::to_string(shape.n) + " x " +
                         std::to_string(shape.lanes));
            checkLaneProgram(shape.n, shape.lanes, 4100 + i);
            if (HasFatalFailure())
                break;
        }
        EXPECT_GT(skipped.value() - skipped0, walked.value() - walked0)
            << mode.name << ": the walk should skip most blocks";
    }
    obs::setMetricsEnabled(false);
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
