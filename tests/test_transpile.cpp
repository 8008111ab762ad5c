/**
 * @file
 * Tests for the transpiler: gate decomposition equivalence, peephole
 * optimisation, layout, routing correctness, native translation, and
 * the full Closed-Division pipeline (logical output distribution must
 * be preserved exactly on a noiseless device).
 */

#include <gtest/gtest.h>

#include "device/device.hpp"
#include "qc/library.hpp"
#include "sim/statevector.hpp"
#include "stats/hellinger.hpp"
#include "test_helpers.hpp"
#include "transpile/decompose.hpp"
#include "transpile/native.hpp"
#include "transpile/optimize.hpp"
#include "transpile/route.hpp"
#include "transpile/transpiler.hpp"

namespace smq::transpile {
namespace {

using smq::test::circuitUnitary;
using smq::test::phaseInvariantDistance;

struct DecomposeCase
{
    qc::Gate gate;
    std::size_t qubits;
};

// gtest appends the printed parameter to each case's listed name. Left
// to itself it dumps the struct's raw bytes, padding and heap pointers
// included, so the name would change from run to run.
void
PrintTo(const DecomposeCase &c, std::ostream *os)
{
    *os << qc::gateName(c.gate.type) << " on " << c.qubits << " qubits";
}

class DecomposePreservesUnitary
    : public ::testing::TestWithParam<DecomposeCase>
{
};

TEST_P(DecomposePreservesUnitary, MatchesOriginal)
{
    const auto &[gate, qubits] = GetParam();
    qc::Circuit original(qubits);
    original.append(gate);
    qc::Circuit lowered = decomposeToCx(original);
    for (const qc::Gate &g : lowered.gates()) {
        EXPECT_TRUE(g.type == qc::GateType::CX || g.qubits.size() == 1)
            << qc::gateName(g.type);
    }
    EXPECT_LT(phaseInvariantDistance(circuitUnitary(original),
                                     circuitUnitary(lowered)),
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    TwoAndThreeQubit, DecomposePreservesUnitary,
    ::testing::Values(
        DecomposeCase{qc::Gate(qc::GateType::CY, {0, 1}), 2},
        DecomposeCase{qc::Gate(qc::GateType::CZ, {0, 1}), 2},
        DecomposeCase{qc::Gate(qc::GateType::CH, {0, 1}), 2},
        DecomposeCase{qc::Gate(qc::GateType::CP, {0, 1}, {0.7}), 2},
        DecomposeCase{qc::Gate(qc::GateType::SWAP, {0, 1}), 2},
        DecomposeCase{qc::Gate(qc::GateType::ISWAP, {0, 1}), 2},
        DecomposeCase{qc::Gate(qc::GateType::RXX, {0, 1}, {0.9}), 2},
        DecomposeCase{qc::Gate(qc::GateType::RYY, {0, 1}, {1.1}), 2},
        DecomposeCase{qc::Gate(qc::GateType::RZZ, {0, 1}, {0.5}), 2},
        DecomposeCase{qc::Gate(qc::GateType::CCX, {0, 1, 2}), 3},
        DecomposeCase{qc::Gate(qc::GateType::CSWAP, {0, 1, 2}), 3}),
    [](const ::testing::TestParamInfo<DecomposeCase> &info) {
        return qc::gateName(info.param.gate.type);
    });

TEST(Fusion, MergesRunsAndDropsIdentities)
{
    qc::Circuit c(2);
    c.h(0).h(0);           // identity
    c.s(1).t(1).tdg(1).sdg(1); // identity
    c.rz(0.3, 0).rz(0.4, 0);   // one u3
    qc::Circuit fused = fuseSingleQubitGates(c);
    EXPECT_EQ(fused.size(), 1u);
    EXPECT_EQ(fused.gates()[0].type, qc::GateType::U3);
    EXPECT_LT(phaseInvariantDistance(circuitUnitary(c),
                                     circuitUnitary(fused)),
              1e-9);
}

TEST(Fusion, DoesNotCrossTwoQubitGates)
{
    qc::Circuit c(2);
    c.h(0).cx(0, 1).h(0);
    qc::Circuit fused = fuseSingleQubitGates(c);
    EXPECT_EQ(fused.size(), 3u);
    EXPECT_LT(phaseInvariantDistance(circuitUnitary(c),
                                     circuitUnitary(fused)),
              1e-9);
}

TEST(Fusion, PreservesMeasureResetBarriers)
{
    qc::Circuit c(1, 1);
    c.h(0).barrier().measure(0, 0).reset(0);
    qc::Circuit fused = fuseSingleQubitGates(c);
    EXPECT_EQ(fused.size(), 4u);
}

TEST(Cancellation, RemovesAdjacentSelfInversePairs)
{
    qc::Circuit c(3);
    c.cx(0, 1).cx(0, 1).cz(1, 2).cz(1, 2).cx(0, 1);
    qc::Circuit out = cancelAdjacentGates(c);
    EXPECT_EQ(out.size(), 1u);
    EXPECT_EQ(out.gates()[0].type, qc::GateType::CX);
}

TEST(Cancellation, RespectsInterveningGates)
{
    qc::Circuit c(2);
    c.cx(0, 1).h(1).cx(0, 1);
    EXPECT_EQ(cancelAdjacentGates(c).size(), 3u);
}

TEST(Cancellation, OrientationMatters)
{
    qc::Circuit c(2);
    c.cx(0, 1).cx(1, 0);
    EXPECT_EQ(cancelAdjacentGates(c).size(), 2u);
}

TEST(OpenDivision, CancelsCxThroughCommutingGates)
{
    // CX . RZ(control) . X(target) . CX == RZ . X up to commutation
    qc::Circuit c(2);
    c.cx(0, 1).rz(0.4, 0).x(1).cx(0, 1);
    qc::Circuit out = commutationAwareCancellation(c);
    EXPECT_EQ(out.size(), 2u);
    EXPECT_LT(phaseInvariantDistance(circuitUnitary(c),
                                     circuitUnitary(out)),
              1e-9);
}

TEST(OpenDivision, SharedControlAndTargetCxCommute)
{
    qc::Circuit c(3);
    c.cx(0, 1).cx(0, 2).cx(0, 1); // shared control
    qc::Circuit out = commutationAwareCancellation(c);
    EXPECT_EQ(out.size(), 1u);
    EXPECT_LT(phaseInvariantDistance(circuitUnitary(c),
                                     circuitUnitary(out)),
              1e-9);

    qc::Circuit d(3);
    d.cx(0, 2).cx(1, 2).cx(0, 2); // shared target
    qc::Circuit out2 = commutationAwareCancellation(d);
    EXPECT_EQ(out2.size(), 1u);
    EXPECT_LT(phaseInvariantDistance(circuitUnitary(d),
                                     circuitUnitary(out2)),
              1e-9);
}

TEST(OpenDivision, BlocksOnNonCommutingGates)
{
    qc::Circuit c(2);
    c.cx(0, 1).h(1).cx(0, 1); // H on target does not commute
    EXPECT_EQ(commutationAwareCancellation(c).size(), 3u);

    qc::Circuit d(2);
    d.cx(0, 1).rz(0.3, 1).cx(0, 1); // RZ on TARGET does not commute
    EXPECT_EQ(commutationAwareCancellation(d).size(), 3u);

    qc::Circuit e(2, 1);
    e.cx(0, 1).measure(0, 0).cx(0, 1); // measurement blocks
    EXPECT_EQ(commutationAwareCancellation(e).size(), 3u);
}

class OpenDivisionRandom : public ::testing::TestWithParam<int>
{
};

TEST_P(OpenDivisionRandom, PreservesUnitaryOnRandomCircuits)
{
    stats::Rng rng(700 + GetParam());
    const std::size_t n = 3;
    qc::Circuit c(n);
    for (int g = 0; g < 25; ++g) {
        switch (rng.index(5)) {
          case 0:
            c.rz(rng.uniform(0.0, 3.0),
                 static_cast<qc::Qubit>(rng.index(n)));
            break;
          case 1:
            c.rx(rng.uniform(0.0, 3.0),
                 static_cast<qc::Qubit>(rng.index(n)));
            break;
          case 2:
            c.h(static_cast<qc::Qubit>(rng.index(n)));
            break;
          default: {
            qc::Qubit a = static_cast<qc::Qubit>(rng.index(n));
            qc::Qubit b = static_cast<qc::Qubit>(rng.index(n));
            if (a != b)
                c.cx(a, b);
            break;
          }
        }
    }
    qc::Circuit out = commutationAwareCancellation(c);
    EXPECT_LE(out.size(), c.size());
    EXPECT_LT(phaseInvariantDistance(circuitUnitary(c),
                                     circuitUnitary(out)),
              1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sweep, OpenDivisionRandom,
                         ::testing::Range(0, 15));

TEST(OpenDivision, PipelineNeverIncreasesTwoQubitCount)
{
    qc::Circuit c(4, 4);
    c.h(0).cx(0, 1).rz(0.2, 0).x(1).cx(0, 1).cx(1, 2).cx(0, 3);
    c.measureAll();
    device::Device dev = device::ibmCasablanca();
    TranspileOptions closed;
    TranspileOptions open;
    open.division = Division::Open;
    TranspileResult r_closed = transpile(c, dev, closed);
    TranspileResult r_open = transpile(c, dev, open);
    EXPECT_LE(r_open.twoQubitGateCount, r_closed.twoQubitGateCount);
    // both preserve the measured distribution on a noiseless device
    auto [compact, mapping] = compactCircuit(r_open.circuit);
    EXPECT_GT(stats::hellingerFidelity(sim::idealDistribution(compact),
                                       sim::idealDistribution(c)),
              1.0 - 1e-9);
}

TEST(Layout, TrivialIsIdentity)
{
    qc::Circuit c(3);
    c.cx(0, 2);
    auto layout = chooseLayout(c, device::Topology::line(5),
                               LayoutStrategy::Trivial);
    EXPECT_EQ(layout, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Layout, ConnectivityPlacesInteractingQubitsTogether)
{
    // star program: qubit 0 talks to everyone; on a line topology it
    // should land on an interior physical qubit.
    qc::Circuit c(3);
    c.cx(0, 1).cx(0, 2);
    auto layout = chooseLayout(c, device::Topology::line(3),
                               LayoutStrategy::Connectivity);
    EXPECT_EQ(layout[0], 1u);
}

TEST(Layout, RejectsOversizedCircuits)
{
    qc::Circuit c(5);
    EXPECT_THROW(chooseLayout(c, device::Topology::line(3),
                              LayoutStrategy::Trivial),
                 std::invalid_argument);
    EXPECT_THROW(chooseLayout(c, device::Topology::line(3),
                              LayoutStrategy::Connectivity),
                 std::invalid_argument);
}

TEST(Routing, AdjacentGatesNeedNoSwaps)
{
    qc::Circuit c(3, 3);
    c.cx(0, 1).cx(1, 2).measureAll();
    RoutingResult routed =
        route(c, device::Topology::line(3), {0, 1, 2});
    EXPECT_EQ(routed.swapsInserted, 0u);
}

TEST(Routing, InsertsSwapsForDistantPairs)
{
    qc::Circuit c(2, 2);
    c.cx(0, 1).measureAll();
    // map logical 0,1 to the two ends of a 4-qubit line
    qc::Circuit wide(4, 2);
    wide.cx(0, 3).measure(0, 0).measure(3, 1);
    RoutingResult routed =
        route(wide, device::Topology::line(4), {0, 1, 2, 3});
    EXPECT_GE(routed.swapsInserted, 2u);
    // all 2q gates in the result are on coupled pairs
    for (const qc::Gate &g : routed.circuit.gates()) {
        if (g.isUnitary() && g.qubits.size() == 2) {
            EXPECT_TRUE(device::Topology::line(4).coupled(g.qubits[0],
                                                          g.qubits[1]));
        }
    }
}

TEST(Routing, PreservesOutputDistribution)
{
    // GHZ over a line with a deliberately bad layout: the routed
    // physical circuit must still produce the GHZ distribution on the
    // original classical bits.
    qc::Circuit c(3, 3);
    c.h(0).cx(0, 2).cx(2, 1).measureAll();
    RoutingResult routed =
        route(c, device::Topology::line(5), {4, 0, 2});
    qc::Circuit expanded = decomposeToCx(routed.circuit);
    auto [compact, mapping] = compactCircuit(expanded);
    auto dist = sim::idealDistribution(compact);
    EXPECT_NEAR(dist.probability("000"), 0.5, 1e-9);
    EXPECT_NEAR(dist.probability("111"), 0.5, 1e-9);
}

TEST(NativeTranslation, OnlyNativeGatesRemain)
{
    qc::Circuit c(3, 3);
    c.h(0).cx(0, 1).rzz(0.4, 1, 2).t(2).swap(0, 1).measureAll();
    qc::Circuit lowered = decomposeToCx(c);
    for (auto family : {device::NativeFamily::IBM,
                        device::NativeFamily::ION,
                        device::NativeFamily::AQT}) {
        qc::Circuit native = translateToNative(lowered, family);
        for (const qc::Gate &g : native.gates()) {
            if (g.type == qc::GateType::MEASURE ||
                g.type == qc::GateType::BARRIER) {
                continue;
            }
            EXPECT_TRUE(isNativeGate(g, family)) << qc::gateName(g.type);
        }
    }
}

TEST(NativeTranslation, PreservesUnitary)
{
    qc::Circuit c(2);
    c.h(0).cx(0, 1).t(1).cx(0, 1).sdg(0);
    qc::Circuit lowered = decomposeToCx(c);
    for (auto family : {device::NativeFamily::IBM,
                        device::NativeFamily::ION,
                        device::NativeFamily::AQT}) {
        qc::Circuit native = translateToNative(lowered, family);
        EXPECT_LT(phaseInvariantDistance(circuitUnitary(c),
                                         circuitUnitary(native)),
                  1e-8)
            << static_cast<int>(family);
    }
}

class PipelineEndToEnd : public ::testing::TestWithParam<int>
{
};

TEST_P(PipelineEndToEnd, NoiselessDistributionIsPreserved)
{
    // Full Closed-Division pipeline against each device topology with
    // the noise switched off: measured distribution must match the
    // logical ideal exactly (up to simulator precision).
    device::Device dev;
    switch (GetParam()) {
      case 0:
        dev = device::ibmCasablanca();
        break;
      case 1:
        dev = device::ibmGuadalupe();
        break;
      case 2:
        dev = device::ionqDevice();
        break;
      case 3:
        dev = device::aqtDevice();
        break;
      default:
        FAIL();
    }
    dev.noise = sim::NoiseModel::ideal();

    qc::Circuit c(4, 4);
    c.h(0).cx(0, 1).cx(0, 2).t(1).cx(1, 3).rz(0.3, 3).cx(2, 3);
    c.measureAll();

    TranspileResult result = transpile(c, dev);
    auto [compact, mapping] = compactCircuit(result.circuit);
    ASSERT_LE(compact.numQubits(), 12u);

    auto expected = sim::idealDistribution(c);
    auto actual = sim::idealDistribution(compact);
    // exact distribution match (Hellinger fidelity 1)
    EXPECT_GT(stats::hellingerFidelity(actual, expected), 1.0 - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Devices, PipelineEndToEnd,
                         ::testing::Range(0, 4));

TEST(Pipeline, ReportsSwapAndGateCounts)
{
    // all-to-all program on a line: swaps are unavoidable
    qc::Circuit c = qc::library::ghzLadder(4);
    qc::Circuit full(4, 4);
    full.compose(c);
    full.cx(0, 3);
    full.measureAll();
    device::Device dev = device::aqtDevice();
    dev.noise = sim::NoiseModel::ideal();
    TranspileResult result = transpile(full, dev);
    EXPECT_GT(result.swapsInserted, 0u);
    EXPECT_GT(result.twoQubitGateCount, 4u);
}

TEST(Compact, DropsUntouchedQubits)
{
    qc::Circuit c(6, 2);
    c.h(4).cx(4, 1).measure(4, 0).measure(1, 1);
    auto [compact, mapping] = compactCircuit(c);
    EXPECT_EQ(compact.numQubits(), 2u);
    EXPECT_EQ(mapping[4], 0u);
    EXPECT_EQ(mapping[1], 1u);
    EXPECT_EQ(mapping[0], static_cast<std::size_t>(-1));
}

} // namespace
} // namespace smq::transpile
