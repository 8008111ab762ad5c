/**
 * @file
 * Tests for the circuit IR: gate metadata, builder validation,
 * inverse, remapping, composition, and aggregate counts.
 */

#include <gtest/gtest.h>

#include "qc/circuit.hpp"

namespace smq::qc {
namespace {

TEST(GateMeta, NamesRoundTrip)
{
    for (int t = 0; t <= static_cast<int>(GateType::BARRIER); ++t) {
        GateType type = static_cast<GateType>(t);
        EXPECT_EQ(gateTypeFromName(gateName(type)), type);
    }
    EXPECT_EQ(gateTypeFromName("cnot"), GateType::CX);
    EXPECT_EQ(gateTypeFromName("u1"), GateType::P);
    EXPECT_THROW(gateTypeFromName("bogus"), std::invalid_argument);
}

TEST(GateMeta, ArityAndParams)
{
    EXPECT_EQ(gateArity(GateType::H), 1u);
    EXPECT_EQ(gateArity(GateType::CX), 2u);
    EXPECT_EQ(gateArity(GateType::CCX), 3u);
    EXPECT_EQ(gateParamCount(GateType::U3), 3u);
    EXPECT_EQ(gateParamCount(GateType::RZ), 1u);
    EXPECT_FALSE(isUnitary(GateType::MEASURE));
    EXPECT_FALSE(isUnitary(GateType::BARRIER));
    EXPECT_TRUE(isTwoQubit(GateType::RZZ));
    EXPECT_FALSE(isTwoQubit(GateType::CCX));
    EXPECT_TRUE(isClifford(GateType::S));
    EXPECT_FALSE(isClifford(GateType::T));
    EXPECT_FALSE(isClifford(GateType::RZ));
}

TEST(Circuit, BuilderAppendsValidatedGates)
{
    Circuit c(3, 2);
    c.h(0).cx(0, 1).rz(0.5, 2).measure(1, 0);
    EXPECT_EQ(c.size(), 4u);
    EXPECT_EQ(c.gates()[1].type, GateType::CX);
    EXPECT_EQ(c.gates()[3].cbit, 0);
}

TEST(Circuit, RejectsOutOfRangeOperands)
{
    Circuit c(2, 1);
    EXPECT_THROW(c.h(2), std::out_of_range);
    EXPECT_THROW(c.cx(0, 5), std::out_of_range);
    EXPECT_THROW(c.measure(0, 3), std::out_of_range);
    EXPECT_THROW(c.cx(1, 1), std::invalid_argument); // duplicate operand
}

TEST(Circuit, RejectsDuplicateOperandsOfEveryArity)
{
    Circuit c(12, 0);
    EXPECT_THROW(c.ccx(0, 1, 0), std::invalid_argument);
    EXPECT_THROW(c.barrier({2, 2}), std::invalid_argument);
    std::vector<Qubit> all(12);
    for (std::size_t q = 0; q < all.size(); ++q)
        all[q] = static_cast<Qubit>(q);
    c.barrier(all);
    all.back() = 3;
    EXPECT_THROW(c.barrier(all), std::invalid_argument);
    EXPECT_EQ(c.size(), 1u);
}

TEST(Circuit, RejectsMalformedGateRecords)
{
    Circuit c(2, 0);
    EXPECT_THROW(c.append(Gate(GateType::CX, {0})), std::invalid_argument);
    EXPECT_THROW(c.append(Gate(GateType::RZ, {0}, {})),
                 std::invalid_argument);
    EXPECT_THROW(c.append(Gate(GateType::H, {0}, {1.0})),
                 std::invalid_argument);
}

TEST(Circuit, MeasureAllGrowsClassicalRegister)
{
    Circuit c(3, 0);
    c.h(0);
    c.measureAll();
    EXPECT_EQ(c.numClbits(), 3u);
    EXPECT_EQ(c.measureCount(), 3u);
}

TEST(Circuit, InverseReversesAndInvertsGates)
{
    Circuit c(2, 0);
    c.h(0).s(1).t(0).rz(0.3, 1).cx(0, 1);
    Circuit inv = c.inverse();
    ASSERT_EQ(inv.size(), c.size());
    EXPECT_EQ(inv.gates()[0].type, GateType::CX);
    EXPECT_EQ(inv.gates()[1].type, GateType::RZ);
    EXPECT_DOUBLE_EQ(inv.gates()[1].params[0], -0.3);
    EXPECT_EQ(inv.gates()[2].type, GateType::TDG);
    EXPECT_EQ(inv.gates()[3].type, GateType::SDG);
    EXPECT_EQ(inv.gates()[4].type, GateType::H);
}

TEST(Circuit, InverseOfU3UsesAngleIdentity)
{
    Gate g(GateType::U3, {0}, {0.3, 0.7, -0.2});
    Gate inv = inverseGate(g);
    EXPECT_DOUBLE_EQ(inv.params[0], -0.3);
    EXPECT_DOUBLE_EQ(inv.params[1], 0.2);
    EXPECT_DOUBLE_EQ(inv.params[2], -0.7);
}

TEST(Circuit, InverseRejectsMeasurement)
{
    Circuit c(1, 1);
    c.measure(0, 0);
    EXPECT_THROW(c.inverse(), std::invalid_argument);
}

TEST(Circuit, RemappedRelabelsQubits)
{
    Circuit c(2, 1);
    c.h(0).cx(0, 1).measure(1, 0);
    Circuit r = c.remapped({3, 1}, 4);
    EXPECT_EQ(r.numQubits(), 4u);
    EXPECT_EQ(r.gates()[0].qubits[0], 3u);
    EXPECT_EQ(r.gates()[1].qubits[0], 3u);
    EXPECT_EQ(r.gates()[1].qubits[1], 1u);
    EXPECT_EQ(r.gates()[2].qubits[0], 1u);
    EXPECT_THROW(c.remapped({0}, 2), std::invalid_argument);
    EXPECT_THROW(c.remapped({0, 9}, 2), std::out_of_range);
}

TEST(Circuit, ComposeAppendsOtherCircuit)
{
    Circuit a(2, 1);
    a.h(0);
    Circuit b(2, 1);
    b.cx(0, 1).measure(0, 0);
    a.compose(b);
    EXPECT_EQ(a.size(), 3u);

    Circuit too_big(3, 0);
    EXPECT_THROW(a.compose(too_big), std::invalid_argument);
}

TEST(Circuit, AggregateCountsIgnoreBarriers)
{
    Circuit c(3, 3);
    c.h(0).barrier().cx(0, 1).rzz(0.1, 1, 2).barrier();
    c.measure(0, 0);
    c.reset(1);
    EXPECT_EQ(c.opCount(), 5u);
    EXPECT_EQ(c.multiQubitGateCount(), 2u);
    EXPECT_EQ(c.measureCount(), 1u);
    EXPECT_EQ(c.resetCount(), 1u);
}

TEST(Circuit, ToStringMentionsGates)
{
    Circuit c(2, 1, "demo");
    c.rz(0.5, 1).measure(1, 0);
    std::string s = c.toString();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("rz"), std::string::npos);
    EXPECT_NE(s.find("-> c[0]"), std::string::npos);
}

} // namespace
} // namespace smq::qc
