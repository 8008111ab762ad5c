/**
 * @file
 * Broad end-to-end property sweep: every library kernel, transpiled
 * onto every native-gate family's device, must preserve its measured
 * output distribution exactly on a noiseless device. This is the
 * repository's strongest integration guarantee: IR -> decompose ->
 * layout -> route -> native translation -> simulate is
 * distribution-preserving for arbitrary realistic workloads.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "device/device.hpp"
#include "qc/library.hpp"
#include "sim/statevector.hpp"
#include "stats/hellinger.hpp"
#include "transpile/native.hpp"
#include "transpile/transpiler.hpp"

namespace smq {
namespace {

struct SweepCase
{
    const char *kernel;
    const char *device;
};

// gtest appends the printed parameter to each case's listed name; its
// default dump of the struct's bytes would show the two pointers, and
// the name would change from build to build.
void
PrintTo(const SweepCase &c, std::ostream *os)
{
    *os << c.kernel << " on " << c.device;
}

qc::Circuit
makeKernel(const std::string &name)
{
    namespace lib = qc::library;
    stats::Rng rng(5);
    qc::Circuit c;
    if (name == "qft") {
        c = lib::qft(4);
        c.measureAll();
    } else if (name == "bv") {
        c = lib::bernsteinVazirani({1, 0, 1});
    } else if (name == "adder") {
        c = lib::cuccaroAdder(1);
        c.measureAll();
    } else if (name == "wstate") {
        c = lib::wState(4);
        c.measureAll();
    } else if (name == "hidden_shift") {
        c = lib::hiddenShift({1, 0, 0, 1});
    } else if (name == "grover") {
        c = lib::grover(3, {1, 0, 1}, 1);
    } else if (name == "random") {
        c = lib::randomLayered(4, 3, rng);
        c.measureAll();
    } else if (name == "qpe") {
        c = lib::quantumPhaseEstimation(3);
    } else {
        throw std::logic_error("unknown kernel " + name);
    }
    return c;
}

device::Device
makeDevice(const std::string &name)
{
    // noiseless copies: we check exact distribution preservation
    device::Device dev;
    if (name == "ibm16")
        dev = device::ibmGuadalupe();
    else if (name == "ion")
        dev = device::ionqDevice();
    else if (name == "line8")
        dev = device::aqtDevice(); // 4q line; small kernels only
    else
        throw std::logic_error("unknown device " + name);
    dev.noise = sim::NoiseModel::ideal();
    return dev;
}

class PipelineSweep : public ::testing::TestWithParam<SweepCase>
{
};

TEST_P(PipelineSweep, DistributionPreservedThroughFullPipeline)
{
    const auto [kernel, device_name] = GetParam();
    qc::Circuit logical = makeKernel(kernel);
    device::Device dev = makeDevice(device_name);
    if (logical.numQubits() > dev.numQubits())
        GTEST_SKIP() << "kernel larger than device";

    transpile::TranspileResult result =
        transpile::transpile(logical, dev);
    auto [compact, mapping] = transpile::compactCircuit(result.circuit);
    ASSERT_LE(compact.numQubits(), 16u);

    // every 2q gate must respect the coupling map (on the original
    // physical indices)
    for (const qc::Gate &g : result.circuit.gates()) {
        if (g.isUnitary() && g.qubits.size() == 2) {
            EXPECT_TRUE(dev.topology.coupled(g.qubits[0], g.qubits[1]))
                << g.toString();
        }
        if (g.isUnitary()) {
            EXPECT_TRUE(transpile::isNativeGate(g, dev.family))
                << qc::gateName(g.type);
        }
    }

    auto expected = sim::idealDistribution(logical);
    auto actual = sim::idealDistribution(compact);
    EXPECT_GT(stats::hellingerFidelity(actual, expected), 1.0 - 1e-9)
        << kernel << " on " << device_name;
}

INSTANTIATE_TEST_SUITE_P(
    KernelsTimesDevices, PipelineSweep,
    ::testing::Values(
        SweepCase{"qft", "ibm16"}, SweepCase{"qft", "ion"},
        SweepCase{"bv", "ibm16"}, SweepCase{"bv", "ion"},
        SweepCase{"bv", "line8"}, SweepCase{"adder", "ibm16"},
        SweepCase{"adder", "ion"}, SweepCase{"adder", "line8"},
        SweepCase{"wstate", "ibm16"}, SweepCase{"wstate", "ion"},
        SweepCase{"wstate", "line8"}, SweepCase{"hidden_shift", "ibm16"},
        SweepCase{"hidden_shift", "ion"},
        SweepCase{"hidden_shift", "line8"},
        SweepCase{"grover", "ibm16"}, SweepCase{"grover", "ion"},
        SweepCase{"random", "ibm16"}, SweepCase{"random", "ion"},
        SweepCase{"random", "line8"}, SweepCase{"qpe", "ibm16"},
        SweepCase{"qpe", "ion"}, SweepCase{"qpe", "line8"}),
    [](const ::testing::TestParamInfo<SweepCase> &info) {
        return std::string(info.param.kernel) + "_on_" +
               info.param.device;
    });

} // namespace
} // namespace smq
