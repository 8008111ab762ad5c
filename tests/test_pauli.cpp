/**
 * @file
 * Tests for the Pauli-string algebra: parsing, products, commutation,
 * and exact conjugation by every supported Clifford gate, verified
 * against dense matrix conjugation.
 */

#include <gtest/gtest.h>

#include <complex>
#include <ostream>

#include "qc/pauli.hpp"
#include "stats/rng.hpp"
#include "test_helpers.hpp"

namespace smq::qc {
namespace {

using smq::test::CMatrix;

/** Dense matrix of a PauliString (i^r X^x Z^z). */
CMatrix
pauliMatrix(const PauliString &p)
{
    std::size_t n = p.numQubits();
    std::size_t dim = std::size_t{1} << n;
    CMatrix m(dim, std::vector<std::complex<double>>(dim, 0.0));
    static const std::complex<double> phases[4] = {
        {1, 0}, {0, 1}, {-1, 0}, {0, -1}};
    std::size_t xm = 0, zm = 0;
    for (std::size_t q = 0; q < n; ++q) {
        if (p.xBit(q))
            xm |= std::size_t{1} << q;
        if (p.zBit(q))
            zm |= std::size_t{1} << q;
    }
    for (std::size_t s = 0; s < dim; ++s) {
        double sign = __builtin_parityll(s & zm) ? -1.0 : 1.0;
        m[s ^ xm][s] = phases[p.phasePower()] * sign;
    }
    return m;
}

TEST(PauliString, LabelRoundTrip)
{
    for (const char *label : {"XIYZ", "III", "YYY", "ZXZX"}) {
        PauliString p = PauliString::fromLabel(label);
        EXPECT_EQ(p.toString(), std::string("+") + label);
    }
    EXPECT_THROW(PauliString::fromLabel("XQ"), std::invalid_argument);
}

TEST(PauliString, WeightSupportAndZType)
{
    PauliString p = PauliString::fromLabel("XIZI");
    EXPECT_EQ(p.weight(), 2u);
    EXPECT_EQ(p.support(), (std::vector<std::size_t>{0, 2}));
    EXPECT_FALSE(p.isZType());
    EXPECT_TRUE(PauliString::fromLabel("IZZI").isZType());
    EXPECT_TRUE(PauliString(3).isIdentity());
}

TEST(PauliString, SignOfZTypeStrings)
{
    PauliString z = PauliString::fromLabel("ZZ");
    EXPECT_EQ(z.sign(), 1);
    z.setPhasePower(2);
    EXPECT_EQ(z.sign(), -1);
    z.setPhasePower(1);
    EXPECT_THROW(z.sign(), std::logic_error);
    EXPECT_THROW(PauliString::fromLabel("XZ").sign(), std::logic_error);
}

TEST(PauliString, ProductsCarryExactPhases)
{
    // X * Y = iZ, Y * X = -iZ, X * Z = -iY
    PauliString x = PauliString::fromLabel("X");
    PauliString y = PauliString::fromLabel("Y");
    PauliString z = PauliString::fromLabel("Z");
    EXPECT_EQ((x * y).toString(), "+iZ");
    EXPECT_EQ((y * x).toString(), "-iZ");
    EXPECT_EQ((x * z).toString(), "-iY");
    EXPECT_EQ((z * x).toString(), "+iY");
    EXPECT_EQ((x * x).toString(), "+I");
}

TEST(PauliString, ProductMatchesMatrixProduct)
{
    stats::Rng rng(23);
    const char *letters = "IXYZ";
    for (int trial = 0; trial < 50; ++trial) {
        std::string la, lb;
        for (int q = 0; q < 3; ++q) {
            la.push_back(letters[rng.index(4)]);
            lb.push_back(letters[rng.index(4)]);
        }
        PauliString a = PauliString::fromLabel(la);
        PauliString b = PauliString::fromLabel(lb);
        CMatrix expect = smq::test::matmul(pauliMatrix(a), pauliMatrix(b));
        CMatrix got = pauliMatrix(a * b);
        double d = 0.0;
        for (std::size_t r = 0; r < expect.size(); ++r) {
            for (std::size_t c = 0; c < expect.size(); ++c)
                d += std::norm(expect[r][c] - got[r][c]);
        }
        EXPECT_LT(d, 1e-18) << la << " * " << lb;
    }
}

TEST(PauliString, CommutationMatchesDefinition)
{
    EXPECT_FALSE(PauliString::fromLabel("X").commutesWith(
        PauliString::fromLabel("Z")));
    EXPECT_TRUE(PauliString::fromLabel("XX").commutesWith(
        PauliString::fromLabel("ZZ")));
    EXPECT_TRUE(PauliString::fromLabel("XY").commutesWith(
        PauliString::fromLabel("YX")));
    EXPECT_FALSE(PauliString::fromLabel("XYI").commutesWith(
        PauliString::fromLabel("XZI")));
}

/** Gate types covered by conjugation, with arity. */
struct ConjCase
{
    GateType type;
    std::size_t arity;
};

// gtest appends the printed parameter to each case's listed name; its
// default dump of the struct's bytes includes the padding after type,
// which differs from build to build.
void
PrintTo(const ConjCase &c, std::ostream *os)
{
    *os << gateName(c.type) << ' ' << c.arity << 'q';
}

class PauliConjugation : public ::testing::TestWithParam<ConjCase>
{
};

TEST_P(PauliConjugation, MatchesDenseConjugationOnAllPaulis)
{
    const auto [type, arity] = GetParam();
    std::vector<Qubit> qubits;
    for (std::size_t i = 0; i < arity; ++i)
        qubits.push_back(static_cast<Qubit>(i));
    Gate gate(type, qubits);

    Circuit c(arity);
    c.append(gate);
    CMatrix u = smq::test::circuitUnitary(c);

    const char *letters = "IXYZ";
    std::size_t n_labels = 1;
    for (std::size_t i = 0; i < arity; ++i)
        n_labels *= 4;
    for (std::size_t code = 0; code < n_labels; ++code) {
        std::string label;
        std::size_t rest = code;
        for (std::size_t q = 0; q < arity; ++q) {
            label.push_back(letters[rest % 4]);
            rest /= 4;
        }
        PauliString p = PauliString::fromLabel(label);
        PauliString conj = p;
        conj.conjugateBy(gate);

        // expected: U P U^dagger
        CMatrix up = smq::test::matmul(u, pauliMatrix(p));
        CMatrix udg(u.size(),
                    std::vector<std::complex<double>>(u.size()));
        for (std::size_t r = 0; r < u.size(); ++r) {
            for (std::size_t cc = 0; cc < u.size(); ++cc)
                udg[r][cc] = std::conj(u[cc][r]);
        }
        CMatrix expect = smq::test::matmul(up, udg);
        CMatrix got = pauliMatrix(conj);
        double d = 0.0;
        for (std::size_t r = 0; r < expect.size(); ++r) {
            for (std::size_t cc = 0; cc < expect.size(); ++cc)
                d += std::norm(expect[r][cc] - got[r][cc]);
        }
        EXPECT_LT(d, 1e-18)
            << gateName(type) << " on " << label << " -> "
            << conj.toString();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCliffordGates, PauliConjugation,
    ::testing::Values(ConjCase{GateType::I, 1}, ConjCase{GateType::X, 1},
                      ConjCase{GateType::Y, 1}, ConjCase{GateType::Z, 1},
                      ConjCase{GateType::H, 1}, ConjCase{GateType::S, 1},
                      ConjCase{GateType::SDG, 1},
                      ConjCase{GateType::SX, 1},
                      ConjCase{GateType::SXDG, 1},
                      ConjCase{GateType::CX, 2},
                      ConjCase{GateType::CY, 2},
                      ConjCase{GateType::CZ, 2},
                      ConjCase{GateType::SWAP, 2}),
    [](const ::testing::TestParamInfo<ConjCase> &info) {
        return gateName(info.param.type);
    });

TEST(PauliConjugationErrors, RejectsNonClifford)
{
    PauliString p = PauliString::fromLabel("X");
    EXPECT_THROW(p.conjugateBy(Gate(GateType::T, {0})),
                 std::invalid_argument);
    EXPECT_THROW(p.conjugateBy(Gate(GateType::RZ, {0}, {0.1})),
                 std::invalid_argument);
}

TEST(PauliConjugation, ThroughCircuitComposes)
{
    Circuit c(2);
    c.h(0).cx(0, 1);
    // Z0 -> (after H) X0 -> (after CX) X0 X1
    PauliString p = PauliString::fromLabel("ZI");
    p.conjugateByCircuit(c);
    EXPECT_EQ(p.toString(), "+XX");
}

} // namespace
} // namespace smq::qc
