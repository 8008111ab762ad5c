#include "sim/density_matrix.hpp"

#include <cmath>
#include <functional>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "sim/backend.hpp"
#include "sim/dense_kernels.hpp"
#include "sim/kernels.hpp"
#include "sim/memory.hpp"
#include "sim/simd.hpp"
#include "sim/statevector.hpp"

namespace smq::sim {

namespace {

/** One DM apply: a 1q/2q conjugation, a 3q permutation or a channel. */
inline void
countDmKernel()
{
    static obs::Counter &applies =
        obs::counter(obs::names::kSimDmGateApplies);
    applies.add();
}

/**
 * Closed form of (1-p) rho + (p/3)(X rho X + Y rho Y + Z rho Z) per
 * qubit block: populations mix pairwise, coherences scale.
 */
kernels::DmChannel
depolarizing1(double p)
{
    return {kernels::DmChannel::Kind::Depolarize, 1.0 - 2.0 * p / 3.0,
            2.0 * p / 3.0, 1.0 - 4.0 * p / 3.0};
}

/**
 * Two-qubit Pauli twirl identity: the sum over all 16 Paulis of P B P
 * is 4 Tr(B) I per block B, so
 *   rho' = (1-p) B + (p/15)(4 Tr(B) I - B)
 *        = (1 - 16p/15) B + (4p/15) Tr(B) I.
 */
kernels::DmChannel
depolarizing2(double p)
{
    return {kernels::DmChannel::Kind::Depolarize, 1.0 - 16.0 * p / 15.0,
            4.0 * p / 15.0, 0.0};
}

} // namespace

DensityMatrix::DensityMatrix(std::size_t num_qubits)
    : numQubits_(num_qubits), dim_(0)
{
    // Validate before sizing: the 1 << n the old initialiser ran was
    // undefined behaviour for n >= 64 (and meaningless past the cap).
    if (num_qubits > kDensityMatrixHardCap)
        throw std::invalid_argument(
            "DensityMatrix: too many qubits for dense simulation");
    dim_ = std::size_t{1} << num_qubits;
    // Up-front estimate: rho is 4^n amplitudes, the first allocation
    // to blow past a budget on a mis-sized cell.
    checkAllocationBudget(
        "density_matrix(" + std::to_string(num_qubits) + " qubits)",
        denseBytes(num_qubits, sizeof(Complex), true));
    rho_.assign(dim_ * dim_, Complex{0.0, 0.0});
    rho_[0] = 1.0;
}

Complex
DensityMatrix::element(std::size_t r, std::size_t c) const
{
    if (r >= dim_ || c >= dim_)
        throw std::out_of_range("DensityMatrix::element");
    return rho_[r * dim_ + c];
}

void
DensityMatrix::checkQubit(std::size_t q) const
{
    if (q >= numQubits_)
        throw std::out_of_range("DensityMatrix: qubit index out of range");
}

void
DensityMatrix::checkPair(std::size_t q0, std::size_t q1) const
{
    checkQubit(q0);
    checkQubit(q1);
    if (q0 == q1)
        throw std::invalid_argument("DensityMatrix: duplicate qubit");
}

void
DensityMatrix::applyMatrix1(std::size_t q, const Matrix2 &u, double p)
{
    checkQubit(q);
    countDmKernel();
    kernels::recordSimdPath();
    if (p > 0.0)
        countDmKernel();
    step1(q, &u, p > 0.0 ? depolarizing1(p) : kernels::DmChannel{});
}

void
DensityMatrix::applyMatrix2(std::size_t q0, std::size_t q1, const Matrix4 &u,
                            double p)
{
    checkPair(q0, q1);
    countDmKernel();
    kernels::recordSimdPath();
    if (p > 0.0)
        countDmKernel();
    step2(q0, q1, &u, p > 0.0 ? depolarizing2(p) : kernels::DmChannel{});
}

void
DensityMatrix::applyGate(const qc::Gate &gate, double p)
{
    using qc::GateType;
    if (gate.type == GateType::CCX || gate.type == GateType::CSWAP) {
        if (p > 0.0)
            throw std::invalid_argument(
                "DensityMatrix::applyGate: a 3-qubit gate carries no error");
        for (qc::Qubit q : gate.qubits)
            checkQubit(q);
        countDmKernel();
        // rho <- P rho P^T for a real permutation P: the statevector's
        // in-place swap sweep on the row bits, then on the column bits.
        qc::Gate rows = gate;
        for (qc::Qubit &q : rows.qubits)
            q += static_cast<qc::Qubit>(numQubits_);
        dense::gateKernel(rho_.data(), rho_.size(), 2 * numQubits_, rows);
        dense::gateKernel(rho_.data(), rho_.size(), 2 * numQubits_, gate);
        return;
    }
    if (gate.qubits.size() == 1) {
        applyMatrix1(gate.qubits[0], gateMatrix1(gate), p);
    } else if (gate.qubits.size() == 2) {
        applyMatrix2(gate.qubits[0], gate.qubits[1], gateMatrix2(gate), p);
    } else {
        throw std::invalid_argument("DensityMatrix::applyGate: bad arity");
    }
}

void
DensityMatrix::applyFused(const std::vector<FusedOp> &ops)
{
    for (const FusedOp &op : ops) {
        switch (op.kind) {
          case FusedOp::Kind::Unitary1:
            applyMatrix1(op.q0, op.m2);
            break;
          case FusedOp::Kind::Unitary2:
            applyMatrix2(op.q0, op.q1, op.m4);
            break;
          case FusedOp::Kind::Passthrough:
            applyGate(op.gate);
            break;
        }
    }
}

void
DensityMatrix::depolarize1(std::size_t q, double p)
{
    if (p <= 0.0)
        return;
    checkQubit(q);
    countDmKernel();
    step1(q, nullptr, depolarizing1(p));
}

void
DensityMatrix::depolarize2(std::size_t qa, std::size_t qb, double p)
{
    if (p <= 0.0)
        return;
    checkPair(qa, qb);
    countDmKernel();
    step2(qa, qb, nullptr, depolarizing2(p));
}

void
DensityMatrix::thermalRelax(std::size_t q, double gamma, double pz)
{
    if (gamma <= 0.0 && pz <= 0.0)
        return;
    checkQubit(q);
    countDmKernel();
    // Amplitude damping then Pauli-twirled dephasing, composed in
    // closed form per q-subsystem block:
    //   b00' = b00 + gamma b11        b01' = s z b01
    //   b10' = s z b10                b11' = (1 - gamma) b11
    // with s = sqrt(1 - gamma), z = 1 - 2 pz: one pass instead of two
    // Kraus channels in the idle-noise hot loop.
    const double coh = std::sqrt(1.0 - gamma) * (1.0 - 2.0 * pz);
    step1(q, nullptr,
          {kernels::DmChannel::Kind::Relax, gamma, 1.0 - gamma, coh});
}

void
DensityMatrix::step1(std::size_t q, const Matrix2 *u,
                     const kernels::DmChannel &channel)
{
    Complex *rho = rho_.data();
    const std::size_t n = numQubits_;
    auto body = [&](std::size_t pb, std::size_t pe) {
        kernels::dmPairRange(rho, n, pb, pe, q, u, channel);
    };
    // std::ref keeps the std::function in its small buffer.
    kernels::forEachRange(dim_ / 2, dim_ * dim_, std::ref(body));
}

void
DensityMatrix::step2(std::size_t q0, std::size_t q1, const Matrix4 *u,
                     const kernels::DmChannel &channel)
{
    Complex *rho = rho_.data();
    const std::size_t n = numQubits_;
    auto body = [&](std::size_t kb, std::size_t ke) {
        kernels::dmQuadRange(rho, n, kb, ke, q0, q1, u, channel);
    };
    kernels::forEachRange(dim_ / 4, dim_ * dim_, std::ref(body));
}

double
DensityMatrix::trace() const
{
    double tr = 0.0;
    for (std::size_t i = 0; i < dim_; ++i)
        tr += rho_[i * dim_ + i].real();
    return tr;
}

double
DensityMatrix::purity() const
{
    // Tr(rho^2) = sum_{r,c} rho[r][c] rho[c][r] = sum |rho[r][c]|^2
    // for Hermitian rho.
    const Complex *rho = rho_.data();
    return kernels::reduceChunked<double>(
        rho_.size(), [&](std::size_t b, std::size_t e) {
            double acc = 0.0;
            for (std::size_t i = b; i < e; ++i)
                acc += std::norm(rho[i]);
            return acc;
        });
}

std::vector<double>
DensityMatrix::probabilities() const
{
    std::vector<double> probs(dim_);
    for (std::size_t i = 0; i < dim_; ++i)
        probs[i] = rho_[i * dim_ + i].real();
    return probs;
}

stats::Distribution
noisyDistribution(const qc::Circuit &circuit, const NoiseModel &noise)
{
    const TerminalSplit split = splitTerminal(circuit);
    DensityMatrix rho(circuit.numQubits());
    if (!noise.enabled) {
        // No per-gate channels to interleave: fuse single-qubit runs
        // and apply the compact sequence in one go.
        rho.applyFused(fuseUnitaryCircuit(split.body));
        return clbitDistribution(rho.probabilities(), split.clbitSource);
    }
    const NoisySteps plan = noisySteps(split.body, noise);
    const std::vector<NoisyStep> &steps = plan.steps;
    for (std::size_t s = 0; s < steps.size(); ++s) {
        const NoisyStep &step = steps[s];
        switch (step.kind) {
          case NoisyStep::Kind::Gate: {
            // The gate's error, which noisySteps puts right after it,
            // rides in the gate's pass over rho.
            double p = 0.0;
            if (s + 1 < steps.size() && steps[s + 1].index == step.index &&
                (steps[s + 1].kind == NoisyStep::Kind::Pauli1 ||
                 steps[s + 1].kind == NoisyStep::Kind::Pauli2))
                p = steps[++s].p;
            rho.applyGate(split.body.gates()[step.index], p);
            break;
          }
          case NoisyStep::Kind::Pauli1:
            rho.depolarize1(step.q0, step.p);
            break;
          case NoisyStep::Kind::Pauli2:
            rho.depolarize2(step.q0, step.q1, step.p);
            break;
          case NoisyStep::Kind::Idle: {
            const IdleChannel &idle = plan.idle[step.index];
            rho.thermalRelax(step.q0, idle.damp, idle.dephase);
            break;
          }
          case NoisyStep::Kind::Measure:
          case NoisyStep::Kind::Reset:
            break; // splitTerminal leaves neither in the body
        }
    }

    // Readout error: a qubit read into a second classical bit gets an
    // index bit of its own that copies the qubit's bit, and then every
    // measured bit flips independently, in ascending order.
    std::vector<double> probs = rho.probabilities();
    std::vector<std::ptrdiff_t> source = split.clbitSource;
    if (noise.pMeas > 0.0) {
        std::vector<bool> measured(circuit.numQubits(), false);
        for (std::ptrdiff_t &bit : source) {
            if (bit < 0)
                continue;
            const auto q = static_cast<std::size_t>(bit);
            if (!measured[q]) {
                measured[q] = true;
                continue;
            }
            const std::size_t copy = measured.size();
            checkAllocationBudget("density_matrix readout copies",
                                  denseBytes(copy + 1, sizeof(double), false));
            std::vector<double> wider(2 * probs.size(), 0.0);
            for (std::size_t s = 0; s < probs.size(); ++s)
                wider[s | (((s >> q) & 1) << copy)] = probs[s];
            probs = std::move(wider);
            measured.push_back(true);
            bit = static_cast<std::ptrdiff_t>(copy);
        }
        for (std::size_t q = 0; q < measured.size(); ++q) {
            if (!measured[q])
                continue;
            std::size_t mask = std::size_t{1} << q;
            std::vector<double> next(probs.size());
            for (std::size_t s = 0; s < probs.size(); ++s) {
                next[s] = (1.0 - noise.pMeas) * probs[s] +
                          noise.pMeas * probs[s ^ mask];
            }
            probs = std::move(next);
        }
    }
    return clbitDistribution(probs, source);
}

} // namespace smq::sim
