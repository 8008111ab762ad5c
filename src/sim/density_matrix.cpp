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

using dense::expand1;
using dense::expand2;

/** One DM apply: a 1q/2q conjugation, a 3q permutation or a channel. */
inline void
countDmKernel()
{
    static obs::Counter &applies =
        obs::counter(obs::names::kSimDmGateApplies);
    applies.add();
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
DensityMatrix::applyMatrix1(std::size_t q, const Matrix2 &u)
{
    checkQubit(q);
    countDmKernel();
    kernels::recordSimdPath();
    // rho <- U rho on row bit n + q, then rho <- rho U^dagger on column
    // bit q: (rho U^dagger)[r][c] = sum_k conj(u[c][k]) rho[r][k], so
    // the column bit takes the entrywise conjugate of U, not its
    // transpose.
    const Matrix2 d = {std::conj(u[0]), std::conj(u[1]), std::conj(u[2]),
                       std::conj(u[3])};
    dense::matrix1Kernel(rho_.data(), rho_.size(), numQubits_ + q, u);
    dense::matrix1Kernel(rho_.data(), rho_.size(), q, d);
}

void
DensityMatrix::applyMatrix2(std::size_t q0, std::size_t q1, const Matrix4 &u)
{
    checkQubit(q0);
    checkQubit(q1);
    if (q0 == q1)
        throw std::invalid_argument("DensityMatrix: duplicate qubit");
    countDmKernel();
    kernels::recordSimdPath();
    Matrix4 d;
    for (std::size_t k = 0; k < 16; ++k)
        d[k] = std::conj(u[k]);
    dense::matrix2Kernel(rho_.data(), rho_.size(), numQubits_ + q0,
                         numQubits_ + q1, u);
    dense::matrix2Kernel(rho_.data(), rho_.size(), q0, q1, d);
}

void
DensityMatrix::applyGate(const qc::Gate &gate)
{
    using qc::GateType;
    if (gate.type == GateType::CCX || gate.type == GateType::CSWAP) {
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
        applyMatrix1(gate.qubits[0], gateMatrix1(gate));
    } else if (gate.qubits.size() == 2) {
        applyMatrix2(gate.qubits[0], gate.qubits[1], gateMatrix2(gate));
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
    // Closed form of (1-p) rho + (p/3)(X rho X + Y rho Y + Z rho Z)
    // per q-subsystem block: populations mix pairwise, coherences
    // scale — one pass instead of four Kraus conjugations.
    const double a = 1.0 - 2.0 * p / 3.0; // population keep
    const double b = 2.0 * p / 3.0;       // population swap-in
    const double c = 1.0 - 4.0 * p / 3.0; // coherence scale
    const std::size_t stride = std::size_t{1} << q;
    Complex *rho = rho_.data();
    auto body = [&](std::size_t pb, std::size_t pe) {
        for (std::size_t pr = pb; pr < pe; ++pr) {
            Complex *row0 = rho + expand1(pr, q) * dim_;
            Complex *row1 = row0 + stride * dim_;
            for (std::size_t cp = 0; cp < dim_ / 2; ++cp) {
                const std::size_t c0 = expand1(cp, q);
                const std::size_t c1 = c0 + stride;
                const Complex b00 = row0[c0], b11 = row1[c1];
                row0[c0] = a * b00 + b * b11;
                row1[c1] = b * b00 + a * b11;
                row0[c1] *= c;
                row1[c0] *= c;
            }
        }
    };
    // std::ref keeps the std::function in its small buffer.
    kernels::forEachRange(dim_ / 2, dim_ * dim_, std::ref(body));
}

void
DensityMatrix::depolarize2(std::size_t qa, std::size_t qb, double p)
{
    if (p <= 0.0)
        return;
    checkQubit(qa);
    checkQubit(qb);
    countDmKernel();
    // Two-qubit Pauli twirl identity: sum over all 16 Paulis of
    // P B P = 4 Tr(B) I per (qa, qb) subsystem block, so
    //   rho' = (1-p) B + (p/15)(4 Tr(B) I - B)
    //        = (1 - 16p/15) B + (4p/15) Tr(B) I.
    // One pass over rho instead of 16 whole-matrix Kraus branches.
    const double alpha = 1.0 - 16.0 * p / 15.0;
    const double beta = 4.0 * p / 15.0;
    const std::size_t sa = std::size_t{1} << qa;
    const std::size_t sb = std::size_t{1} << qb;
    std::size_t p0 = qa, p1 = qb;
    if (p0 > p1)
        std::swap(p0, p1);
    Complex *rho = rho_.data();
    auto body = [&](std::size_t kb, std::size_t ke) {
        for (std::size_t kr = kb; kr < ke; ++kr) {
            const std::size_t base = expand2(kr, p0, p1);
            Complex *rows[4] = {rho + base * dim_, rho + (base + sb) * dim_,
                                rho + (base + sa) * dim_,
                                rho + (base + sa + sb) * dim_};
            for (std::size_t kc = 0; kc < dim_ / 4; ++kc) {
                const std::size_t cbase = expand2(kc, p0, p1);
                const std::size_t cols[4] = {cbase, cbase + sb, cbase + sa,
                                             cbase + sa + sb};
                const Complex tr = rows[0][cols[0]] + rows[1][cols[1]] +
                                   rows[2][cols[2]] + rows[3][cols[3]];
                for (int i = 0; i < 4; ++i) {
                    for (int j = 0; j < 4; ++j) {
                        Complex v = alpha * rows[i][cols[j]];
                        if (i == j)
                            v += beta * tr;
                        rows[i][cols[j]] = v;
                    }
                }
            }
        }
    };
    kernels::forEachRange(dim_ / 4, dim_ * dim_, std::ref(body));
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
    const double s = std::sqrt(1.0 - gamma);
    const double coh = s * (1.0 - 2.0 * pz);
    const double keep = 1.0 - gamma;
    const std::size_t stride = std::size_t{1} << q;
    Complex *rho = rho_.data();
    auto body = [&](std::size_t pb, std::size_t pe) {
        for (std::size_t pr = pb; pr < pe; ++pr) {
            Complex *row0 = rho + expand1(pr, q) * dim_;
            Complex *row1 = row0 + stride * dim_;
            for (std::size_t cp = 0; cp < dim_ / 2; ++cp) {
                const std::size_t c0 = expand1(cp, q);
                const std::size_t c1 = c0 + stride;
                const Complex b11 = row1[c1];
                row0[c0] += gamma * b11;
                row1[c1] = keep * b11;
                row0[c1] *= coh;
                row1[c0] *= coh;
            }
        }
    };
    kernels::forEachRange(dim_ / 2, dim_ * dim_, std::ref(body));
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
    for (const NoisyStep &step : plan.steps) {
        switch (step.kind) {
          case NoisyStep::Kind::Gate:
            rho.applyGate(split.body.gates()[step.index]);
            break;
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
