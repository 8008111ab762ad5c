/**
 * @file
 * Dense density-matrix simulator with exact Kraus channels.
 *
 * This is the small-n oracle for the trajectory runner: the same
 * noise model (depolarising gates, idle thermal relaxation, readout
 * error) is applied exactly, without sampling error, so agreement
 * between the two engines validates the trajectory unravelling
 * (see bench_ablation_noise and the sim tests).
 *
 * Supports unitary circuits with terminal measurements; mid-circuit
 * measurement / RESET require outcome branching and are only exposed
 * through the trajectory runner.
 *
 * Layout: rho is row-major, entry (r, c) at index r * 2^n + c, which
 * is the memory layout of a 2n-qubit state vector: column qubit q is
 * index bit q and row qubit q is index bit n + q. A 1q/2q step walks
 * the 2x2 (4x4) blocks of its qubits once (kernels::dmPairRange /
 * dmQuadRange): U on the rows, the entrywise conjugate of U on the
 * columns, then the gate's error or the channel, one block at a time.
 * CCX / CSWAP are the statevector's permutation on the row bits, then
 * on the column bits.
 */

#ifndef SMQ_SIM_DENSITY_MATRIX_HPP
#define SMQ_SIM_DENSITY_MATRIX_HPP

#include <complex>
#include <vector>

#include "qc/circuit.hpp"
#include "sim/fusion.hpp"
#include "sim/gate_matrices.hpp"
#include "sim/noise.hpp"
#include "stats/counts.hpp"

namespace smq::sim {

namespace kernels {
struct DmChannel;
} // namespace kernels

/** A mixed state over n qubits (dense 2^n x 2^n matrix). */
class DensityMatrix
{
  public:
    /** |0..0><0..0| over @p num_qubits qubits.
     *  @throws std::invalid_argument past kDensityMatrixHardCap (11). */
    explicit DensityMatrix(std::size_t num_qubits);

    std::size_t numQubits() const { return numQubits_; }
    std::size_t dimension() const { return dim_; }

    /** Element rho[r][c]. */
    Complex element(std::size_t r, std::size_t c) const;

    /**
     * Apply a one-qubit unitary, rho <- U rho U^dagger, then, when
     * @p p > 0, depolarize1(q, p), in one pass over rho.
     */
    void applyMatrix1(std::size_t q, const Matrix2 &u, double p = 0.0);

    /**
     * Apply a two-qubit unitary (basis as in gate_matrices.hpp), then,
     * when @p p > 0, depolarize2(q0, q1, p), in one pass over rho.
     */
    void applyMatrix2(std::size_t q0, std::size_t q1, const Matrix4 &u,
                      double p = 0.0);

    /**
     * Apply one unitary gate and, when @p p > 0, its depolarising
     * error on its qubits, in one pass. Bit-identical to the gate and
     * then depolarize1/2. @throws std::invalid_argument for p > 0 on a
     * 3-qubit gate, which carries no error.
     */
    void applyGate(const qc::Gate &gate, double p = 0.0);

    /** Apply a pre-fused instruction sequence (see sim/fusion.hpp). */
    void applyFused(const std::vector<FusedOp> &ops);

    /** One-qubit depolarising channel with probability p. */
    void depolarize1(std::size_t q, double p);

    /** Two-qubit depolarising channel with probability p.
     *  @throws std::invalid_argument when qa == qb. */
    void depolarize2(std::size_t qa, std::size_t qb, double p);

    /**
     * Idle-qubit channel: amplitude damping toward |0> (gamma) followed
     * by Pauli-twirled dephasing, a Z flip with probability pz,
     * composed in closed form so an idle step touches rho once
     * instead of running two Kraus channels back to back.
     */
    void thermalRelax(std::size_t q, double gamma, double pz);

    /** Trace (should remain 1). */
    double trace() const;

    /** Purity Tr(rho^2). */
    double purity() const;

    /** Diagonal probabilities over basis states. */
    std::vector<double> probabilities() const;

  private:
    void checkQubit(std::size_t q) const;
    /** Both in range and distinct. */
    void checkPair(std::size_t q0, std::size_t q1) const;

    /** One dispatch of the block walker; @p u may be null. */
    void step1(std::size_t q, const Matrix2 *u,
               const kernels::DmChannel &channel);
    void step2(std::size_t q0, std::size_t q1, const Matrix4 *u,
               const kernels::DmChannel &channel);

    std::size_t numQubits_;
    std::size_t dim_;
    std::vector<Complex> rho_; // row-major dim x dim
};

/**
 * Exact output distribution of a terminal-measurement circuit under
 * the noise model: the body's noisy steps (sim/noise.hpp) as exact
 * channels, gate errors as depolarising, then an independent readout
 * flip on each measurement.
 */
stats::Distribution
noisyDistribution(const qc::Circuit &circuit, const NoiseModel &noise);

} // namespace smq::sim

#endif // SMQ_SIM_DENSITY_MATRIX_HPP
