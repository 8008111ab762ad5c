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
 * index bit q and row qubit q is index bit n + q. Gates run on the
 * statevector's kernels (sim/dense_kernels.hpp): U rho U^dagger is U
 * on the row bits, then the entrywise conjugate of U on the column
 * bits; CCX / CSWAP are the same permutation on both halves.
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

    /** Apply a one-qubit unitary: rho <- U rho U^dagger. */
    void applyMatrix1(std::size_t q, const Matrix2 &u);

    /** Apply a two-qubit unitary (basis as in gate_matrices.hpp). */
    void applyMatrix2(std::size_t q0, std::size_t q1, const Matrix4 &u);

    /** Apply one unitary gate. */
    void applyGate(const qc::Gate &gate);

    /** Apply a pre-fused instruction sequence (see sim/fusion.hpp). */
    void applyFused(const std::vector<FusedOp> &ops);

    /** One-qubit depolarising channel with probability p. */
    void depolarize1(std::size_t q, double p);

    /** Two-qubit depolarising channel with probability p. */
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
