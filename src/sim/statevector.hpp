/**
 * @file
 * Dense state-vector simulator.
 *
 * This is the execution substrate standing in for the paper's QPUs
 * (the HPCA artifact likewise evaluates the suite through circuit
 * simulation). Supports mid-circuit measurement and RESET — required
 * by the error-correction proxy benchmarks — plus Pauli expectation
 * values for the QAOA/VQE/Hamiltonian-simulation score functions.
 *
 * Qubit q maps to bit q of the amplitude index (qubit 0 is the least
 * significant bit). StateLanes holds several such states side by side
 * for the trajectory engine's lockstep batches, on the same kernels.
 */

#ifndef SMQ_SIM_STATEVECTOR_HPP
#define SMQ_SIM_STATEVECTOR_HPP

#include <complex>
#include <vector>

#include "qc/circuit.hpp"
#include "qc/pauli.hpp"
#include "sim/fusion.hpp"
#include "sim/gate_matrices.hpp"
#include "stats/counts.hpp"
#include "stats/rng.hpp"

namespace smq::sim {

/** A normalised pure state over n qubits. */
class StateVector
{
  public:
    /** |0...0> over @p num_qubits qubits.
     *  @throws std::invalid_argument past kStatevectorHardCap (26). */
    explicit StateVector(std::size_t num_qubits);

    std::size_t numQubits() const { return numQubits_; }
    std::size_t dimension() const { return amps_.size(); }

    const std::vector<Complex> &amplitudes() const { return amps_; }
    Complex amplitude(std::size_t basis_state) const;

    /** Apply a one-qubit matrix to qubit q. */
    void applyMatrix1(std::size_t q, const Matrix2 &m);

    /** Apply a two-qubit matrix (basis |b0 b1>, see gate_matrices). */
    void applyMatrix2(std::size_t q0, std::size_t q1, const Matrix4 &m);

    /**
     * Apply one unitary gate (including CCX / CSWAP, handled as basis
     * permutations). @throws for MEASURE / RESET / BARRIER.
     */
    void applyGate(const qc::Gate &gate);

    /** Apply every unitary gate of a circuit (barriers skipped),
     *  fusing runs of single-qubit gates first (see sim/fusion.hpp).
     *  @throws if the circuit contains MEASURE or RESET. */
    void applyUnitaryCircuit(const qc::Circuit &circuit);

    /** Apply a pre-fused instruction sequence. */
    void applyFused(const std::vector<FusedOp> &ops);

    /** Probability that qubit q reads 1. */
    double probabilityOfOne(std::size_t q) const;

    /**
     * Projectively measure qubit q, collapsing the state.
     * @return the sampled outcome bit.
     */
    int measure(std::size_t q, stats::Rng &rng);

    /**
     * Project qubit q onto the given outcome without sampling:
     * collapse + renormalise as measure() would had it drawn
     * @p outcome, and return that branch's probability. When the
     * branch is impossible (probability 0) the state is left
     * untouched. Used by exact distribution walkers that enumerate
     * both measurement branches.
     */
    double project(std::size_t q, int outcome);

    /** Measure-and-restore-to-|0> (RESET semantics). */
    void reset(std::size_t q, stats::Rng &rng);

    /** Sample a full computational-basis outcome without collapsing. */
    std::size_t sampleBasisState(stats::Rng &rng) const;

    /** Exact probabilities of all basis states. */
    std::vector<double> probabilities() const;

    /** <psi| P |psi> for a phased Pauli string (complex in general). */
    Complex expectation(const qc::PauliString &pauli) const;

    /** <psi| Z_support |psi> (product of Z on the given qubits). */
    double expectationZ(const std::vector<std::size_t> &support) const;

    /** |<other|this>|^2. */
    double fidelityWith(const StateVector &other) const;

    /** L2 norm (should stay 1 up to rounding). */
    double norm() const;

    /** Divide by the norm. @throws if the norm is ~0. */
    void normalize();

  private:
    void checkQubit(std::size_t q) const;

    std::size_t numQubits_;
    std::vector<Complex> amps_;
};

/**
 * One lane's idle thermal-relaxation event on one qubit, as drawn by
 * the trajectory engine from the jump/no-jump unravelling of
 * amplitude damping plus a Pauli-twirled dephasing flip.
 */
struct Relaxation
{
    enum class Damping {
        None,  ///< amplitudes untouched (P(1) was 0, or no damping)
        Decay, ///< no jump: scale |0> by keep0 and |1> by keep1
        Jump,  ///< jump: |1> amplitudes move to |0>, scaled by keep1
    };
    Damping damping = Damping::None;
    double keep0 = 1.0;
    double keep1 = 1.0;
    bool dephase = false; ///< then negate the |1> amplitudes

    /** True when applying the event changes nothing. */
    bool idle() const { return damping == Damping::None && !dephase; }
};

/**
 * Lockstep trajectory lanes: up to maxLanes() pure states of one width
 * in one buffer, lane l at amplitudes [l << n, (l + 1) << n), each laid
 * out exactly like a StateVector. Every kernel is one dispatch over all
 * active lanes; per-lane arguments carry each lane's own stochastic
 * event, drawn by the caller. StateVector runs the same kernels on a
 * single lane, so a lane's amplitudes see the same arithmetic in the
 * same order as a lone StateVector would, whatever its lane or batch.
 *
 * Per-lane arguments are indexed by lane and hold an entry for every
 * active lane. The lanes past the active ones hold only zeros and dead
 * blocks, so activating one costs only what it copies.
 *
 * Each block of 2^min(n, 6) amplitudes (never two lanes' worth) has a
 * liveness flag, set whenever the block may hold a nonzero amplitude;
 * a clear flag means every amplitude of the block is zero. The kernels
 * walk only the pair / quad groups that hold a live block, so a lane
 * that stays near a basis state costs a few blocks per step. Every
 * nonzero amplitude, P(1) and sample is bit-equal to a walk of every
 * amplitude; only the sign of a zero in a skipped block may differ
 * (DESIGN.md §13).
 */
class StateLanes
{
  public:
    /**
     * Room for @p max_lanes lanes of @p num_qubits qubits, budget
     * checked like a StateVector of that many lanes; none active.
     */
    StateLanes(std::size_t num_qubits, std::size_t max_lanes);

    std::size_t maxLanes() const { return amps_.size() >> numQubits_; }

    /** The whole buffer: lane l at [l << n, (l + 1) << n). */
    const std::vector<Complex> &amplitudes() const { return amps_; }

    /**
     * Activate lanes [0, @p lanes), each |0...0>.
     * @throws std::invalid_argument when @p lanes > maxLanes().
     */
    void resetToZero(std::size_t lanes);

    /**
     * Activate one more lane as a copy of active lane @p source (its
     * amplitudes and block flags) and return the new lane's index.
     * @throws std::invalid_argument when @p source is not active or
     *   every lane is.
     */
    std::size_t copyLane(std::size_t source);

    /** Apply one unitary gate to every lane (one apply per lane). */
    void applyGate(const qc::Gate &gate);

    /** Apply *per_lane[l] to qubit q of lane l; nullptr skips it. */
    void applyPerLane(std::size_t q,
                      const std::vector<const Matrix2 *> &per_lane);

    /** out[l] = probability that qubit q of lane l reads 1. */
    void probabilitiesOfOne(std::size_t q, std::vector<double> &out) const;

    /**
     * Collapse qubit q of lane l onto outcomes[l], renormalising from
     * that lane's P(1) p1[l] exactly as StateVector::measure does.
     */
    void collapse(std::size_t q, const std::vector<int> &outcomes,
                  const std::vector<double> &p1);

    /** Apply events[l] to qubit q of lane l. */
    void relax(std::size_t q, const std::vector<Relaxation> &events);

    /**
     * relax(q, events), and in the same pass p1[l] = probability that
     * qubit @p next of lane l reads 1 afterwards, bit-equal to
     * probabilitiesOfOne(next) after the relax. Returns false, walking
     * nothing and leaving the values of @p p1 alone, when every event
     * is a no-op.
     */
    bool relax(std::size_t q, const std::vector<Relaxation> &events,
               std::size_t next, std::vector<double> &p1);

    /** StateVector::sampleBasisState on lane @p lane. */
    std::size_t sampleBasisState(std::size_t lane, stats::Rng &rng) const;

  private:
    std::size_t numQubits_;
    std::size_t lanes_ = 0;
    std::vector<Complex> amps_;
    /** live_[k]: block k (amplitudes [k << b, (k + 1) << b)) is live. */
    std::vector<unsigned char> live_;
    std::vector<double> scales_; ///< collapse's per-lane scales
};

/**
 * A terminal-measurement circuit split for the exact engines. The
 * body holds every instruction but MEASURE, barriers included (they
 * shape the noisy schedule); clbitSource[c] is the qubit measured
 * into classical bit c, or -1 when none is.
 */
struct TerminalSplit
{
    qc::Circuit body;
    std::vector<std::ptrdiff_t> clbitSource;
};

/**
 * Split @p circuit at its measurements. A barrier never counts as
 * touching a measured qubit, as in hasMidCircuitOperations.
 * @throws std::invalid_argument on a RESET, or on a gate that acts on
 *   an already-measured qubit.
 */
TerminalSplit splitTerminal(const qc::Circuit &circuit);

/**
 * The distribution over classical bits of the basis-state
 * probabilities @p probs, bit c reading qubit clbit_source[c] (always
 * 0 when that is -1). States below 1e-15 are dropped.
 */
stats::Distribution
clbitDistribution(const std::vector<double> &probs,
                  const std::vector<std::ptrdiff_t> &clbit_source);

/**
 * Exact output distribution over the circuit's classical bits under
 * noiseless execution, assuming measurements are terminal (see
 * splitTerminal). Used for ideal reference distributions.
 * @throws if a measurement is not terminal.
 */
stats::Distribution
idealDistribution(const qc::Circuit &circuit);

/**
 * Apply all unitary gates of a circuit (must contain no MEASURE or
 * RESET) and return the final state.
 */
StateVector finalState(const qc::Circuit &circuit);

} // namespace smq::sim

#endif // SMQ_SIM_STATEVECTOR_HPP
