/**
 * @file
 * NISQ noise modelling.
 *
 * The paper evaluates its suite on real QPUs whose dominant error
 * sources are (Table II): imperfect 1q/2q gates, measurement error,
 * and decoherence of idling qubits relative to T1/T2. NoiseModel
 * carries exactly those parameters, and noisySteps is where the policy
 * that places them lives: the trajectory runner (runner.hpp), the
 * density matrix and the stabilizer only interpret its steps.
 *
 * Channels:
 *  - depolarising after each 1q or 2q gate on the gate's qubits,
 *  - thermal relaxation (amplitude damping toward |0> with rate 1/T1,
 *    pure dephasing with rate 1/Tphi = 1/T2 - 1/(2 T1)) on idle qubits
 *    for each scheduled moment's duration,
 *  - classical bit-flip on each measurement outcome,
 *  - imperfect RESET (residual excitation).
 */

#ifndef SMQ_SIM_NOISE_HPP
#define SMQ_SIM_NOISE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "qc/circuit.hpp"
#include "stats/rng.hpp"

namespace smq::sim {

/** One idle window's worth of decoherence, as channel probabilities. */
struct IdleChannel
{
    double damp = 0.0;    ///< amplitude-damping probability
    double dephase = 0.0; ///< Pauli-twirled phase-flip probability
};

/** Device-level noise parameters (times in microseconds). */
struct NoiseModel
{
    bool enabled = false;

    double p1 = 0.0;     ///< 1q gate depolarising probability
    double p2 = 0.0;     ///< 2q gate depolarising probability
    double pMeas = 0.0;  ///< measurement bit-flip probability
    double pReset = 0.0; ///< residual |1> population after RESET

    double t1 = 1e9;    ///< amplitude-damping time constant (us)
    double t2 = 1e9;    ///< dephasing time constant (us)

    double time1q = 0.0;   ///< 1q gate duration (us)
    double time2q = 0.0;   ///< 2q gate duration (us)
    double timeMeas = 0.0; ///< measurement/reset duration (us)

    /** A noiseless model. */
    static NoiseModel ideal() { return NoiseModel{}; }

    /**
     * Uniform scaling of all error probabilities and time/coherence
     * ratios by @p factor (used by the artifact-style noise sweep).
     */
    NoiseModel scaled(double factor) const;

    /** Pure dephasing rate 1/Tphi derived from T1/T2 (>= 0). */
    double dephasingRate() const;

    /**
     * Idle decoherence over @p dt us: damping 1 - e^{-dt/T1} and the
     * twirled phase flip (1 - e^{-dt/Tphi}) / 2. Every engine gets its
     * idle channel from here, through noisySteps.
     */
    IdleChannel idleChannel(double dt) const;
};

/** One step of a noisy execution; see noisySteps. */
struct NoisyStep
{
    enum class Kind : std::uint8_t {
        Gate,    ///< a unitary instruction
        Measure, ///< p: readout-flip probability
        Reset,   ///< p: residual-excitation probability
        Pauli1,  ///< a Pauli error on q0 with probability p
        Pauli2,  ///< a two-qubit Pauli error with probability p
        Idle,    ///< relaxation of idle qubit q0 over one moment
    };

    Kind kind = Kind::Gate;
    /** Idle: no instruction has touched q0 yet, so it is still |0>. */
    bool untouched = false;
    /** Idle: the moment; else the instruction's circuit.gates() index
     *  (a gate error's: the gate it follows). */
    std::uint32_t index = 0;
    qc::Qubit q0 = 0; ///< the qubit (a Pauli2's first)
    qc::Qubit q1 = 0; ///< a Pauli2's second qubit (a Pauli1's is q0)
    double p = 0.0;
};

/** A circuit's noisy steps, and each moment's idle channel. */
struct NoisySteps
{
    std::vector<NoisyStep> steps;
    std::vector<IdleChannel> idle; ///< idle[m]: moment m's channel
};

/**
 * @p circuit under @p noise as steps, per qc::schedule moment: each
 * instruction, then its gate error (1q and 2q gates only; none of
 * probability 0), then an Idle step for each qubit the moment leaves
 * idle, in ascending order. A moment lasts as long as its longest
 * instruction (timeMeas for MEASURE/RESET, time2q for >= 2 qubits,
 * time1q otherwise); a disabled model idles nothing.
 */
NoisySteps noisySteps(const qc::Circuit &circuit, const NoiseModel &noise);

/**
 * Draw a Pauli1/Pauli2 step's error: bernoulli(p), then index(3) + 1
 * or index(15) + 1. 0 is no error; else code / 4 is the Pauli on q0
 * and code % 4 the one on q1, each 0..3 for I, X, Y, Z.
 */
std::size_t drawPauli(const NoisyStep &step, stats::Rng &rng);

} // namespace smq::sim

#endif // SMQ_SIM_NOISE_HPP
