/**
 * @file
 * Shot execution of circuits under a noise model.
 *
 * The runner stands in for a cloud QPU: it takes a (transpiled)
 * circuit, executes the requested number of shots under the device's
 * NoiseModel, and returns a histogram over the classical bits, just
 * as the paper's benchmark harness receives counts from hardware.
 *
 * run() is a dispatcher over pluggable backends (sim/backend.hpp):
 * exact ideal sampling and noise trajectories on the statevector,
 * exact Kraus channels on the density matrix, and the CHP tableau for
 * Clifford circuits. The planner (sim/planner.hpp) picks the cheapest
 * faithful engine per circuit, unless options.planner.force names one.
 *
 * Every noisy engine interprets the same noisySteps list
 * (sim/noise.hpp). Trajectories draw its Pauli errors, unravel idle
 * relaxation into jump/no-jump events and flip readouts. Circuits
 * whose measurements are all terminal amortise several shots per
 * trajectory; mid-circuit measurement / RESET (the error-correction
 * benchmarks) force one trajectory per shot because the collapse is
 * outcome-dependent. Each trajectory draws from its own
 * deriveTaskSeed-derived stream, so a truncated run's histogram is an
 * exact prefix of the full run's. Trajectories run in lockstep
 * batches of up to 256 lanes (fewer from width 7 up, so a batch's
 * states fit 2^14 amplitudes), one kernel per step for the whole
 * batch. Lanes whose draws have agreed so far share one state
 * (StateLanes lane), so a step walks each distinct state once; a lane
 * reproduces its lone trajectory exactly.
 */

#ifndef SMQ_SIM_RUNNER_HPP
#define SMQ_SIM_RUNNER_HPP

#include <cstdint>
#include <functional>

#include "qc/circuit.hpp"
#include "sim/backend.hpp"
#include "sim/noise.hpp"
#include "stats/counts.hpp"
#include "stats/rng.hpp"

namespace smq::sim {

/**
 * Service-fault hook standing in for execution-side interruptions
 * (a cloud job killed mid-run). Consulted between shot batches with
 * the number of shots already recorded; returning true stops the run,
 * which then reports the partial histogram accumulated so far. The
 * jobs layer uses this to model shot truncation deterministically.
 * The hook must be a function of its argument: the trajectory engine
 * asks it about every trajectory of a lockstep batch, in order, before
 * running the batch.
 */
using FaultHook = std::function<bool(std::uint64_t shotsDone)>;

/** Execution options for the shot runner. */
struct RunOptions
{
    std::uint64_t shots = 1000;
    NoiseModel noise = NoiseModel::ideal();
    /**
     * For terminal-measurement circuits, how many shots to draw from
     * each stochastic trajectory (1 = fully independent shots).
     */
    std::uint64_t shotsPerTrajectory = 20;
    /** Optional mid-execution interruption (empty = never fires). */
    FaultHook faultHook;
    /** The planner's knobs; planner.force forces an engine. */
    PlannerConfig planner;
};

/**
 * True if the circuit contains an operation that forces
 * outcome-dependent collapse: a RESET, or a gate acting on an
 * already-measured qubit, *before the last MEASURE*. Trailing
 * non-operational ops — barriers, resets, or unitaries after the
 * final measurement — cannot influence any recorded bit and do not
 * count, so a trailing MEASURE-then-BARRIER (or cleanup RESET) keeps
 * the terminal fast path.
 */
bool hasMidCircuitOperations(const qc::Circuit &circuit);

/**
 * Execute @p circuit for options.shots shots and return the histogram
 * over its classical bits. Exact shot accounting: the histogram holds
 * exactly options.shots entries, or fewer only when options.faultHook
 * fired (never more, regardless of shotsPerTrajectory batching).
 *
 * @throws std::invalid_argument when the circuit measures zero
 *   classical bits or options.shots == 0 (an empty histogram would
 *   poison every downstream score with silent NaNs), or when a forced
 *   backend cannot represent the circuit (stabilizer on non-Clifford,
 *   density matrix / ideal sampling on mid-circuit collapse).
 * @throws ResourceExhausted when the chosen dense engine exceeds the
 *   memory budget (jobs layer reports the cell TooLarge).
 */
stats::Counts run(const qc::Circuit &circuit, const RunOptions &options,
                  stats::Rng &rng);

} // namespace smq::sim

#endif // SMQ_SIM_RUNNER_HPP
