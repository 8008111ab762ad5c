/**
 * @file
 * The backend planner: inspect a circuit and pick the cheapest engine
 * that still reproduces the requested semantics faithfully.
 *
 * The paper's scalability principle needs one grid to span toy widths
 * and device-scale widths; hard-wiring the dense engine makes every
 * cell pay the most expensive backend. planCircuit() is a pure
 * function of (circuit, noise model, config) — no clocks, no globals —
 * so the same plan is recorded at prepare time (for manifests, grid
 * caches and serve replies) and re-derived at execution time, and the
 * decision is byte-stable across --jobs values and kill/resume cycles.
 *
 * Policy, in order:
 *   - an explicit `force` override wins (reason "forced"); forcing the
 *     stabilizer engine onto a non-Clifford circuit is rejected at
 *     execution, and forcing the density matrix past its hard cap
 *     raises ResourceExhausted (a structured TooLarge cell).
 *   - Clifford circuits take the tableau unless they are small,
 *     noiseless and terminal, where exact ideal sampling is cheaper.
 *   - noiseless terminal circuits sample the exact distribution
 *     (statevector); mid-circuit collapse forces trajectories.
 *   - noisy terminal circuits get the exact density matrix up to
 *     config.maxDensityMatrixQubits and trajectories beyond it.
 */

#ifndef SMQ_SIM_PLANNER_HPP
#define SMQ_SIM_PLANNER_HPP

#include "qc/circuit.hpp"
#include "sim/backend.hpp"
#include "sim/noise.hpp"

namespace smq::sim {

/**
 * Choose the backend for one circuit under one noise model. Pure and
 * deterministic; never allocates simulator state.
 */
Plan planCircuit(const qc::Circuit &circuit, const NoiseModel &noise,
                 const PlannerConfig &config = {});

} // namespace smq::sim

#endif // SMQ_SIM_PLANNER_HPP
