#include "sim/planner.hpp"

#include <algorithm>

#include "sim/memory.hpp"
#include "sim/runner.hpp"
#include "sim/stabilizer.hpp"

namespace smq::sim {

namespace {

const char *
backendToken(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Auto:
        return "auto";
      case BackendKind::Statevector:
        return "statevector";
      case BackendKind::DensityMatrix:
        return "density-matrix";
      case BackendKind::Stabilizer:
        return "stabilizer";
      case BackendKind::Trajectory:
        return "trajectory";
    }
    return "auto";
}

/** Would a dense statevector of this width fit the memory budget? */
bool
statevectorFits(std::size_t width)
{
    if (width > kStatevectorHardCap)
        return false;
    return denseBytes(width, 2 * sizeof(double), false) <=
           memoryBudgetBytes();
}

} // namespace

const char *
toString(BackendKind kind)
{
    return backendToken(kind);
}

std::optional<BackendKind>
backendFromString(const std::string &token)
{
    for (BackendKind kind : kAllBackendKinds) {
        if (token == backendToken(kind))
            return kind;
    }
    return std::nullopt;
}

Plan
planCircuit(const qc::Circuit &circuit, const NoiseModel &noise,
            const PlannerConfig &config)
{
    Plan plan;
    plan.width = circuit.numQubits();
    plan.clifford = isCliffordCircuit(circuit);
    plan.midCircuit = hasMidCircuitOperations(circuit);

    if (config.force != BackendKind::Auto) {
        plan.backend = config.force;
        plan.reason = "forced";
        return plan;
    }

    const std::size_t dm_cutoff =
        std::min(config.maxDensityMatrixQubits, kDensityMatrixHardCap);

    if (plan.clifford) {
        // Small, noiseless, terminal Clifford circuits are cheapest
        // through exact ideal sampling (one dense pass, then
        // multinomial draws); everything else Clifford scales on the
        // tableau — including every noisy case, where the twirled
        // noise channel keeps shots polynomial at any width.
        if (!noise.enabled && !plan.midCircuit &&
            statevectorFits(plan.width)) {
            plan.backend = BackendKind::Statevector;
            plan.reason = "ideal";
            return plan;
        }
        plan.backend = BackendKind::Stabilizer;
        plan.reason = "clifford";
        return plan;
    }

    if (plan.midCircuit) {
        // Outcome-dependent collapse: one statevector trajectory per
        // shot is the only faithful engine we have.
        plan.backend = BackendKind::Trajectory;
        plan.reason = "mid-circuit";
        return plan;
    }

    if (!noise.enabled) {
        plan.backend = BackendKind::Statevector;
        plan.reason = "ideal";
        return plan;
    }

    // Noisy, terminal, non-Clifford: exact Kraus channels while the
    // 4^n density matrix stays cheaper than the trajectory ensemble,
    // stochastic trajectories beyond the cutoff.
    if (plan.width <= dm_cutoff) {
        plan.backend = BackendKind::DensityMatrix;
        plan.reason = "exact-noise";
        return plan;
    }
    plan.backend = BackendKind::Trajectory;
    plan.reason = "width>dm-cutoff";
    return plan;
}

} // namespace smq::sim
