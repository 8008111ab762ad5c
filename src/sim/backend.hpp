/**
 * @file
 * The closed vocabulary of simulation backends and the planner's
 * output record.
 *
 * Every engine the runner can dispatch to is an enumerator here, and
 * kAllBackendKinds closes the set the same way the serve protocol
 * closes its wire vocabulary: CLI parsing (`--backend`), the plan
 * records in manifests/serve replies, and the planner tests all
 * iterate the one array, so a backend cannot be added without naming
 * it everywhere at once.
 */

#ifndef SMQ_SIM_BACKEND_HPP
#define SMQ_SIM_BACKEND_HPP

#include <cstddef>
#include <optional>
#include <string>

namespace smq::sim {

/** The execution engines the shot runner can dispatch to. */
enum class BackendKind
{
    /** Let the planner pick the cheapest faithful engine. */
    Auto,
    /** Dense statevector: exact ideal sampling / noise trajectories. */
    Statevector,
    /** Dense density matrix: exact Kraus channels, small widths only. */
    DensityMatrix,
    /** CHP tableau: Clifford circuits at any width, twirled noise. */
    Stabilizer,
    /** Stochastic statevector trajectories (the wide-noisy escape). */
    Trajectory,
};

/** Every backend, Auto included (the `--backend` vocabulary). */
inline constexpr BackendKind kAllBackendKinds[] = {
    BackendKind::Auto,         BackendKind::Statevector,
    BackendKind::DensityMatrix, BackendKind::Stabilizer,
    BackendKind::Trajectory,
};

/** Canonical lower-case token (auto, statevector, density-matrix,
 *  stabilizer, trajectory) — the CLI/wire spelling. */
const char *toString(BackendKind kind);

/** Inverse of toString; nullopt for an unknown token. */
std::optional<BackendKind> backendFromString(const std::string &token);

/** Widest register the dense statevector engine holds (StateVector). */
inline constexpr std::size_t kStatevectorHardCap = 26;

/** Widest register the dense density matrix holds (DensityMatrix). */
inline constexpr std::size_t kDensityMatrixHardCap = 11;

/**
 * Planner knobs. Defaults encode "cheapest faithful": exact density
 * matrices are only chosen while 4^n work beats the trajectory
 * ensemble's (shots / shotsPerTrajectory) * 2^n, which at the default
 * shot budget crosses over near 6 qubits.
 */
struct PlannerConfig
{
    /** Explicit `--backend` override; Auto = plan freely. */
    BackendKind force = BackendKind::Auto;
    /**
     * Widest register the exact density-matrix engine is planned for;
     * noisy terminal circuits above it fall to trajectory sampling.
     * Clamped to kDensityMatrixHardCap.
     */
    std::size_t maxDensityMatrixQubits = 6;
};

/**
 * The planner's decision for one circuit: the chosen engine plus the
 * facts that drove the choice. `token()` is the compact space-free
 * record written into grid caches, checkpoint cells, manifests and
 * serve replies.
 */
struct Plan
{
    BackendKind backend = BackendKind::Statevector;
    bool clifford = false;    ///< every instruction tableau-simulable
    bool midCircuit = false;  ///< outcome-dependent collapse present
    std::size_t width = 0;    ///< qubits after compaction
    /** Short space-free reason tag: "clifford", "exact-noise",
     *  "width>dm-cutoff", "mid-circuit", "ideal", "forced". */
    std::string reason;

    /** "backend:reason", e.g. "trajectory:width>dm-cutoff". */
    std::string token() const
    {
        return std::string(toString(backend)) +
               (reason.empty() ? "" : ":" + reason);
    }
};

} // namespace smq::sim

#endif // SMQ_SIM_BACKEND_HPP
