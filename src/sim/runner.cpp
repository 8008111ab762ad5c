#include "sim/runner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "sim/density_matrix.hpp"
#include "sim/kernels.hpp"
#include "sim/memory.hpp"
#include "sim/planner.hpp"
#include "sim/stabilizer.hpp"
#include "sim/statevector.hpp"
#include "util/thread_pool.hpp"

namespace smq::sim {

namespace {

/** Bump the sim.plan.* counter for one dispatched circuit. */
void
countPlan(const Plan &plan, bool forced)
{
    const char *name = nullptr;
    switch (plan.backend) {
      case BackendKind::Statevector:
        name = obs::names::kSimPlanStatevector;
        break;
      case BackendKind::DensityMatrix:
        name = obs::names::kSimPlanDensityMatrix;
        break;
      case BackendKind::Stabilizer:
        name = obs::names::kSimPlanStabilizer;
        break;
      case BackendKind::Trajectory:
        name = obs::names::kSimPlanTrajectory;
        break;
      case BackendKind::Auto:
        break; // planCircuit never returns Auto
    }
    if (name != nullptr)
        obs::counter(name).add();
    if (forced)
        obs::counter(obs::names::kSimPlanOverridden).add();
}

/** A trajectory batch holds at most this many lanes. */
constexpr std::size_t kMaxLanes = 16;

/**
 * Lanes per batch at @p width: at most kMaxLanes, which bounds the
 * per-lane rng state, and lanes x 2^width <= kReduceGrain, which keeps
 * a batch small and each lane's P(1) one reduce chunk. Widths >= 14
 * run one lane.
 */
std::size_t
laneCap(std::size_t width)
{
    const std::size_t fit = width < 64 ? kernels::kReduceGrain >> width : 0;
    return std::clamp<std::size_t>(fit, 1, kMaxLanes);
}

/** Count one batch of @p lanes stochastic trajectories. */
void
countBatch(std::size_t lanes)
{
    static obs::Counter &trajectories =
        obs::counter(obs::names::kSimTrajectories);
    static obs::Counter &batches =
        obs::counter(obs::names::kSimTrajectoryBatches);
    trajectories.add(lanes);
    batches.add();
}

/** Pauli k of (I, X, Y, Z) as a matrix; nullptr for the identity. */
const Matrix2 *
pauli(std::size_t k)
{
    static const Matrix2 paulis[3] = {
        gateMatrix1(qc::Gate(qc::GateType::X, {0})),
        gateMatrix1(qc::Gate(qc::GateType::Y, {0})),
        gateMatrix1(qc::Gate(qc::GateType::Z, {0})),
    };
    return k == 0 ? nullptr : &paulis[k - 1];
}

/**
 * Draw one lane's idle thermal relaxation on a qubit whose P(1) is
 * @p p1 (read only when idle.damp > 0): amplitude damping as an exact
 * jump/no-jump unravelling, then a Pauli-twirled dephasing flip.
 */
Relaxation
drawRelaxation(const IdleChannel &idle, double p1, stats::Rng &rng)
{
    Relaxation ev;
    if (idle.damp > 0.0 && p1 > 0.0) {
        if (rng.bernoulli(idle.damp * p1)) {
            // jump |1> -> |0>, renormalised by sqrt(p1)
            ev.damping = Relaxation::Damping::Jump;
            ev.keep1 = 1.0 / std::sqrt(p1);
        } else {
            // no-jump Kraus diag(1, sqrt(1 - damp)), renormalised by
            // the branch probability sqrt(1 - damp * p1)
            const double renorm = std::sqrt(1.0 - idle.damp * p1);
            ev.damping = Relaxation::Damping::Decay;
            ev.keep0 = 1.0 / renorm;
            ev.keep1 = std::sqrt(1.0 - idle.damp) / renorm;
        }
    }
    ev.dephase = idle.dephase > 0.0 && rng.bernoulli(idle.dephase);
    return ev;
}

/**
 * One batch of lockstep trajectories through a circuit's noisy steps.
 * Lane l runs the trajectory whose stream is rngs[l]: each of its
 * stochastic events is drawn from rngs[l] in the order a lone
 * trajectory draws it and applied only to the lanes it hits, so every
 * lane reproduces its lone trajectory exactly. Every step is one
 * kernel over all lanes, and a touched idle step's relax also sums the
 * P(1) the next step reads (see sumAfter_).
 */
class LaneBatch
{
  public:
    LaneBatch(const qc::Circuit &circuit, const NoiseModel &noise,
              StateLanes &state)
        : circuit_(circuit), plan_(noisySteps(circuit, noise)),
          state_(state), sumAfter_(plan_.steps.size(), kNone)
    {
        const std::vector<NoisyStep> &steps = plan_.steps;
        auto readsP1 = [&](const NoisyStep &s) {
            switch (s.kind) {
              case NoisyStep::Kind::Measure:
              case NoisyStep::Kind::Reset:
                return true;
              case NoisyStep::Kind::Idle:
                return !s.untouched && plan_.idle[s.index].damp > 0.0;
              default:
                return false;
            }
        };
        for (std::size_t i = 0; i < steps.size(); ++i) {
            if (steps[i].kind != NoisyStep::Kind::Idle || steps[i].untouched)
                continue;
            // An untouched idle step neither reads P(1) nor moves an
            // amplitude, so the sum may reach past it.
            std::size_t j = i + 1;
            while (j < steps.size() &&
                   steps[j].kind == NoisyStep::Kind::Idle &&
                   steps[j].untouched)
                ++j;
            if (j < steps.size() && readsP1(steps[j]))
                sumAfter_[i] = j;
        }
    }

    /** Run one lane per stream of @p rngs; clbits()[l] is lane l's. */
    void
    run(std::vector<stats::Rng> &rngs)
    {
        const std::size_t lanes = rngs.size();
        state_.resetToZero(lanes);
        clbits_.assign(lanes, std::string(circuit_.numClbits(), '0'));
        p1_.assign(lanes, 0.0);
        outcome_.assign(lanes, 0);
        first_.assign(lanes, nullptr);
        second_.assign(lanes, nullptr);
        relax_.assign(lanes, Relaxation{});
        p1For_ = kNone;
        for (std::size_t i = 0; i < plan_.steps.size(); ++i)
            step(i, rngs);
    }

    const std::vector<std::string> &clbits() const { return clbits_; }

  private:
    static constexpr std::size_t kNone = ~std::size_t{0};

    /** p1_ = each lane's P(1) of step @p i's qubit, unless summed. */
    void
    loadP1(std::size_t i)
    {
        if (p1For_ != i)
            state_.probabilitiesOfOne(plan_.steps[i].q0, p1_);
    }

    /** Noisy step @p i on every lane. */
    void
    step(std::size_t i, std::vector<stats::Rng> &rngs)
    {
        const NoisyStep &s = plan_.steps[i];
        const std::size_t lanes = rngs.size();
        switch (s.kind) {
          case NoisyStep::Kind::Gate:
            state_.applyGate(circuit_.gates()[s.index]);
            return;
          case NoisyStep::Kind::Measure: {
            const auto cbit =
                static_cast<std::size_t>(circuit_.gates()[s.index].cbit);
            loadP1(i);
            for (std::size_t l = 0; l < lanes; ++l) {
                outcome_[l] = rngs[l].bernoulli(p1_[l]) ? 1 : 0;
                const bool flip = rngs[l].bernoulli(s.p);
                clbits_[l][cbit] = (outcome_[l] == 1) != flip ? '1' : '0';
            }
            state_.collapse(s.q0, outcome_, p1_);
            return;
          }
          case NoisyStep::Kind::Reset:
            // Measure, flip a 1 back to |0>, then the residual
            // excitation of an imperfect reset.
            loadP1(i);
            for (std::size_t l = 0; l < lanes; ++l) {
                outcome_[l] = rngs[l].bernoulli(p1_[l]) ? 1 : 0;
                first_[l] = outcome_[l] == 1 ? pauli(1) : nullptr;
                second_[l] = rngs[l].bernoulli(s.p) ? pauli(1) : nullptr;
            }
            state_.collapse(s.q0, outcome_, p1_);
            state_.applyPerLane(s.q0, first_);
            state_.applyPerLane(s.q0, second_);
            return;
          case NoisyStep::Kind::Pauli1:
          case NoisyStep::Kind::Pauli2:
            for (std::size_t l = 0; l < lanes; ++l) {
                const std::size_t code = drawPauli(s, rngs[l]);
                first_[l] = pauli(code / 4);
                second_[l] = pauli(code % 4);
            }
            state_.applyPerLane(s.q0, first_);
            state_.applyPerLane(s.q1, second_);
            return;
          case NoisyStep::Kind::Idle: {
            const IdleChannel &idle = plan_.idle[s.index];
            if (s.untouched) {
                // Still |0> in every lane: P(1) is exactly 0 and the
                // event can only flip the sign of a zero amplitude,
                // so draw it and skip both passes.
                for (std::size_t l = 0; l < lanes; ++l)
                    drawRelaxation(idle, 0.0, rngs[l]);
                return;
            }
            if (idle.damp > 0.0)
                loadP1(i);
            for (std::size_t l = 0; l < lanes; ++l)
                relax_[l] = drawRelaxation(idle, p1_[l], rngs[l]);
            // The events are drawn: p1_ may now take the next step's
            // P(1), summed in the relax pass. When every event is a
            // no-op nothing is walked, and that step sums its own.
            const std::size_t next = sumAfter_[i];
            if (next == kNone)
                state_.relax(s.q0, relax_);
            else if (state_.relax(s.q0, relax_, plan_.steps[next].q0, p1_))
                p1For_ = next;
            return;
          }
        }
    }

    const qc::Circuit &circuit_;
    const NoisySteps plan_;
    StateLanes &state_;
    std::vector<std::string> clbits_;
    // Per-lane working arrays, reused across steps.
    std::vector<double> p1_;
    std::vector<int> outcome_;
    std::vector<const Matrix2 *> first_;
    std::vector<const Matrix2 *> second_;
    std::vector<Relaxation> relax_;
    /**
     * sumAfter_[i]: for a touched idle step, the next step that reads a
     * P(1) (a measure, a reset, or a touched idle step that damps)
     * when only untouched idle steps lie between them; else kNone.
     */
    std::vector<std::size_t> sumAfter_;
    /** The step whose P(1) p1_ already holds; kNone if none. */
    std::size_t p1For_ = kNone;
};

/** Index of the last MEASURE instruction; gates().size() if none. */
std::size_t
lastMeasureIndex(const qc::Circuit &circuit)
{
    const auto &gates = circuit.gates();
    for (std::size_t i = gates.size(); i-- > 0;) {
        if (gates[i].type == qc::GateType::MEASURE)
            return i;
    }
    return gates.size();
}

/**
 * The circuit with its non-operational tail removed: everything after
 * the last MEASURE (cleanup RESETs, barriers, uncomputation gates)
 * cannot influence a recorded bit, and would trip the exact engines'
 * terminal-measurement validation if left in place.
 * @pre circuit.measureCount() > 0.
 */
qc::Circuit
terminalCore(const qc::Circuit &circuit)
{
    const auto &gates = circuit.gates();
    const std::size_t last = lastMeasureIndex(circuit);
    if (last + 1 == gates.size())
        return circuit;
    qc::Circuit core(circuit.numQubits(), circuit.numClbits(),
                     circuit.name());
    for (std::size_t i = 0; i <= last; ++i)
        core.append(gates[i]);
    return core;
}

/**
 * Sample @p shots outcomes from an exact distribution, honouring the
 * fault hook between 256-shot batches. Shot-exact: never overshoots.
 */
stats::Counts
sampleDistribution(stats::Distribution &dist, const RunOptions &options,
                   stats::Rng &rng)
{
    if (!options.faultHook)
        return dist.sample(options.shots, rng);
    stats::Counts counts;
    std::uint64_t done = 0;
    while (done < options.shots && !options.faultHook(done)) {
        std::uint64_t batch =
            std::min<std::uint64_t>(256, options.shots - done);
        counts.merge(dist.sample(batch, rng));
        done += batch;
    }
    return counts;
}

/** Noiseless terminal circuits: sample the exact distribution. */
stats::Counts
runIdealSampling(const qc::Circuit &core, const RunOptions &options,
                 stats::Rng &rng)
{
    stats::Distribution ideal = idealDistribution(core);
    return sampleDistribution(ideal, options, rng);
}

/** Exact Kraus channels on the density matrix, then sampling. */
stats::Counts
runDensityMatrixSampling(const qc::Circuit &core,
                         const RunOptions &options, stats::Rng &rng)
{
    const std::size_t width = core.numQubits();
    if (width > kDensityMatrixHardCap) {
        // A structured TooLarge outcome, not a usage error: the jobs
        // layer turns ResourceExhausted into Fig. 2's X marker.
        throw ResourceExhausted(
            "density_matrix(" + std::to_string(width) +
                " qubits) exceeds the exact engine's hard cap of " +
                std::to_string(kDensityMatrixHardCap) +
                " qubits (trajectory sampling covers wider registers)",
            denseBytes(width, 2 * sizeof(double), true),
            memoryBudgetBytes());
    }
    stats::Distribution dist = noisyDistribution(core, options.noise);
    return sampleDistribution(dist, options, rng);
}


/**
 * Stochastic statevector trajectories, run in lockstep batches of up
 * to laneCap(width) lanes. Mid-circuit collapse runs one trajectory
 * per shot over the full circuit; terminal circuits amortise
 * shotsPerTrajectory shots per trajectory by splitting at the
 * measurement boundary. Trajectory t draws from its own stream
 * deriveTaskSeed(base, t), base being one draw on the caller's rng,
 * so a lane reproduces its lone trajectory whatever the batching, and
 * a hook-truncated histogram is an exact prefix of the full run's.
 */
stats::Counts
runTrajectories(const qc::Circuit &circuit, const RunOptions &options,
                stats::Rng &rng, bool mid_circuit)
{
    const std::uint64_t base = rng.engine()();

    // Terminal measurements: measurement collapse order does not
    // matter, so the pre-measurement state of each trajectory is
    // sampled repeatedly. The core excludes the non-operational tail —
    // a trailing gate on a measured qubit must not perturb the sampled
    // distribution.
    std::uint64_t per_traj = 1;
    TerminalSplit terminal;
    if (!mid_circuit) {
        per_traj = std::max<std::uint64_t>(
            1, std::min(options.shotsPerTrajectory, options.shots));
        terminal = splitTerminal(terminalCore(circuit));
    }
    const std::vector<std::ptrdiff_t> &clbit_source = terminal.clbitSource;

    const std::uint64_t trajectories =
        (options.shots + per_traj - 1) / per_traj;
    StateLanes state(circuit.numQubits(),
                     static_cast<std::size_t>(std::min<std::uint64_t>(
                         trajectories, laneCap(circuit.numQubits()))));
    LaneBatch batch(mid_circuit ? circuit : terminal.body, options.noise,
                    state);
    std::vector<stats::Rng> rngs;
    rngs.reserve(state.maxLanes());
    std::vector<std::uint64_t> lane_shots;
    stats::Counts counts;
    std::uint64_t assigned = 0;
    std::uint64_t next = 0;
    bool stopped = false;
    while (!stopped && assigned < options.shots) {
        // Fill the batch, consulting the hook with the shot count each
        // trajectory starts from, exactly as a one-at-a-time loop
        // would. Clamp the final trajectory: the histogram must hold
        // exactly options.shots entries, never a shotsPerTrajectory
        // overshoot.
        rngs.clear();
        lane_shots.clear();
        while (rngs.size() < state.maxLanes() && assigned < options.shots) {
            if (options.faultHook && options.faultHook(assigned)) {
                stopped = true;
                break;
            }
            const std::uint64_t take =
                std::min(per_traj, options.shots - assigned);
            assigned += take;
            lane_shots.push_back(take);
            rngs.emplace_back(util::deriveTaskSeed(base, next++));
        }
        if (rngs.empty())
            break;
        countBatch(rngs.size());
        batch.run(rngs);
        for (std::size_t l = 0; l < rngs.size(); ++l) {
            if (mid_circuit) {
                counts.add(batch.clbits()[l]);
                continue;
            }
            // Note: measurement-time idle noise for the terminal moment
            // is captured by the readout error probability itself.
            for (std::uint64_t b = 0; b < lane_shots[l]; ++b) {
                std::size_t basis = state.sampleBasisState(l, rngs[l]);
                std::string clbits(circuit.numClbits(), '0');
                for (std::size_t c = 0; c < clbits.size(); ++c) {
                    if (clbit_source[c] < 0)
                        continue;
                    int bit = static_cast<int>(
                        (basis >> static_cast<std::size_t>(clbit_source[c])) &
                        1);
                    if (options.noise.enabled &&
                        rngs[l].bernoulli(options.noise.pMeas)) {
                        bit ^= 1;
                    }
                    clbits[c] = bit ? '1' : '0';
                }
                counts.add(clbits);
            }
        }
    }
    return counts;
}

} // namespace

bool
hasMidCircuitOperations(const qc::Circuit &circuit)
{
    const auto &gates = circuit.gates();
    // Only operations up to the last MEASURE can influence a recorded
    // bit: scan that prefix and ignore the non-operational tail.
    const std::size_t last_measure = lastMeasureIndex(circuit);
    if (last_measure == gates.size())
        return false; // no measurement at all: nothing to collapse into

    std::vector<bool> finalized(circuit.numQubits(), false);
    for (std::size_t i = 0; i <= last_measure; ++i) {
        const qc::Gate &g = gates[i];
        if (g.type == qc::GateType::BARRIER)
            continue;
        if (g.type == qc::GateType::RESET)
            return true;
        if (g.type == qc::GateType::MEASURE) {
            finalized[g.qubits[0]] = true;
            continue;
        }
        for (qc::Qubit q : g.qubits) {
            if (finalized[q])
                return true;
        }
    }
    return false;
}

stats::Counts
run(const qc::Circuit &circuit, const RunOptions &options, stats::Rng &rng)
{
    if (circuit.measureCount() == 0)
        throw std::invalid_argument(
            "run: circuit '" + circuit.name() +
            "' measures no classical bits; scores would be undefined");
    if (options.shots == 0)
        throw std::invalid_argument(
            "run: shots == 0 for circuit '" + circuit.name() + "'");

    {
        static obs::Counter &shots_counter =
            obs::counter(obs::names::kSimShots);
        shots_counter.add(options.shots);
    }

    const Plan plan = planCircuit(circuit, options.noise, options.planner);
    countPlan(plan, options.planner.force != BackendKind::Auto);

    switch (plan.backend) {
      case BackendKind::Stabilizer:
        // The tableau engine handles mid-circuit collapse natively
        // and validates Clifford-ness itself (a forced stabilizer on
        // a non-Clifford circuit is a usage error).
        return runStabilizer(circuit, options, rng);

      case BackendKind::DensityMatrix:
        return runDensityMatrixSampling(terminalCore(circuit), options,
                                        rng);

      case BackendKind::Statevector:
        if (!options.noise.enabled && !plan.midCircuit)
            return runIdealSampling(terminalCore(circuit), options, rng);
        // A forced statevector under noise (or collapse) falls through
        // to its trajectory unravelling — same substrate, stochastic
        // channels.
        return runTrajectories(circuit, options, rng, plan.midCircuit);

      case BackendKind::Trajectory:
        return runTrajectories(circuit, options, rng, plan.midCircuit);

      case BackendKind::Auto:
        break; // planCircuit never returns Auto
    }
    throw std::logic_error("run: planner returned no backend");
}

} // namespace smq::sim
