#include "sim/noise.hpp"

#include <algorithm>
#include <cmath>

#include "qc/schedule.hpp"

namespace smq::sim {

NoiseModel
NoiseModel::scaled(double factor) const
{
    NoiseModel out = *this;
    auto clamp01 = [](double p) { return std::clamp(p, 0.0, 1.0); };
    out.p1 = clamp01(p1 * factor);
    out.p2 = clamp01(p2 * factor);
    out.pMeas = clamp01(pMeas * factor);
    out.pReset = clamp01(pReset * factor);
    if (factor > 0.0) {
        out.t1 = t1 / factor;
        out.t2 = t2 / factor;
    } else {
        out.t1 = 1e9;
        out.t2 = 1e9;
    }
    out.enabled = enabled && factor > 0.0;
    return out;
}

double
NoiseModel::dephasingRate() const
{
    if (t2 <= 0.0)
        return 0.0;
    double rate = 1.0 / t2 - 1.0 / (2.0 * t1);
    return std::max(rate, 0.0);
}

IdleChannel
NoiseModel::idleChannel(double dt) const
{
    IdleChannel idle;
    if (t1 > 0.0 && dt > 0.0)
        idle.damp = 1.0 - std::exp(-dt / t1);
    // Pauli-twirled pure dephasing: Z flip with prob (1 - e^{-t/Tphi})/2
    const double rate = dephasingRate();
    if (rate > 0.0 && dt > 0.0)
        idle.dephase = 0.5 * (1.0 - std::exp(-dt * rate));
    return idle;
}

NoisySteps
noisySteps(const qc::Circuit &circuit, const NoiseModel &noise)
{
    using Kind = NoisyStep::Kind;
    // A disabled model places no noise: every time and rate is 0.
    const NoiseModel model = noise.enabled ? noise : NoiseModel::ideal();
    const qc::Schedule sched = qc::schedule(circuit);
    const std::size_t width = circuit.numQubits();
    std::vector<double> durations(sched.depth(), 0.0);
    // Walked twice: once to count the steps for an exact reserve, once
    // to list them.
    auto walk = [&](auto &&emit) {
        // 1 + the last moment with an instruction on each qubit (0: none).
        std::vector<std::size_t> lastBusy(width, 0);
        for (std::size_t m = 0; m < sched.depth(); ++m) {
            double duration = 0.0;
            for (std::size_t idx : sched.moments[m]) {
                const qc::Gate &g = circuit.gates()[idx];
                NoisyStep step{Kind::Gate, false,
                               static_cast<std::uint32_t>(idx),
                               g.qubits.front(), g.qubits.back(), 0.0};
                const bool measure = g.type == qc::GateType::MEASURE;
                if (measure || g.type == qc::GateType::RESET) {
                    step.kind = measure ? Kind::Measure : Kind::Reset;
                    step.p = measure ? model.pMeas : model.pReset;
                    duration = std::max(duration, model.timeMeas);
                    emit(step);
                } else {
                    const std::size_t arity = g.qubits.size();
                    duration = std::max(duration, arity >= 2 ? model.time2q
                                                             : model.time1q);
                    emit(step);
                    // Only 1q and 2q gates carry an error: Table II has
                    // no 3-qubit rate.
                    step.kind = arity == 1 ? Kind::Pauli1 : Kind::Pauli2;
                    step.p = arity == 1 ? model.p1
                                        : (arity == 2 ? model.p2 : 0.0);
                    if (step.p > 0.0)
                        emit(step);
                }
                for (qc::Qubit q : g.qubits)
                    lastBusy[q] = m + 1;
            }
            durations[m] = duration;
            if (duration <= 0.0)
                continue;
            for (std::size_t q = 0; q < width; ++q) {
                const auto qubit = static_cast<qc::Qubit>(q);
                if (lastBusy[q] != m + 1)
                    emit(NoisyStep{Kind::Idle, lastBusy[q] == 0,
                                   static_cast<std::uint32_t>(m), qubit,
                                   qubit, 0.0});
            }
        }
    };
    NoisySteps out;
    std::size_t count = 0;
    walk([&](const NoisyStep &) { ++count; });
    out.steps.reserve(count);
    walk([&](const NoisyStep &step) { out.steps.push_back(step); });
    out.idle.reserve(durations.size());
    for (double duration : durations)
        out.idle.push_back(model.idleChannel(duration));
    return out;
}

std::size_t
drawPauli(const NoisyStep &step, stats::Rng &rng)
{
    if (!rng.bernoulli(step.p))
        return 0;
    // Uniform over the non-identity Paulis: 3 on one qubit, 15 on two.
    if (step.kind == NoisyStep::Kind::Pauli1)
        return 4 * (1 + rng.index(3));
    return 1 + rng.index(15);
}

} // namespace smq::sim
