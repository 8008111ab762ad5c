#include "sim/stabilizer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "sim/kernels.hpp"

namespace smq::sim {

StabilizerSimulator::StabilizerSimulator(std::size_t num_qubits)
    : numQubits_(num_qubits), words_((num_qubits + 63) / 64)
{
    if (num_qubits == 0)
        throw std::invalid_argument("StabilizerSimulator: n > 0");
    x_.assign((2 * numQubits_ + 1) * words_, 0);
    z_.assign((2 * numQubits_ + 1) * words_, 0);
    r_.assign(2 * numQubits_ + 1, 0);
    resetAll();
}

void
StabilizerSimulator::resetAll()
{
    std::fill(x_.begin(), x_.end(), 0);
    std::fill(z_.begin(), z_.end(), 0);
    std::fill(r_.begin(), r_.end(), 0);
    // destabilizer i = X_i, stabilizer n+i = Z_i
    for (std::size_t i = 0; i < numQubits_; ++i) {
        setX(i, i, true);
        setZ(numQubits_ + i, i, true);
    }
}

bool
StabilizerSimulator::xBit(std::size_t row, std::size_t q) const
{
    return (x_[row * words_ + q / 64] >> (q % 64)) & 1;
}

bool
StabilizerSimulator::zBit(std::size_t row, std::size_t q) const
{
    return (z_[row * words_ + q / 64] >> (q % 64)) & 1;
}

void
StabilizerSimulator::setX(std::size_t row, std::size_t q, bool v)
{
    std::uint64_t mask = std::uint64_t{1} << (q % 64);
    if (v)
        x_[row * words_ + q / 64] |= mask;
    else
        x_[row * words_ + q / 64] &= ~mask;
}

void
StabilizerSimulator::setZ(std::size_t row, std::size_t q, bool v)
{
    std::uint64_t mask = std::uint64_t{1} << (q % 64);
    if (v)
        z_[row * words_ + q / 64] |= mask;
    else
        z_[row * words_ + q / 64] &= ~mask;
}

void
StabilizerSimulator::clearRow(std::size_t row)
{
    std::fill_n(x_.begin() + static_cast<std::ptrdiff_t>(row * words_),
                words_, 0);
    std::fill_n(z_.begin() + static_cast<std::ptrdiff_t>(row * words_),
                words_, 0);
    r_[row] = 0;
}

void
StabilizerSimulator::copyRow(std::size_t dst, std::size_t src)
{
    std::copy_n(x_.begin() + static_cast<std::ptrdiff_t>(src * words_),
                words_,
                x_.begin() + static_cast<std::ptrdiff_t>(dst * words_));
    std::copy_n(z_.begin() + static_cast<std::ptrdiff_t>(src * words_),
                words_,
                z_.begin() + static_cast<std::ptrdiff_t>(dst * words_));
    r_[dst] = r_[src];
}

void
StabilizerSimulator::rowsum(std::size_t h, std::size_t i)
{
    // phase exponent of i accumulated while multiplying row i into h
    // (Aaronson-Gottesman g function), tracked mod 4. The per-qubit g
    // cases are evaluated for 64 qubits at a time: bitmasks select the
    // qubits whose factor product contributes +1 (plus) or -1 (minus)
    // and a popcount difference replaces the per-bit branch ladder.
    // Bits past numQubits_ are zero in both rows, so they fall in the
    // identity case and contribute nothing.
    long long phase = 2LL * (r_[h] + r_[i]);
    std::uint64_t *xh = x_.data() + h * words_;
    std::uint64_t *zh = z_.data() + h * words_;
    const std::uint64_t *xi = x_.data() + i * words_;
    const std::uint64_t *zi = z_.data() + i * words_;
    for (std::size_t w = 0; w < words_; ++w) {
        const std::uint64_t x1 = xh[w], z1 = zh[w];
        const std::uint64_t x2 = xi[w], z2 = zi[w];
        // g = +1: Y*Z(-> z1 & ~x1), X*Y(-> x1 & z1), Z*X(-> x1 & ~z1)
        const std::uint64_t plus = (x2 & z2 & z1 & ~x1) |
                                   (x2 & ~z2 & x1 & z1) |
                                   (~x2 & z2 & x1 & ~z1);
        // g = -1: Y*X, X*Z, Z*Y
        const std::uint64_t minus = (x2 & z2 & x1 & ~z1) |
                                    (x2 & ~z2 & z1 & ~x1) |
                                    (~x2 & z2 & x1 & z1);
        phase += std::popcount(plus) - std::popcount(minus);
        xh[w] = x1 ^ x2;
        zh[w] = z1 ^ z2;
    }
    phase = ((phase % 4) + 4) % 4;
    r_[h] = static_cast<std::uint8_t>(phase == 2);
}

void
StabilizerSimulator::applyGate(const qc::Gate &gate)
{
    using qc::GateType;
    const std::size_t rows = 2 * numQubits_;
    auto q0 = [&]() { return static_cast<std::size_t>(gate.qubits.at(0)); };
    auto q1 = [&]() { return static_cast<std::size_t>(gate.qubits.at(1)); };
    // Every per-row update below touches only its own row, so the row
    // space splits across the pool; rows * words_ is the cost measure
    // the size threshold compares against (small tableaus stay serial).
    auto forRows = [&](const std::function<void(std::size_t)> &rowBody) {
        kernels::forEachRange(rows, rows * words_,
                              [&](std::size_t b, std::size_t e) {
                                  for (std::size_t row = b; row < e; ++row)
                                      rowBody(row);
                              });
    };

    switch (gate.type) {
      case GateType::I:
        return;
      case GateType::X: {
        std::size_t q = q0();
        forRows([&](std::size_t row) { r_[row] ^= zBit(row, q); });
        return;
      }
      case GateType::Z: {
        std::size_t q = q0();
        forRows([&](std::size_t row) { r_[row] ^= xBit(row, q); });
        return;
      }
      case GateType::Y: {
        std::size_t q = q0();
        forRows([&](std::size_t row) {
            r_[row] ^= xBit(row, q) ^ zBit(row, q);
        });
        return;
      }
      case GateType::H: {
        std::size_t q = q0();
        forRows([&](std::size_t row) {
            bool x = xBit(row, q), z = zBit(row, q);
            r_[row] ^= static_cast<std::uint8_t>(x && z);
            setX(row, q, z);
            setZ(row, q, x);
        });
        return;
      }
      case GateType::S: {
        std::size_t q = q0();
        forRows([&](std::size_t row) {
            bool x = xBit(row, q), z = zBit(row, q);
            r_[row] ^= static_cast<std::uint8_t>(x && z);
            setZ(row, q, x ^ z);
        });
        return;
      }
      case GateType::SDG:
        // SDG = S Z (conjugation-wise S then Z adjusts the sign)
        applyGate(qc::Gate(GateType::S, gate.qubits));
        applyGate(qc::Gate(GateType::Z, gate.qubits));
        return;
      case GateType::SX:
        applyGate(qc::Gate(GateType::H, gate.qubits));
        applyGate(qc::Gate(GateType::S, gate.qubits));
        applyGate(qc::Gate(GateType::H, gate.qubits));
        return;
      case GateType::SXDG:
        applyGate(qc::Gate(GateType::H, gate.qubits));
        applyGate(qc::Gate(GateType::SDG, gate.qubits));
        applyGate(qc::Gate(GateType::H, gate.qubits));
        return;
      case GateType::CX: {
        std::size_t c = q0(), t = q1();
        forRows([&](std::size_t row) {
            bool xc = xBit(row, c), zc = zBit(row, c);
            bool xt = xBit(row, t), zt = zBit(row, t);
            r_[row] ^= static_cast<std::uint8_t>(xc && zt &&
                                                 (xt == zc));
            setX(row, t, xt ^ xc);
            setZ(row, c, zc ^ zt);
        });
        return;
      }
      case GateType::CZ:
        applyGate(qc::Gate(GateType::H, {gate.qubits[1]}));
        applyGate(qc::Gate(GateType::CX, gate.qubits));
        applyGate(qc::Gate(GateType::H, {gate.qubits[1]}));
        return;
      case GateType::CY:
        applyGate(qc::Gate(GateType::SDG, {gate.qubits[1]}));
        applyGate(qc::Gate(GateType::CX, gate.qubits));
        applyGate(qc::Gate(GateType::S, {gate.qubits[1]}));
        return;
      case GateType::SWAP:
        applyGate(qc::Gate(GateType::CX, {gate.qubits[0], gate.qubits[1]}));
        applyGate(qc::Gate(GateType::CX, {gate.qubits[1], gate.qubits[0]}));
        applyGate(qc::Gate(GateType::CX, {gate.qubits[0], gate.qubits[1]}));
        return;
      default:
        throw std::invalid_argument(
            "StabilizerSimulator: non-Clifford gate " +
            qc::gateName(gate.type));
    }
}

bool
StabilizerSimulator::isDeterministic(std::size_t q) const
{
    for (std::size_t p = numQubits_; p < 2 * numQubits_; ++p) {
        if (xBit(p, q))
            return false;
    }
    return true;
}

int
StabilizerSimulator::measure(std::size_t q, stats::Rng &rng)
{
    // A random outcome is a fair coin, drawn before the collapse.
    if (!isDeterministic(q)) {
        const int outcome = rng.bernoulli(0.5) ? 1 : 0;
        measureForced(q, outcome);
        return outcome;
    }
    return measureForced(q, 1) == 1.0 ? 1 : 0;
}

double
StabilizerSimulator::measureForced(std::size_t q, int outcome)
{
    const std::size_t n = numQubits_;
    std::size_t p = 2 * n;
    for (std::size_t row = n; row < 2 * n; ++row) {
        if (xBit(row, q)) {
            p = row;
            break;
        }
    }
    if (p < 2 * n) {
        // random outcome: either branch has probability 1/2; parallel
        // over rows exactly as in measure()
        kernels::forEachRange(
            2 * n, 2 * n * words_, [&](std::size_t b, std::size_t e) {
                for (std::size_t row = b; row < e; ++row) {
                    if (row != p && xBit(row, q))
                        rowsum(row, p);
                }
            });
        copyRow(p - n, p);
        clearRow(p);
        setZ(p, q, true);
        r_[p] = static_cast<std::uint8_t>(outcome);
        return 0.5;
    }
    // deterministic outcome: the forced branch either matches (prob 1)
    // or is impossible (prob 0, tableau untouched either way)
    const std::size_t scratch = 2 * n;
    clearRow(scratch);
    for (std::size_t i = 0; i < n; ++i) {
        if (xBit(i, q))
            rowsum(scratch, i + n);
    }
    return r_[scratch] == outcome ? 1.0 : 0.0;
}

void
StabilizerSimulator::reset(std::size_t q, stats::Rng &rng)
{
    if (measure(q, rng) == 1)
        applyGate(qc::Gate(qc::GateType::X,
                           {static_cast<qc::Qubit>(q)}));
}

bool
StabilizerSimulator::identicalTo(const StabilizerSimulator &other) const
{
    return numQubits_ == other.numQubits_ && x_ == other.x_ &&
           z_ == other.z_ && r_ == other.r_;
}

bool
isCliffordCircuit(const qc::Circuit &circuit)
{
    for (const qc::Gate &g : circuit.gates()) {
        switch (g.type) {
          case qc::GateType::MEASURE:
          case qc::GateType::RESET:
          case qc::GateType::BARRIER:
            continue;
          default:
            if (!qc::isClifford(g.type))
                return false;
            // the tableau engine implements this subset directly
            if (g.type == qc::GateType::ISWAP)
                return false;
        }
    }
    return true;
}

namespace {

/** Pauli-twirled amplitude damping + dephasing as X/Y/Z flip probs. */
struct TwirledIdle
{
    double px = 0.0, py = 0.0, pz = 0.0;
};

TwirledIdle
twirlIdle(const IdleChannel &idle)
{
    TwirledIdle t;
    // standard Pauli twirl of amplitude damping
    t.px = idle.damp / 4.0;
    t.py = idle.damp / 4.0;
    t.pz = std::max(0.0, (1.0 - std::sqrt(1.0 - idle.damp)) / 2.0 -
                             idle.damp / 4.0);
    t.pz += idle.dephase;
    return t;
}

void
applyPauliFlip(StabilizerSimulator &sim, std::size_t q,
               const TwirledIdle &t, stats::Rng &rng)
{
    double u = rng.uniform();
    qc::Qubit qu = static_cast<qc::Qubit>(q);
    if (u < t.px)
        sim.applyGate(qc::Gate(qc::GateType::X, {qu}));
    else if (u < t.px + t.py)
        sim.applyGate(qc::Gate(qc::GateType::Y, {qu}));
    else if (u < t.px + t.py + t.pz)
        sim.applyGate(qc::Gate(qc::GateType::Z, {qu}));
}

} // namespace

stats::Counts
runStabilizer(const qc::Circuit &circuit, const RunOptions &options,
              stats::Rng &rng)
{
    if (!isCliffordCircuit(circuit))
        throw std::invalid_argument(
            "runStabilizer: circuit is not Clifford");
    if (circuit.measureCount() == 0)
        throw std::invalid_argument("runStabilizer: nothing measured");

    const NoisySteps plan = noisySteps(circuit, options.noise);
    std::vector<TwirledIdle> twirls;
    twirls.reserve(plan.idle.size());
    for (const IdleChannel &idle : plan.idle)
        twirls.push_back(twirlIdle(idle));
    const auto &gates = circuit.gates();
    StabilizerSimulator sim(circuit.numQubits());
    stats::Counts counts;

    static const qc::GateType paulis[4] = {qc::GateType::I,
                                           qc::GateType::X,
                                           qc::GateType::Y,
                                           qc::GateType::Z};

    // Hoisted shot-loop buffer: reused across shots.
    std::string clbits(circuit.numClbits(), '0');
    for (std::uint64_t shot = 0; shot < options.shots; ++shot) {
        // Same truncation contract as the dense runner: the jobs
        // layer's fault hook must be able to cut any backend short,
        // or planner-routed Clifford cells would silently ignore
        // shot-truncation faults.
        if (options.faultHook && options.faultHook(counts.shots()))
            break;
        sim.resetAll();
        clbits.assign(circuit.numClbits(), '0');
        for (const NoisyStep &step : plan.steps) {
            switch (step.kind) {
              case NoisyStep::Kind::Gate:
                sim.applyGate(gates[step.index]);
                break;
              case NoisyStep::Kind::Measure: {
                int outcome = sim.measure(step.q0, rng);
                if (rng.bernoulli(step.p))
                    outcome ^= 1;
                clbits[static_cast<std::size_t>(gates[step.index].cbit)] =
                    outcome ? '1' : '0';
                break;
              }
              case NoisyStep::Kind::Reset:
                sim.reset(step.q0, rng);
                if (rng.bernoulli(step.p))
                    sim.applyGate(qc::Gate(qc::GateType::X, {step.q0}));
                break;
              case NoisyStep::Kind::Pauli1:
              case NoisyStep::Kind::Pauli2: {
                const std::size_t code = drawPauli(step, rng);
                if (code / 4 != 0)
                    sim.applyGate(qc::Gate(paulis[code / 4], {step.q0}));
                if (code % 4 != 0)
                    sim.applyGate(qc::Gate(paulis[code % 4], {step.q1}));
                break;
              }
              case NoisyStep::Kind::Idle:
                applyPauliFlip(sim, step.q0, twirls[step.index], rng);
                break;
            }
        }
        counts.add(clbits);
    }
    return counts;
}

} // namespace smq::sim
