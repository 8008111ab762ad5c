#include "sim/statevector.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "sim/backend.hpp"
#include "sim/dense_kernels.hpp"
#include "sim/kernels.hpp"
#include "sim/memory.hpp"
#include "sim/simd.hpp"

namespace smq::sim {

namespace {

/** @p applies kernel applications (1q/2q matrix or 3q permutation). */
inline void
countSvKernel(std::size_t applies = 1)
{
    static obs::Counter &counter =
        obs::counter(obs::names::kSimSvGateApplies);
    counter.add(applies);
}

void
checkQubitIndex(std::size_t q, std::size_t num_qubits)
{
    if (q >= num_qubits)
        throw std::out_of_range("StateVector: qubit index out of range");
}

} // namespace

namespace dense {

void
matrix1Kernel(Complex *amps, std::size_t size, std::size_t q,
              const Matrix2 &m)
{
    kernels::forEachRange(size / 2, size,
                          [&](std::size_t pb, std::size_t pe) {
                              kernels::pairRange(amps, pb, pe, q, m);
                          });
}

void
matrix2Kernel(Complex *amps, std::size_t size, std::size_t q0,
              std::size_t q1, const Matrix4 &m)
{
    kernels::forEachRange(size / 4, size,
                          [&](std::size_t kb, std::size_t ke) {
                              kernels::quadRange(amps, kb, ke, q0, q1, m);
                          });
}

void
gateKernel(Complex *amps, std::size_t size, std::size_t n,
           const qc::Gate &gate)
{
    using qc::GateType;
    switch (gate.type) {
      case GateType::CCX: {
        // Only the c0=1, c1=1, t=0 subspace moves: enumerate its
        // 2^(n-3) members directly instead of branching over all 2^n.
        const std::size_t c0 = std::size_t{1} << gate.qubits[0];
        const std::size_t c1 = std::size_t{1} << gate.qubits[1];
        const std::size_t t = std::size_t{1} << gate.qubits[2];
        std::size_t p0 = gate.qubits[0], p1 = gate.qubits[1],
                    p2 = gate.qubits[2];
        sort3(p0, p1, p2);
        kernels::forEachRange(
            size >> 3, size >> 2, [&](std::size_t kb, std::size_t ke) {
                for (std::size_t k = kb; k < ke; ++k) {
                    std::size_t base = expand3(k, p0, p1, p2) | c0 | c1;
                    std::swap(amps[base], amps[base | t]);
                }
            });
        return;
      }
      case GateType::CSWAP: {
        // The moving subspace is c=1, a=1, b=0 <-> c=1, a=0, b=1.
        const std::size_t c = std::size_t{1} << gate.qubits[0];
        const std::size_t a = std::size_t{1} << gate.qubits[1];
        const std::size_t b = std::size_t{1} << gate.qubits[2];
        std::size_t p0 = gate.qubits[0], p1 = gate.qubits[1],
                    p2 = gate.qubits[2];
        sort3(p0, p1, p2);
        kernels::forEachRange(
            size >> 3, size >> 2, [&](std::size_t kb, std::size_t ke) {
                for (std::size_t k = kb; k < ke; ++k) {
                    std::size_t base = expand3(k, p0, p1, p2) | c | a;
                    std::swap(amps[base], amps[base ^ a ^ b]);
                }
            });
        return;
      }
      case GateType::MEASURE:
      case GateType::RESET:
      case GateType::BARRIER:
        throw std::invalid_argument(
            "StateVector::applyGate: non-unitary instruction");
      default:
        break;
    }
    if (gate.qubits.size() == 1) {
        checkQubitIndex(gate.qubits[0], n);
        const Matrix2 m = gateMatrix1(gate);
        kernels::recordSimdPath();
        matrix1Kernel(amps, size, gate.qubits[0], m);
    } else if (gate.qubits.size() == 2) {
        checkQubitIndex(gate.qubits[0], n);
        checkQubitIndex(gate.qubits[1], n);
        if (gate.qubits[0] == gate.qubits[1])
            throw std::invalid_argument("StateVector: duplicate qubit");
        kernels::recordSimdPath();
        matrix2Kernel(amps, size, gate.qubits[0], gate.qubits[1],
                      gateMatrix2(gate));
    } else {
        throw std::invalid_argument("StateVector::applyGate: bad arity");
    }
}

} // namespace dense

namespace {

using dense::forPairRuns;

/** Chains whose partial sums idlePass keeps on the stack. */
constexpr std::size_t kStackChains = 64;

/**
 * The idle walker over @p lanes lanes of 2^n. With @p events, lane l's
 * qubit q takes events[l] (see Relaxation); with @p p1, the same pass
 * then sets p1[l] = P(qubit qs = 1) of lane l. Returns false, walking
 * nothing, when every event is a no-op.
 *
 * A lane's P(1) sums its kReduceGrain chunks, each a chain of adds
 * from 0.0 over its bit-qs-set amplitudes in ascending order, and
 * folds them in chunk order from 0.0 as reduceChunked does: the value
 * depends only on the lane's amplitudes, not on how many lanes share
 * the buffer, which lanes relax, or the dispatch. Serial walks run the
 * chains kIdleChains at a time, so their adds overlap; a parallel
 * dispatch gives each chain its own task.
 *
 * Decay and a bare dephasing flip are real scales, dephasing folded
 * into the |1> factor (x * -k rounds to exactly -(x * k)). A jump
 * moves amplitudes between the halves, so it runs first, lane by lane,
 * and its chains are then only summed.
 */
bool
idlePass(Complex *amps, std::size_t n, std::size_t lanes, std::size_t q,
         const Relaxation *events, std::size_t qs, double *p1)
{
    if (events != nullptr &&
        std::all_of(events, events + lanes,
                    [](const Relaxation &ev) { return ev.idle(); }))
        return false;
    const std::size_t dim = std::size_t{1} << n;
    const std::size_t len = std::min(dim, kernels::kReduceGrain);
    const std::size_t bits = static_cast<std::size_t>(__builtin_ctzll(len));
    const std::size_t chunks = dim / len;
    const std::size_t chains = lanes * chunks;
    // From log2(len) up a bit is constant over a chain: it scales a
    // chain by one factor, and sums all or none of it.
    const std::size_t chainQ = q < bits ? q : kernels::kNoBit;
    const std::size_t chainQs = qs < bits ? qs : kernels::kNoBit;
    if (events != nullptr) {
        for (std::size_t l = 0; l < lanes; ++l) {
            const Relaxation &ev = events[l];
            if (ev.damping == Relaxation::Damping::Jump)
                kernels::jumpRange(amps, l * dim / 2, (l + 1) * dim / 2, q,
                                   ev.keep1, ev.dephase);
        }
    }
    double stack[kStackChains];
    std::vector<double> heap;
    double *partial = p1;
    if (p1 != nullptr && chunks > 1) {
        if (chains > kStackChains)
            heap.resize(chains);
        partial = chains > kStackChains ? heap.data() : stack;
    }

    /** What the pass does to chain c: its scale, if any, and its sum. */
    struct Work
    {
        bool scaled = false;
        bool summed = false;
        kernels::IdleScale scale;
    };
    auto work = [&](std::size_t c) {
        Work w;
        const std::size_t chunk = c % chunks;
        if (p1 != nullptr) {
            w.summed = chainQs != kernels::kNoBit ||
                       ((chunk >> (qs - bits)) & 1) != 0;
            if (!w.summed)
                partial[c] = 0.0;
        }
        if (events == nullptr)
            return w;
        const Relaxation &ev = events[c / chunks];
        if (ev.damping == Relaxation::Damping::Jump || ev.idle())
            return w;
        const bool decay = ev.damping == Relaxation::Damping::Decay;
        w.scale.f0 = decay ? ev.keep0 : 1.0;
        w.scale.f1 = decay ? ev.keep1 : 1.0;
        if (ev.dephase)
            w.scale.f1 = -w.scale.f1;
        if (chainQ == kernels::kNoBit && ((chunk >> (q - bits)) & 1) != 0)
            w.scale.f0 = w.scale.f1;
        // x * 1.0 is x: a chain scaled by 1.0 throughout is only read.
        w.scaled = w.scale.f0 != 1.0 ||
                   (chainQ != kernels::kNoBit && w.scale.f1 != 1.0);
        return w;
    };
    // Run up to kIdleChains chains that share one kind of work.
    auto walk = [&](const std::size_t *ids, const Work *ws,
                    std::size_t count) {
        Complex *ptrs[kernels::kIdleChains];
        kernels::IdleScale scales[kernels::kIdleChains];
        double sums[kernels::kIdleChains];
        for (std::size_t k = 0; k < count; ++k) {
            ptrs[k] = amps + ids[k] * len;
            scales[k] = ws[k].scale;
        }
        kernels::idleChains(ptrs, count, len, chainQ,
                            ws[0].scaled ? scales : nullptr, chainQs,
                            ws[0].summed ? sums : nullptr);
        if (ws[0].summed) {
            for (std::size_t k = 0; k < count; ++k)
                partial[ids[k]] = sums[k];
        }
    };
    auto serial = [&](std::size_t) {
        // Pending groups by kind: scaled and summed, scaled, summed.
        std::size_t ids[3][kernels::kIdleChains];
        Work ws[3][kernels::kIdleChains];
        std::size_t fill[3] = {};
        for (std::size_t c = 0; c < chains; ++c) {
            const Work w = work(c);
            if (!w.scaled && !w.summed)
                continue;
            const std::size_t g = w.scaled ? (w.summed ? 0 : 1) : 2;
            ids[g][fill[g]] = c;
            ws[g][fill[g]] = w;
            if (++fill[g] == kernels::kIdleChains) {
                walk(ids[g], ws[g], fill[g]);
                fill[g] = 0;
            }
        }
        for (std::size_t g = 0; g < 3; ++g) {
            if (fill[g] > 0)
                walk(ids[g], ws[g], fill[g]);
        }
    };
    // A relax touches every amplitude; a P(1) alone reads half of them.
    const std::size_t elements =
        events != nullptr ? lanes << n : (lanes << n) / 2;
    auto single = [&](std::size_t c) {
        const Work w = work(c);
        if (w.scaled || w.summed)
            walk(&c, &w, 1);
    };
    // std::ref keeps each std::function in its small buffer: no
    // allocation per pass.
    if (events == nullptr && chunks == 1) {
        // One chunk per lane: computed in place, as reduceChunked
        // computes a single chunk, with no dispatch.
        serial(0);
    } else if (kernels::detail::dispatchJobs(chains, elements) <= 1) {
        kernels::detail::dispatchChunks(1, elements, std::ref(serial));
    } else {
        kernels::detail::dispatchChunks(chains, elements, std::ref(single));
    }
    if (p1 != nullptr && chunks > 1) {
        for (std::size_t l = 0; l < lanes; ++l) {
            double total = 0.0;
            for (std::size_t c = 0; c < chunks; ++c)
                total += partial[l * chunks + c];
            p1[l] = total;
        }
    }
    return true;
}

/** measure()'s renormalisation after drawing @p outcome from @p p1. */
double
measureScale(double p1, int outcome)
{
    double keep = outcome ? p1 : 1.0 - p1;
    if (keep <= 0.0)
        keep = 1.0; // numerically impossible branch; avoid div by zero
    return 1.0 / std::sqrt(keep);
}

/**
 * Project qubit q of lane l onto outcomes[l]: the kept half scales by
 * scales[l], the other half is zeroed.
 */
void
collapseKernel(Complex *amps, std::size_t n, std::size_t lanes,
               std::size_t q, const int *outcomes, const double *scales)
{
    const std::size_t size = lanes << n;
    const std::size_t stride = std::size_t{1} << q;
    kernels::forEachRange(
        size / 2, size, [&](std::size_t pb, std::size_t pe) {
            forPairRuns(pb, pe, q, [&](std::size_t i0, std::size_t run) {
                const std::size_t lane = i0 >> n;
                const std::size_t kept = outcomes[lane] == 1 ? stride : 0;
                Complex *keep = amps + i0 + kept;
                Complex *drop = amps + i0 + (stride - kept);
                const double scale = scales[lane];
                for (std::size_t k = 0; k < run; ++k)
                    keep[k] *= scale;
                for (std::size_t k = 0; k < run; ++k)
                    drop[k] = 0.0;
            });
        });
}

/** Sample a basis state of one lane by a sequential prefix scan. */
std::size_t
sampleBasis(const Complex *amps, std::size_t dim, stats::Rng &rng)
{
    // Inherently serial, and one pass of adds is memory-bound anyway.
    double r = rng.uniform();
    double acc = 0.0;
    for (std::size_t idx = 0; idx < dim; ++idx) {
        acc += std::norm(amps[idx]);
        if (r < acc)
            return idx;
    }
    return dim - 1;
}

/** Budget-check @p lanes dense states of @p num_qubits qubits. */
void
checkDenseBudget(std::size_t num_qubits, std::size_t lanes)
{
    if (num_qubits > kStatevectorHardCap)
        throw std::invalid_argument(
            "StateVector: too many qubits for dense simulation");
    // Estimate the allocation before attempting it: a too-large cell
    // must fail as a structured ResourceExhausted, not a bad_alloc
    // that kills the whole grid.
    std::string what = "statevector(" + std::to_string(num_qubits) +
                       " qubits)";
    if (lanes > 1)
        what += " x " + std::to_string(lanes) + " lanes";
    checkAllocationBudget(
        what, denseBytes(num_qubits, sizeof(Complex), false) * lanes);
}

} // namespace

StateVector::StateVector(std::size_t num_qubits) : numQubits_(num_qubits)
{
    checkDenseBudget(num_qubits, 1);
    amps_.assign(std::size_t{1} << num_qubits, Complex{0.0, 0.0});
    amps_[0] = 1.0;
}

Complex
StateVector::amplitude(std::size_t basis_state) const
{
    return amps_.at(basis_state);
}

void
StateVector::checkQubit(std::size_t q) const
{
    checkQubitIndex(q, numQubits_);
}

void
StateVector::applyMatrix1(std::size_t q, const Matrix2 &m)
{
    checkQubit(q);
    countSvKernel();
    kernels::recordSimdPath();
    dense::matrix1Kernel(amps_.data(), amps_.size(), q, m);
}

void
StateVector::applyMatrix2(std::size_t q0, std::size_t q1, const Matrix4 &m)
{
    checkQubit(q0);
    checkQubit(q1);
    if (q0 == q1)
        throw std::invalid_argument("StateVector: duplicate qubit");
    countSvKernel();
    kernels::recordSimdPath();
    dense::matrix2Kernel(amps_.data(), amps_.size(), q0, q1, m);
}

void
StateVector::applyGate(const qc::Gate &gate)
{
    dense::gateKernel(amps_.data(), amps_.size(), numQubits_, gate);
    countSvKernel();
}

void
StateVector::applyFused(const std::vector<FusedOp> &ops)
{
    for (const FusedOp &op : ops) {
        switch (op.kind) {
          case FusedOp::Kind::Unitary1:
            applyMatrix1(op.q0, op.m2);
            break;
          case FusedOp::Kind::Unitary2:
            applyMatrix2(op.q0, op.q1, op.m4);
            break;
          case FusedOp::Kind::Passthrough:
            applyGate(op.gate);
            break;
        }
    }
}

void
StateVector::applyUnitaryCircuit(const qc::Circuit &circuit)
{
    if (circuit.numQubits() != numQubits_)
        throw std::invalid_argument("StateVector: circuit size mismatch");
    applyFused(fuseUnitaryCircuit(circuit));
}

double
StateVector::probabilityOfOne(std::size_t q) const
{
    checkQubit(q);
    double p1 = 0.0;
    // A pass without events only reads the amplitudes.
    idlePass(const_cast<Complex *>(amps_.data()), numQubits_, 1, q, nullptr,
             q, &p1);
    return p1;
}

int
StateVector::measure(std::size_t q, stats::Rng &rng)
{
    const double p1 = probabilityOfOne(q);
    const int outcome = rng.bernoulli(p1) ? 1 : 0;
    const double scale = measureScale(p1, outcome);
    collapseKernel(amps_.data(), numQubits_, 1, q, &outcome, &scale);
    return outcome;
}

double
StateVector::project(std::size_t q, int outcome)
{
    const double p1 = probabilityOfOne(q);
    const double keep = outcome ? p1 : 1.0 - p1;
    if (keep <= 0.0)
        return 0.0;
    const double scale = 1.0 / std::sqrt(keep);
    collapseKernel(amps_.data(), numQubits_, 1, q, &outcome, &scale);
    return keep;
}

void
StateVector::reset(std::size_t q, stats::Rng &rng)
{
    int outcome = measure(q, rng);
    if (outcome == 1)
        applyMatrix1(q, gateMatrix1(qc::Gate(qc::GateType::X,
                                             {static_cast<qc::Qubit>(q)})));
}

std::size_t
StateVector::sampleBasisState(stats::Rng &rng) const
{
    return sampleBasis(amps_.data(), amps_.size(), rng);
}

StateLanes::StateLanes(std::size_t num_qubits, std::size_t max_lanes)
    : numQubits_(num_qubits)
{
    checkDenseBudget(num_qubits, max_lanes);
    amps_.assign(max_lanes << num_qubits, Complex{0.0, 0.0});
}

void
StateLanes::resetToZero(std::size_t lanes)
{
    if (lanes > maxLanes())
        throw std::invalid_argument("StateLanes: more lanes than room");
    lanes_ = lanes;
    std::fill(amps_.begin(), amps_.begin() + (lanes << numQubits_),
              Complex{0.0, 0.0});
    for (std::size_t l = 0; l < lanes; ++l)
        amps_[l << numQubits_] = 1.0;
}

void
StateLanes::applyGate(const qc::Gate &gate)
{
    dense::gateKernel(amps_.data(), lanes_ << numQubits_, numQubits_, gate);
    countSvKernel(lanes_);
}

void
StateLanes::applyPerLane(std::size_t q,
                         const std::vector<const Matrix2 *> &per_lane)
{
    checkQubitIndex(q, numQubits_);
    const std::size_t hits = static_cast<std::size_t>(
        std::count_if(per_lane.begin(), per_lane.begin() + lanes_,
                      [](const Matrix2 *m) { return m != nullptr; }));
    if (hits == 0)
        return;
    countSvKernel(hits);
    kernels::recordSimdPath();
    // One dispatch over every lane's pairs; each range runs one
    // pairRange per lane segment, skipping the lanes without a matrix.
    const std::size_t half = std::size_t{1} << (numQubits_ - 1);
    Complex *amps = amps_.data();
    kernels::forEachRange(
        lanes_ * half, lanes_ << numQubits_,
        [&](std::size_t pb, std::size_t pe) {
            for (std::size_t p = pb; p < pe;) {
                const std::size_t lane = p / half;
                const std::size_t end = std::min(pe, (lane + 1) * half);
                if (const Matrix2 *m = per_lane[lane])
                    kernels::pairRange(amps, p, end, q, *m);
                p = end;
            }
        });
}

void
StateLanes::probabilitiesOfOne(std::size_t q,
                               std::vector<double> &out) const
{
    checkQubitIndex(q, numQubits_);
    out.resize(lanes_);
    // A pass without events only reads the amplitudes.
    idlePass(const_cast<Complex *>(amps_.data()), numQubits_, lanes_, q,
             nullptr, q, out.data());
}

void
StateLanes::collapse(std::size_t q, const std::vector<int> &outcomes,
                     const std::vector<double> &p1)
{
    checkQubitIndex(q, numQubits_);
    std::vector<double> scales(lanes_);
    for (std::size_t l = 0; l < lanes_; ++l)
        scales[l] = measureScale(p1[l], outcomes[l]);
    collapseKernel(amps_.data(), numQubits_, lanes_, q, outcomes.data(),
                   scales.data());
}

void
StateLanes::relax(std::size_t q, const std::vector<Relaxation> &events)
{
    checkQubitIndex(q, numQubits_);
    idlePass(amps_.data(), numQubits_, lanes_, q, events.data(), q,
             nullptr);
}

bool
StateLanes::relax(std::size_t q, const std::vector<Relaxation> &events,
                  std::size_t next, std::vector<double> &p1)
{
    checkQubitIndex(q, numQubits_);
    checkQubitIndex(next, numQubits_);
    p1.resize(lanes_);
    return idlePass(amps_.data(), numQubits_, lanes_, q, events.data(), next,
                    p1.data());
}

std::size_t
StateLanes::sampleBasisState(std::size_t lane, stats::Rng &rng) const
{
    return sampleBasis(amps_.data() + (lane << numQubits_),
                       std::size_t{1} << numQubits_, rng);
}

std::vector<double>
StateVector::probabilities() const
{
    std::vector<double> probs(amps_.size());
    const Complex *amps = amps_.data();
    double *out = probs.data();
    kernels::forEachRange(
        amps_.size(), amps_.size(), [&](std::size_t b, std::size_t e) {
            for (std::size_t idx = b; idx < e; ++idx)
                out[idx] = std::norm(amps[idx]);
        });
    return probs;
}

Complex
StateVector::expectation(const qc::PauliString &pauli) const
{
    if (pauli.numQubits() != numQubits_)
        throw std::invalid_argument("StateVector: Pauli size mismatch");
    // Apply P = i^r X^x Z^z to a copy: for basis state |s>,
    // Z^z contributes (-1)^(z . s) and X^x maps |s> -> |s ^ x>.
    std::size_t xmask = 0, zmask = 0;
    for (std::size_t q = 0; q < numQubits_; ++q) {
        if (pauli.xBit(q))
            xmask |= std::size_t{1} << q;
        if (pauli.zBit(q))
            zmask |= std::size_t{1} << q;
    }
    const Complex *amps = amps_.data();
    Complex acc = kernels::reduceChunked<Complex>(
        amps_.size(), [&](std::size_t b, std::size_t e) {
            double re = 0.0, im = 0.0;
            for (std::size_t s = b; s < e; ++s) {
                // (P psi)[s ^ x] += (-1)^(z.s) psi[s]; accumulate
                // conj(psi[s ^ x]) * that in split re/im form (no
                // __muldc3 in the loop)
                const double sign =
                    __builtin_parityll(s & zmask) ? -1.0 : 1.0;
                const Complex &u = amps[s ^ xmask];
                const double vr = sign * amps[s].real();
                const double vi = sign * amps[s].imag();
                re += u.real() * vr + u.imag() * vi;
                im += u.real() * vi - u.imag() * vr;
            }
            return Complex(re, im);
        });
    static const Complex phases[4] = {{1, 0}, {0, 1}, {-1, 0}, {0, -1}};
    return phases[pauli.phasePower()] * acc;
}

double
StateVector::expectationZ(const std::vector<std::size_t> &support) const
{
    std::size_t zmask = 0;
    for (std::size_t q : support) {
        checkQubit(q);
        zmask |= std::size_t{1} << q;
    }
    const Complex *amps = amps_.data();
    return kernels::reduceChunked<double>(
        amps_.size(), [&](std::size_t b, std::size_t e) {
            double acc = 0.0;
            for (std::size_t s = b; s < e; ++s) {
                int sign = __builtin_parityll(s & zmask) ? -1 : 1;
                acc += sign * std::norm(amps[s]);
            }
            return acc;
        });
}

double
StateVector::fidelityWith(const StateVector &other) const
{
    if (other.numQubits() != numQubits_)
        throw std::invalid_argument("StateVector: size mismatch");
    const Complex *mine = amps_.data();
    const Complex *theirs = other.amps_.data();
    Complex overlap = kernels::reduceChunked<Complex>(
        amps_.size(), [&](std::size_t b, std::size_t e) {
            double re = 0.0, im = 0.0;
            for (std::size_t idx = b; idx < e; ++idx) {
                const Complex &u = theirs[idx];
                const Complex &v = mine[idx];
                re += u.real() * v.real() + u.imag() * v.imag();
                im += u.real() * v.imag() - u.imag() * v.real();
            }
            return Complex(re, im);
        });
    return std::norm(overlap);
}

double
StateVector::norm() const
{
    const Complex *amps = amps_.data();
    double n2 = kernels::reduceChunked<double>(
        amps_.size(), [&](std::size_t b, std::size_t e) {
            double acc = 0.0;
            for (std::size_t idx = b; idx < e; ++idx)
                acc += std::norm(amps[idx]);
            return acc;
        });
    return std::sqrt(n2);
}

void
StateVector::normalize()
{
    double n = norm();
    if (n < 1e-300)
        throw std::logic_error("StateVector::normalize: zero state");
    Complex *amps = amps_.data();
    kernels::forEachRange(
        amps_.size(), amps_.size(), [&](std::size_t b, std::size_t e) {
            for (std::size_t idx = b; idx < e; ++idx)
                amps[idx] /= n;
        });
}

TerminalSplit
splitTerminal(const qc::Circuit &circuit)
{
    TerminalSplit split{qc::Circuit(circuit.numQubits()),
                        std::vector<std::ptrdiff_t>(circuit.numClbits(), -1)};
    std::vector<bool> measured(circuit.numQubits(), false);
    for (const qc::Gate &g : circuit.gates()) {
        if (g.type == qc::GateType::MEASURE) {
            measured[g.qubits[0]] = true;
            split.clbitSource[static_cast<std::size_t>(g.cbit)] =
                static_cast<std::ptrdiff_t>(g.qubits[0]);
            continue;
        }
        if (g.type == qc::GateType::RESET)
            throw std::invalid_argument(
                "splitTerminal: RESET requires trajectory simulation");
        if (g.type != qc::GateType::BARRIER) {
            for (qc::Qubit q : g.qubits) {
                if (measured[q])
                    throw std::invalid_argument(
                        "splitTerminal: non-terminal measurement");
            }
        }
        split.body.append(g);
    }
    return split;
}

stats::Distribution
clbitDistribution(const std::vector<double> &probs,
                  const std::vector<std::ptrdiff_t> &clbit_source)
{
    stats::Distribution dist;
    for (std::size_t s = 0; s < probs.size(); ++s) {
        if (probs[s] < 1e-15)
            continue;
        std::string key(clbit_source.size(), '0');
        for (std::size_t c = 0; c < clbit_source.size(); ++c) {
            if (clbit_source[c] >= 0 &&
                (s >> static_cast<std::size_t>(clbit_source[c])) & 1) {
                key[c] = '1';
            }
        }
        dist.add(key, probs[s]);
    }
    return dist;
}

stats::Distribution
idealDistribution(const qc::Circuit &circuit)
{
    const TerminalSplit split = splitTerminal(circuit);
    StateVector state(circuit.numQubits());
    state.applyUnitaryCircuit(split.body);
    return clbitDistribution(state.probabilities(), split.clbitSource);
}

StateVector
finalState(const qc::Circuit &circuit)
{
    for (const qc::Gate &g : circuit.gates()) {
        if (g.type == qc::GateType::MEASURE || g.type == qc::GateType::RESET)
            throw std::invalid_argument(
                "finalState: circuit must be purely unitary");
    }
    StateVector state(circuit.numQubits());
    state.applyUnitaryCircuit(circuit);
    return state;
}

} // namespace smq::sim
