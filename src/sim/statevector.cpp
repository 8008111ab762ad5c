#include "sim/statevector.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <utility>

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

namespace {

// Each body below is passed as std::ref: a lambda of more than two
// captures does not fit std::function's small buffer, and would cost a
// heap allocation per gate. The matrix kernels do not bump
// sim.kernel.simd_*: their callers record one SIMD path per gate.

/** Apply a one-qubit matrix to index bit @p q. */
void
matrix1Kernel(Complex *amps, std::size_t size, std::size_t q,
              const Matrix2 &m)
{
    auto body = [&](std::size_t pb, std::size_t pe) {
        kernels::pairRange(amps, pb, pe, q, m);
    };
    kernels::forEachRange(size / 2, size, std::ref(body));
}

/** Apply a two-qubit matrix (basis |b0 b1>, see gate_matrices). */
void
matrix2Kernel(Complex *amps, std::size_t size, std::size_t q0,
              std::size_t q1, const Matrix4 &m)
{
    auto body = [&](std::size_t kb, std::size_t ke) {
        kernels::quadRange(amps, kb, ke, q0, q1, m);
    };
    kernels::forEachRange(size / 4, size, std::ref(body));
}

} // namespace

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
        auto body = [&](std::size_t kb, std::size_t ke) {
            for (std::size_t k = kb; k < ke; ++k) {
                std::size_t base = expand3(k, p0, p1, p2) | c0 | c1;
                std::swap(amps[base], amps[base | t]);
            }
        };
        kernels::forEachRange(size >> 3, size >> 2, std::ref(body));
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
        auto body = [&](std::size_t kb, std::size_t ke) {
            for (std::size_t k = kb; k < ke; ++k) {
                std::size_t base = expand3(k, p0, p1, p2) | c | a;
                std::swap(amps[base], amps[base ^ a ^ b]);
            }
        };
        kernels::forEachRange(size >> 3, size >> 2, std::ref(body));
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

/** log2 of the most amplitudes one liveness block holds. */
constexpr std::size_t kLiveBlockBits = 6;

/** Block bits of a lane of @p n qubits: a block never spans two lanes. */
std::size_t
blockBits(std::size_t n)
{
    return std::min(n, kLiveBlockBits);
}

/** The live flags among @p count flags (each 0 or 1). */
std::size_t
countLive(const unsigned char *flags, std::size_t count)
{
    std::size_t live = 0;
    std::size_t i = 0;
    for (; i + 8 <= count; i += 8) {
        std::uint64_t word;
        std::memcpy(&word, flags + i, sizeof(word));
        // Eight bytes of 0 or 1 sum into the top byte, at most 8: no
        // carry crosses a byte, and no popcount instruction (which the
        // base ISA lacks, so __builtin_popcountll calls libgcc) runs.
        live += static_cast<std::size_t>((word * 0x0101010101010101ull) >> 56);
    }
    for (; i < count; ++i)
        live += flags[i];
    return live;
}

/** 1 when one of @p count amplitudes is nonzero, else 0. */
unsigned char
anyNonzero(const Complex *amps, std::size_t count)
{
    const double *parts = reinterpret_cast<const double *>(amps);
    for (std::size_t i = 0; i < 2 * count; ++i) {
        if (parts[i] != 0.0)
            return 1;
    }
    return 0;
}

/**
 * The blocks one lane operation walked and skipped, added to the
 * sim.lanes.* counters once when it ends. Parallel ranges add to it
 * side by side.
 */
class BlockTally
{
  public:
    explicit BlockTally(bool on) : on_(on) {}
    BlockTally(const BlockTally &) = delete;
    BlockTally &operator=(const BlockTally &) = delete;

    ~BlockTally()
    {
        if (!on_)
            return;
        static obs::Counter &walked =
            obs::counter(obs::names::kSimLanesBlocksWalked);
        static obs::Counter &skipped =
            obs::counter(obs::names::kSimLanesBlocksSkipped);
        walked.add(walked_.load(std::memory_order_relaxed));
        skipped.add(skipped_.load(std::memory_order_relaxed));
    }

    void
    add(std::size_t walked, std::size_t skipped)
    {
        walked_.fetch_add(walked, std::memory_order_relaxed);
        skipped_.fetch_add(skipped, std::memory_order_relaxed);
    }

  private:
    bool on_;
    std::atomic<std::size_t> walked_{0};
    std::atomic<std::size_t> skipped_{0};
};

/**
 * The block groups of one lane kernel over operand bits @p q0 and
 * @p q1 (kNoBit for a pair kernel). The kernel combines only
 * amplitudes that differ in its operand bits, so the blocks that differ
 * only in the operand bits at or above the block bits form one group,
 * and group g is exactly the kernel indices [g * width, (g + 1) *
 * width), pair or quad indices as pairRange / quadRange number them.
 * A group never spans two lanes.
 */
struct BlockGroups
{
    BlockGroups(std::size_t n, std::size_t q0,
                std::size_t q1 = kernels::kNoBit)
        : b(blockBits(n))
    {
        const bool quad = q1 != kernels::kNoBit;
        for (std::size_t q : {quad ? std::min(q0, q1) : q0,
                              quad ? std::max(q0, q1) : kernels::kNoBit}) {
            if (q != kernels::kNoBit && q >= b)
                at[spans++] = q - b;
        }
        width = (std::size_t{1} << (b + spans)) >> (quad ? 2 : 1);
        laneBits = n - b - spans;
    }

    /** fn(k) for each block k of group @p g, the lowest first. */
    template <typename Fn>
    void
    forBlocks(std::size_t g, const Fn &fn) const
    {
        if (spans == 0) {
            fn(g);
            return;
        }
        const std::size_t s0 = std::size_t{1} << at[0];
        if (spans == 1) {
            const std::size_t k = dense::expand1(g, at[0]);
            fn(k);
            fn(k + s0);
            return;
        }
        const std::size_t s1 = std::size_t{1} << at[1];
        const std::size_t k = dense::expand2(g, at[0], at[1]);
        fn(k);
        fn(k + s0);
        fn(k + s1);
        fn(k + s0 + s1);
    }

    /** True when group @p g holds a live block. */
    bool
    live(const unsigned char *flags, std::size_t g) const
    {
        unsigned char any = 0;
        forBlocks(g, [&](std::size_t k) { any |= flags[k]; });
        return any != 0;
    }

    std::size_t b;         ///< block bits
    std::size_t spans = 0; ///< operand bits at or above b
    std::size_t at[2] = {}; ///< their block-index bits, ascending
    std::size_t width = 0; ///< kernel indices per group
    std::size_t laneBits = 0; ///< log2 of the groups per lane
};

/** What a lane walk leaves in the flags of the blocks it ran on. */
enum class AfterWalk {
    Rederive, ///< live iff a value is nonzero
    MarkLive, ///< live
};

/**
 * The serial core of walkLiveGroups over groups [gb, ge): returns the
 * blocks it walked and skipped.
 */
template <typename TakeLane, typename Kernel>
std::pair<std::size_t, std::size_t>
walkGroupRange(Complex *amps, unsigned char *live, const BlockGroups &groups,
               AfterWalk after, std::size_t gb, std::size_t ge,
               const TakeLane &take_lane, const Kernel &kernel)
{
    std::size_t walked = 0;
    std::size_t skipped = 0;
    const std::size_t blockSize = std::size_t{1} << groups.b;
    auto flush = [&](std::size_t ga, std::size_t gz) {
        kernel(ga * groups.width, gz * groups.width);
        walked += (gz - ga) << groups.spans;
        for (std::size_t g = ga; g < gz; ++g) {
            groups.forBlocks(g, [&](std::size_t k) {
                live[k] = after == AfterWalk::MarkLive
                              ? 1
                              : anyNonzero(amps + k * blockSize, blockSize);
            });
        }
    };
    constexpr std::size_t kNone = ~std::size_t{0};
    std::size_t run = kNone;
    for (std::size_t g = gb; g < ge;) {
        const std::size_t lane = g >> groups.laneBits;
        const std::size_t end = std::min(ge, (lane + 1) << groups.laneBits);
        if (!take_lane(lane)) {
            if (run != kNone)
                flush(run, g);
            run = kNone;
            g = end;
            continue;
        }
        for (; g < end; ++g) {
            if (groups.live(live, g)) {
                if (run == kNone)
                    run = g;
                continue;
            }
            skipped += std::size_t{1} << groups.spans;
            if (run != kNone)
                flush(run, g);
            run = kNone;
        }
    }
    if (run != kNone)
        flush(run, ge);
    return {walked, skipped};
}

/**
 * kernel(kb, ke) over the kernel index ranges of the groups that hold a
 * live block, in the lanes l < @p lanes where take_lane(l) holds,
 * neighbouring groups merged into one range (across lanes too); then
 * each block of those groups takes its flag as @p after says. A batch
 * of all live blocks is one range, as a walk of every amplitude is. One
 * dispatch over the group space, parallel as forEachRange decides on
 * the live amplitudes; the groups partition the blocks, so no two
 * ranges write one flag.
 */
template <typename TakeLane, typename Kernel>
void
walkLiveGroups(Complex *amps, unsigned char *live, std::size_t n,
               std::size_t lanes, const BlockGroups &groups, AfterWalk after,
               const TakeLane &take_lane, const Kernel &kernel)
{
    const std::size_t perLane = std::size_t{1} << (n - groups.b);
    std::size_t liveBlocks = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
        if (take_lane(l))
            liveBlocks += countLive(live + l * perLane, perLane);
    }
    BlockTally tally(true);
    auto body = [&](std::size_t gb, std::size_t ge) {
        const auto [walked, skipped] = walkGroupRange(
            amps, live, groups, after, gb, ge, take_lane, kernel);
        tally.add(walked, skipped);
    };
    // std::ref keeps the std::function in its small buffer.
    kernels::forEachRange(lanes << groups.laneBits, liveBlocks << groups.b,
                          std::ref(body));
}

/** Every lane of a walk takes part. */
constexpr auto kAllLanes = [](std::size_t) { return true; };

/**
 * The idle walker over @p lanes lanes of 2^n. With @p events, lane l's
 * qubit q takes events[l] (see Relaxation); with @p p1, the same pass
 * then sets p1[l] = P(qubit qs = 1) of lane l. Returns false, walking
 * nothing, when every event is a no-op. @p live is StateLanes' block
 * mask, or nullptr when every amplitude is to be walked.
 *
 * A lane's P(1) sums its kReduceGrain chunks, each a chain of adds
 * from 0.0 over its bit-qs-set amplitudes in ascending order, and
 * folds them in chunk order from 0.0 as reduceChunked does: the value
 * depends only on the lane's amplitudes, not on how many lanes share
 * the buffer, which lanes relax, which blocks are live, or the
 * dispatch. Serial walks run the chains of all-live blocks kIdleChains
 * at a time, so their adds overlap; a chain with dead blocks walks its
 * live runs one at a time, its sum carried from run to run (a dead
 * block's terms are +0, which leave a sum as it is); a parallel
 * dispatch gives each chain its own task.
 *
 * Decay and a bare dephasing flip are real scales, dephasing folded
 * into the |1> factor (x * -k rounds to exactly -(x * k)), and leave
 * the flags alone. A jump moves amplitudes between the halves, so it
 * runs first, lane by lane, on the groups that hold a live block, marks
 * each block it wrote live, and its chains are then only summed.
 */
bool
idlePass(Complex *amps, std::size_t n, std::size_t lanes, std::size_t q,
         const Relaxation *events, std::size_t qs, double *p1,
         unsigned char *live)
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
    // Without a mask a chain is one live block.
    const std::size_t b = live != nullptr ? blockBits(n) : bits;
    const std::size_t perChain = len >> b;
    BlockTally tally(live != nullptr);
    if (events != nullptr) {
        const BlockGroups groups(n, q);
        for (std::size_t l = 0; l < lanes; ++l) {
            const Relaxation &ev = events[l];
            if (ev.damping != Relaxation::Damping::Jump)
                continue;
            auto jump = [&](std::size_t pb, std::size_t pe) {
                kernels::jumpRange(amps, pb, pe, q, ev.keep1, ev.dephase);
            };
            if (live == nullptr) {
                jump(l * dim / 2, (l + 1) * dim / 2);
                continue;
            }
            const auto [walked, skipped] = walkGroupRange(
                amps, live, groups, AfterWalk::MarkLive, l << groups.laneBits,
                (l + 1) << groups.laneBits, kAllLanes, jump);
            tally.add(walked, skipped);
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
    /** Whether every block of chain c is live (stops at a dead one). */
    auto allLiveIn = [&](std::size_t c) {
        return live == nullptr ||
               std::memchr(live + c * perChain, 0, perChain) == nullptr;
    };
    /** Blocks of chain c a walk of every amplitude would run on. */
    auto reads = [&](const Work &w) {
        const bool half = !w.scaled && chainQs != kernels::kNoBit &&
                          chainQs >= b;
        return half ? perChain / 2 : perChain;
    };
    // Run up to kIdleChains chains that share one kind of work.
    auto walk = [&](const std::size_t *ids, const Work *ws,
                    std::size_t count) {
        Complex *ptrs[kernels::kIdleChains];
        kernels::IdleScale scales[kernels::kIdleChains];
        double sums[kernels::kIdleChains] = {};
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
        tally.add(count * reads(ws[0]), 0);
    };
    // A chain with a dead block walks its live runs one call at a time.
    // Over a window of 2^win amplitudes the scale and sum bits at or
    // above b are constant, so each run takes one factor pair and
    // sums all, half or none of itself.
    auto sparse = [&](std::size_t c, const Work &w) {
        std::size_t win = bits;
        if (w.scaled && chainQ != kernels::kNoBit && chainQ >= b)
            win = chainQ;
        if (w.summed && chainQs != kernels::kNoBit && chainQs >= b)
            win = std::min(win, chainQs);
        const std::size_t winBlocks = std::size_t{1} << (win - b);
        const unsigned char *flags = live + c * perChain;
        double sum = 0.0;
        std::size_t walked = 0;
        std::size_t skipped = 0;
        for (std::size_t wb = 0; wb < perChain; wb += winBlocks) {
            const std::size_t offset = wb << b;
            kernels::IdleScale scale = w.scale;
            std::size_t kq = chainQ;
            if (chainQ != kernels::kNoBit && chainQ >= b) {
                if (((offset >> chainQ) & 1) != 0)
                    scale.f0 = scale.f1;
                kq = kernels::kNoBit;
            }
            const bool scaled =
                w.scaled && (scale.f0 != 1.0 ||
                             (kq != kernels::kNoBit && scale.f1 != 1.0));
            std::size_t ks = chainQs;
            bool summed = w.summed;
            if (chainQs != kernels::kNoBit && chainQs >= b) {
                summed = summed && ((offset >> chainQs) & 1) != 0;
                ks = kernels::kNoBit;
            }
            if (!scaled && !summed)
                continue;
            for (std::size_t k = wb; k < wb + winBlocks;) {
                if (flags[k] == 0) {
                    ++skipped;
                    ++k;
                    continue;
                }
                std::size_t end = k + 1;
                while (end < wb + winBlocks && flags[end] != 0)
                    ++end;
                Complex *start = amps + c * len + (k << b);
                kernels::idleChains(&start, 1, (end - k) << b, kq,
                                    scaled ? &scale : nullptr, ks,
                                    summed ? &sum : nullptr);
                walked += end - k;
                k = end;
            }
        }
        if (w.summed)
            partial[c] = sum;
        tally.add(walked, skipped);
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
            if (!allLiveIn(c)) {
                sparse(c, w);
                continue;
            }
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
    auto single = [&](std::size_t c) {
        const Work w = work(c);
        if (!w.scaled && !w.summed)
            return;
        if (allLiveIn(c))
            walk(&c, &w, 1);
        else
            sparse(c, w);
    };
    // std::ref keeps each std::function in its small buffer: no
    // allocation per pass.
    if (events == nullptr && chunks == 1) {
        // One chunk per lane: computed in place, as reduceChunked
        // computes a single chunk, with no dispatch.
        serial(0);
    } else {
        // A relax touches every live amplitude; a P(1) alone reads
        // half of them.
        const std::size_t liveAmps =
            live != nullptr ? countLive(live, chains * perChain) << b
                            : lanes << n;
        const std::size_t elements =
            events != nullptr ? liveAmps : liveAmps / 2;
        if (kernels::detail::dispatchJobs(chains, elements) <= 1)
            kernels::detail::dispatchChunks(1, elements, std::ref(serial));
        else
            kernels::detail::dispatchChunks(chains, elements,
                                            std::ref(single));
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
 * Project qubit q of lane l onto outcomes[l] over the bit-q pairs of
 * pair indices [@p pb, @p pe): the kept half scales by scales[l], the
 * other half is zeroed.
 */
void
collapseRange(Complex *amps, std::size_t n, std::size_t pb, std::size_t pe,
              std::size_t q, const int *outcomes, const double *scales)
{
    const std::size_t stride = std::size_t{1} << q;
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
}

/** StateVector's collapse: every pair of its one lane, one dispatch. */
void
collapseAll(Complex *amps, std::size_t n, std::size_t q, int outcome,
            double scale)
{
    const std::size_t size = std::size_t{1} << n;
    auto body = [&](std::size_t pb, std::size_t pe) {
        collapseRange(amps, n, pb, pe, q, &outcome, &scale);
    };
    kernels::forEachRange(size / 2, size, std::ref(body));
}

/**
 * Sample a basis state of one lane by a sequential prefix scan over
 * the blocks of 2^@p b amplitudes that @p live marks (every block when
 * it is nullptr). A dead block adds +0 to the prefix and could not end
 * the scan, so skipping it picks the same state.
 */
std::size_t
sampleBasis(const Complex *amps, std::size_t dim, stats::Rng &rng,
            const unsigned char *live, std::size_t b)
{
    // Inherently serial, and one pass of adds is memory-bound anyway.
    double r = rng.uniform();
    double acc = 0.0;
    const std::size_t blockSize = std::size_t{1} << b;
    for (std::size_t k = 0; k < dim >> b; ++k) {
        if (live != nullptr && live[k] == 0)
            continue;
        for (std::size_t idx = k * blockSize; idx < (k + 1) * blockSize;
             ++idx) {
            acc += std::norm(amps[idx]);
            if (r < acc)
                return idx;
        }
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
             q, &p1, nullptr);
    return p1;
}

int
StateVector::measure(std::size_t q, stats::Rng &rng)
{
    const double p1 = probabilityOfOne(q);
    const int outcome = rng.bernoulli(p1) ? 1 : 0;
    const double scale = measureScale(p1, outcome);
    collapseAll(amps_.data(), numQubits_, q, outcome, scale);
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
    collapseAll(amps_.data(), numQubits_, q, outcome, scale);
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
    return sampleBasis(amps_.data(), amps_.size(), rng, nullptr, numQubits_);
}

StateLanes::StateLanes(std::size_t num_qubits, std::size_t max_lanes)
    : numQubits_(num_qubits)
{
    checkDenseBudget(num_qubits, max_lanes);
    amps_.assign(max_lanes << num_qubits, Complex{0.0, 0.0});
    live_.assign(max_lanes << (num_qubits - blockBits(num_qubits)), 0);
}

void
StateLanes::resetToZero(std::size_t lanes)
{
    if (lanes > maxLanes())
        throw std::invalid_argument("StateLanes: more lanes than room");
    lanes_ = lanes;
    // Every live block, in the lanes a longer batch used too: a dead
    // block already holds only zeros.
    const std::size_t b = blockBits(numQubits_);
    for (std::size_t k = 0; k < live_.size(); ++k) {
        if (live_[k] == 0)
            continue;
        std::fill_n(amps_.begin() + static_cast<std::ptrdiff_t>(k << b),
                    std::size_t{1} << b, Complex{0.0, 0.0});
        live_[k] = 0;
    }
    for (std::size_t l = 0; l < lanes; ++l) {
        amps_[l << numQubits_] = 1.0;
        live_[l << (numQubits_ - b)] = 1;
    }
}

std::size_t
StateLanes::copyLane(std::size_t source)
{
    if (source >= lanes_ || lanes_ == maxLanes())
        throw std::invalid_argument("StateLanes: no lane to copy into");
    // The new lane is all zeros and dead blocks: the source's live
    // blocks and their flags are all that differs.
    const std::size_t b = blockBits(numQubits_);
    const std::size_t perLane = std::size_t{1} << (numQubits_ - b);
    const unsigned char *fromLive = live_.data() + source * perLane;
    unsigned char *toLive = live_.data() + lanes_ * perLane;
    const Complex *from = amps_.data() + (source << numQubits_);
    Complex *to = amps_.data() + (lanes_ << numQubits_);
    for (std::size_t k = 0; k < perLane; ++k) {
        if (fromLive[k] == 0)
            continue;
        std::copy_n(from + (k << b), std::size_t{1} << b, to + (k << b));
        toLive[k] = 1;
    }
    return lanes_++;
}

void
StateLanes::applyGate(const qc::Gate &gate)
{
    Complex *amps = amps_.data();
    const std::size_t n = numQubits_;
    const std::size_t arity = gate.qubits.size();
    if (gate.isUnitary() && arity == 1) {
        const std::size_t q = gate.qubits[0];
        checkQubitIndex(q, n);
        const Matrix2 m = gateMatrix1(gate);
        kernels::recordSimdPath();
        walkLiveGroups(amps, live_.data(), n, lanes_, BlockGroups(n, q),
                       AfterWalk::Rederive, kAllLanes,
                       [&](std::size_t pb, std::size_t pe) {
                           kernels::pairRange(amps, pb, pe, q, m);
                       });
    } else if (gate.isUnitary() && arity == 2) {
        const std::size_t q0 = gate.qubits[0], q1 = gate.qubits[1];
        checkQubitIndex(q0, n);
        checkQubitIndex(q1, n);
        if (q0 == q1)
            throw std::invalid_argument("StateVector: duplicate qubit");
        kernels::recordSimdPath();
        const Matrix4 m = gateMatrix2(gate);
        walkLiveGroups(amps, live_.data(), n, lanes_, BlockGroups(n, q0, q1),
                       AfterWalk::Rederive, kAllLanes,
                       [&](std::size_t kb, std::size_t ke) {
                           kernels::quadRange(amps, kb, ke, q0, q1, m);
                       });
    } else {
        // CCX / CSWAP move amplitudes between any blocks: walk every
        // amplitude and re-derive every flag. Throws for MEASURE,
        // RESET, BARRIER and a bad arity.
        dense::gateKernel(amps, lanes_ << n, n, gate);
        const std::size_t b = blockBits(n);
        const std::size_t blocks = lanes_ << (n - b);
        for (std::size_t k = 0; k < blocks; ++k)
            live_[k] = anyNonzero(amps + (k << b), std::size_t{1} << b);
        BlockTally(true).add(blocks, 0);
    }
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
    // One dispatch over the live groups of the lanes with a matrix;
    // each range runs one pairRange per lane segment.
    const std::size_t half = std::size_t{1} << (numQubits_ - 1);
    Complex *amps = amps_.data();
    walkLiveGroups(amps, live_.data(), numQubits_, lanes_,
                   BlockGroups(numQubits_, q), AfterWalk::Rederive,
                   [&](std::size_t l) { return per_lane[l] != nullptr; },
                   [&](std::size_t pb, std::size_t pe) {
                       for (std::size_t p = pb; p < pe;) {
                           const std::size_t lane = p / half;
                           const std::size_t end =
                               std::min(pe, (lane + 1) * half);
                           kernels::pairRange(amps, p, end, q,
                                              *per_lane[lane]);
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
    // A pass without events only reads the amplitudes and the flags.
    idlePass(const_cast<Complex *>(amps_.data()), numQubits_, lanes_, q,
             nullptr, q, out.data(),
             const_cast<unsigned char *>(live_.data()));
}

void
StateLanes::collapse(std::size_t q, const std::vector<int> &outcomes,
                     const std::vector<double> &p1)
{
    checkQubitIndex(q, numQubits_);
    scales_.resize(lanes_);
    for (std::size_t l = 0; l < lanes_; ++l)
        scales_[l] = measureScale(p1[l], outcomes[l]);
    Complex *amps = amps_.data();
    walkLiveGroups(amps, live_.data(), numQubits_, lanes_,
                   BlockGroups(numQubits_, q), AfterWalk::Rederive,
                   kAllLanes, [&](std::size_t pb, std::size_t pe) {
                       collapseRange(amps, numQubits_, pb, pe, q,
                                     outcomes.data(), scales_.data());
                   });
}

void
StateLanes::relax(std::size_t q, const std::vector<Relaxation> &events)
{
    checkQubitIndex(q, numQubits_);
    idlePass(amps_.data(), numQubits_, lanes_, q, events.data(), q,
             nullptr, live_.data());
}

bool
StateLanes::relax(std::size_t q, const std::vector<Relaxation> &events,
                  std::size_t next, std::vector<double> &p1)
{
    checkQubitIndex(q, numQubits_);
    checkQubitIndex(next, numQubits_);
    p1.resize(lanes_);
    return idlePass(amps_.data(), numQubits_, lanes_, q, events.data(), next,
                    p1.data(), live_.data());
}

std::size_t
StateLanes::sampleBasisState(std::size_t lane, stats::Rng &rng) const
{
    const std::size_t b = blockBits(numQubits_);
    return sampleBasis(amps_.data() + (lane << numQubits_),
                       std::size_t{1} << numQubits_, rng,
                       live_.data() + (lane << (numQubits_ - b)), b);
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
    // <psi|P|psi> for P = i^r X^x Z^z, summed in one pass over the
    // amplitudes with no copy of the state: for basis state |s>, Z^z
    // contributes (-1)^(z . s) and X^x maps |s> -> |s ^ x>.
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
