/**
 * @file
 * AVX2 bodies for the range kernels and walkers — the only TU built with
 * -mavx2 (and deliberately *not* -mfma: the scalar reference path has
 * no fused multiply-adds, and bitwise agreement between the two is a
 * tested invariant, so the vector path must round every product the
 * same way).
 *
 * Layout: a __m256d holds two std::complex<double> as
 * [re0, im0, re1, im1]. For a coefficient c, the product c*a is
 * computed as addsub(a * c.re, swap(a) * c.im) =
 * [ar*cr - ai*ci, ai*cr + ar*ci] — the operation order mirrored by
 * kernels::coeffMul and the scalar loops in simd.cpp.
 *
 * Where a run is shorter than a vector the operands are regathered by
 * 128-bit halves instead: at stride 1 one vector holds a whole pair,
 * and quads whose lower bit is bit 0 go two to a vector. Every element
 * still sees the scalar body's products and sums in the scalar order.
 *
 * The density matrix's block walkers hold element (i, j) of two
 * neighbouring blocks in one vector, so each block's row pass, column
 * pass and channel run as the scalar body runs them on one block; at
 * bit 0 the blocks are regathered by 128-bit halves the same way.
 *
 * The idle walker holds one pair per vector too, so a stride-1 scale
 * is one multiply by [f0, f0, f1, f1]. Its sums keep the four chains'
 * accumulators in the four lanes of one vector: lane k starts from
 * chain k's incoming sum and adds its terms in the scalar order, and
 * the chains' adds run side by side.
 */

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <type_traits>

#include "sim/simd.hpp"

namespace smq::sim::kernels {

namespace {

struct CoeffVec
{
    __m256d re, im;
};

inline CoeffVec
broadcast(const Complex &c)
{
    return {_mm256_set1_pd(c.real()), _mm256_set1_pd(c.imag())};
}

/** @p lo for the low complex of a vector, @p hi for the high one. */
inline CoeffVec
halves(const Complex &lo, const Complex &hi)
{
    return {_mm256_setr_pd(lo.real(), lo.real(), hi.real(), hi.real()),
            _mm256_setr_pd(lo.imag(), lo.imag(), hi.imag(), hi.imag())};
}

/** c * a for two packed complex values. */
inline __m256d
mulCoeff(const CoeffVec &c, __m256d a)
{
    const __m256d swapped = _mm256_permute_pd(a, 0x5);
    return _mm256_addsub_pd(_mm256_mul_pd(a, c.re),
                            _mm256_mul_pd(swapped, c.im));
}

/**
 * @p k with a zero inserted at bit @p p. This TU keeps its own copy of
 * the index helper so no inline function is compiled here for AVX2 and
 * shared with the base-ISA translation units.
 */
inline std::size_t
insertZero(std::size_t k, std::size_t p)
{
    return ((k >> p) << (p + 1)) | (k & ((std::size_t{1} << p) - 1));
}

/**
 * out[r] = ((c[4r] a0 + c[4r+1] a1) + c[4r+2] a2) + c[4r+3] a3. Fully
 * unrolled, so the operands stay in registers (at -O2 GCC otherwise
 * keeps these small arrays on the stack).
 */
inline void
quadFold(const CoeffVec (&c)[16], const __m256d (&in)[4], __m256d (&out)[4])
{
#pragma GCC unroll 4
    for (int r = 0; r < 4; ++r) {
        __m256d acc = mulCoeff(c[r * 4], in[0]);
#pragma GCC unroll 3
        for (int j = 1; j < 4; ++j)
            acc = _mm256_add_pd(acc, mulCoeff(c[r * 4 + j], in[j]));
        out[r] = acc;
    }
}

/**
 * The quad-order operands v[0..3] (offsets 0, s1, s0, s0 + s1) of the
 * quads at @p a and @p b of a gate whose lower bit is bit 0, quad a in
 * each vector's low half and quad b in its high half, regathered from
 * their bit-0 pairs by 128-bit halves.
 */
template <bool kFirstOnBit0>
[[gnu::always_inline]] inline void
gatherBit0(const double *base, std::size_t a, std::size_t b,
           std::size_t sHigh, __m256d (&v)[4])
{
    const __m256d la = _mm256_loadu_pd(base + 2 * a);
    const __m256d lb = _mm256_loadu_pd(base + 2 * b);
    const __m256d ha = _mm256_loadu_pd(base + 2 * (a + sHigh));
    const __m256d hb = _mm256_loadu_pd(base + 2 * (b + sHigh));
    const __m256d e1 = _mm256_permute2f128_pd(la, lb, 0x31);
    const __m256d e2 = _mm256_permute2f128_pd(ha, hb, 0x20);
    v[0] = _mm256_permute2f128_pd(la, lb, 0x20);
    v[1] = kFirstOnBit0 ? e2 : e1;
    v[2] = kFirstOnBit0 ? e1 : e2;
    v[3] = _mm256_permute2f128_pd(ha, hb, 0x31);
}

/** gatherBit0's inverse. */
template <bool kFirstOnBit0>
[[gnu::always_inline]] inline void
scatterBit0(double *base, std::size_t a, std::size_t b, std::size_t sHigh,
            const __m256d (&v)[4])
{
    const __m256d e1 = kFirstOnBit0 ? v[2] : v[1];
    const __m256d e2 = kFirstOnBit0 ? v[1] : v[2];
    _mm256_storeu_pd(base + 2 * a, _mm256_permute2f128_pd(v[0], e1, 0x20));
    _mm256_storeu_pd(base + 2 * b, _mm256_permute2f128_pd(v[0], e1, 0x31));
    _mm256_storeu_pd(base + 2 * (a + sHigh),
                     _mm256_permute2f128_pd(e2, v[3], 0x20));
    _mm256_storeu_pd(base + 2 * (b + sHigh),
                     _mm256_permute2f128_pd(e2, v[3], 0x31));
}

/**
 * Quads k and k + 1 of a (0, @p high) gate side by side, from @p kb
 * while two remain before @p ke; returns where it stopped.
 */
template <bool kFirstOnBit0>
std::size_t
quadPairsOnBit0(double *base, std::size_t kb, std::size_t ke,
                std::size_t high, const CoeffVec (&c)[16])
{
    const std::size_t sHigh = std::size_t{1} << high;
    std::size_t k = kb;
    for (; k + 2 <= ke; k += 2) {
        const std::size_t a = insertZero(2 * k, high);
        const std::size_t b = insertZero(2 * k + 2, high);
        __m256d in[4], out[4];
        gatherBit0<kFirstOnBit0>(base, a, b, sHigh, in);
        quadFold(c, in, out);
        scatterBit0<kFirstOnBit0>(base, a, b, sHigh, out);
    }
    return k;
}

// The idle walker's run structure: a chain splits into runs over which
// neither the scale bit nor the sum bit changes, and the runtime
// (count, scale, sum) of a call selects one compile-time instantiation.

/** Which amplitudes of a walk enter its sums. */
enum class IdleSum {
    None,  ///< no sum
    Bit0,  ///< the sum bit is bit 0: each pair's high amplitude
    Runs,  ///< the sum bit is bit 1 or above: every other run
    Every, ///< kNoBit: every amplitude
};

/** What one run adds to its chains, per pair of amplitudes. */
enum class IdleTerms {
    None, ///< nothing
    High, ///< the high amplitude
    Both, ///< the low, then the high amplitude
};

template <IdleTerms kTerms>
using TermsTag = std::integral_constant<IdleTerms, kTerms>;

/** Which of a chain's two factors a run takes. */
template <std::size_t kHalf>
using HalfTag = std::integral_constant<std::size_t, kHalf>;

/**
 * acc = run(terms, i, r, half, acc) for runs [i, i + r) that tile
 * [0, len) in ascending order, then return acc. terms is a TermsTag
 * and half a HalfTag, both compile-time at every call so each run body
 * is inlined with its factors in registers; the sums go by value, so
 * they stay in registers too. half is bit @p q of the run when the
 * scale alternates by run (q >= 1), else 0: at q = 0 every pair holds
 * both factors, and kNoBit has one. A sum-only walk skips the runs
 * with the sum bit clear.
 */
template <bool kScale, IdleSum kSum, typename Acc, typename RunFn>
[[gnu::always_inline]] inline Acc
walkIdleRuns(std::size_t len, std::size_t q, std::size_t qs, Acc acc,
             const RunFn &run)
{
    constexpr TermsTag<IdleTerms::None> none;
    constexpr TermsTag<IdleTerms::Both> both;
    const bool scaleRuns = kScale && q != kNoBit && q > 0;
    const std::size_t rq = scaleRuns ? std::size_t{1} << q : len;
    // [start, start + length) in runs of rq, the factor alternating.
    auto alternate = [&](auto terms, std::size_t start, std::size_t length,
                         Acc a) __attribute__((always_inline)) {
        if (!scaleRuns)
            return run(terms, start, length, HalfTag<0>{}, a);
        for (std::size_t j = start; j < start + length; j += 2 * rq) {
            a = run(terms, j, rq, HalfTag<0>{}, a);
            a = run(terms, j + rq, rq, HalfTag<1>{}, a);
        }
        return a;
    };
    if constexpr (kSum == IdleSum::None) {
        return alternate(none, 0, len, acc);
    } else if constexpr (kSum == IdleSum::Bit0) {
        return alternate(TermsTag<IdleTerms::High>{}, 0, len, acc);
    } else if constexpr (kSum == IdleSum::Every) {
        return alternate(both, 0, len, acc);
    } else {
        const std::size_t rs = std::size_t{1} << qs;
        if (!scaleRuns || q < qs) {
            // Each sum-bit run holds whole scale runs.
            for (std::size_t i = 0; i < len; i += 2 * rs) {
                if constexpr (kScale)
                    acc = alternate(none, i, rs, acc);
                acc = alternate(both, i + rs, rs, acc);
            }
        } else if (q == qs) {
            for (std::size_t i = 0; i < len; i += 2 * rs) {
                acc = run(none, i, rs, HalfTag<0>{}, acc);
                acc = run(both, i + rs, rs, HalfTag<1>{}, acc);
            }
        } else {
            // Each scale run holds whole sum-bit runs.
            for (std::size_t i = 0; i < len; i += 2 * rq) {
                for (std::size_t j = i; j < i + rq; j += 2 * rs) {
                    acc = run(none, j, rs, HalfTag<0>{}, acc);
                    acc = run(both, j + rs, rs, HalfTag<0>{}, acc);
                }
                for (std::size_t j = i + rq; j < i + 2 * rq; j += 2 * rs) {
                    acc = run(none, j, rs, HalfTag<1>{}, acc);
                    acc = run(both, j + rs, rs, HalfTag<1>{}, acc);
                }
            }
        }
        return acc;
    }
}

/**
 * fn(K, kScale, kSum) with each a std::integral_constant, for the
 * chain count, whether @p scale is set and what @p sums / @p qs ask.
 */
template <typename Fn>
inline void
dispatchIdle(std::size_t count, const IdleScale *scale, std::size_t qs,
             const double *sums, const Fn &fn)
{
    const IdleSum sum = sums == nullptr ? IdleSum::None
                        : qs == kNoBit  ? IdleSum::Every
                        : qs == 0       ? IdleSum::Bit0
                                        : IdleSum::Runs;
    auto bySum = [&](auto k, auto scaled) {
        switch (sum) {
          case IdleSum::None:
            if constexpr (decltype(scaled)::value)
                fn(k, scaled,
                   std::integral_constant<IdleSum, IdleSum::None>{});
            return;
          case IdleSum::Bit0:
            fn(k, scaled, std::integral_constant<IdleSum, IdleSum::Bit0>{});
            return;
          case IdleSum::Runs:
            fn(k, scaled, std::integral_constant<IdleSum, IdleSum::Runs>{});
            return;
          case IdleSum::Every:
            fn(k, scaled,
               std::integral_constant<IdleSum, IdleSum::Every>{});
            return;
        }
    };
    auto byScale = [&](auto k) {
        if (scale != nullptr)
            bySum(k, std::true_type{});
        else
            bySum(k, std::false_type{});
    };
    switch (count) {
      case 1:
        byScale(std::integral_constant<std::size_t, 1>{});
        return;
      case 2:
        byScale(std::integral_constant<std::size_t, 2>{});
        return;
      case 3:
        byScale(std::integral_constant<std::size_t, 3>{});
        return;
      default:
        byScale(std::integral_constant<std::size_t, kIdleChains>{});
        return;
    }
}

// The density matrix's block walkers hold two blocks side by side:
// vector b[i][j] is element (i, j) of one block in its low half and
// of the next block along the row in its high half.

using ChannelKind = DmChannel::Kind;

template <ChannelKind kKind>
using KindTag = std::integral_constant<ChannelKind, kKind>;

/** fn(gate, kind) as std::integral_constants; see simd.cpp's twin. */
template <typename Fn>
void
dispatchDm(const void *u, ChannelKind kind, const Fn &fn)
{
    auto byKind = [&](auto gate) {
        switch (kind) {
          case ChannelKind::None:
            if constexpr (decltype(gate)::value)
                fn(gate, KindTag<ChannelKind::None>{});
            return;
          case ChannelKind::Depolarize:
            fn(gate, KindTag<ChannelKind::Depolarize>{});
            return;
          case ChannelKind::Relax:
            if constexpr (!decltype(gate)::value)
                fn(gate, KindTag<ChannelKind::Relax>{});
            return;
        }
    };
    if (u != nullptr)
        byKind(std::true_type{});
    else
        byKind(std::false_type{});
}

/** U's coefficients and conj(U)'s, broadcast; the conjugate negates
 *  each imaginary part, as std::conj does. */
template <std::size_t kSize>
void
gateCoeffs(const std::array<Complex, kSize> *u, CoeffVec (&m)[kSize],
           CoeffVec (&d)[kSize])
{
    for (std::size_t k = 0; k < kSize; ++k) {
        m[k] = broadcast((*u)[k]);
        d[k] = {m[k].re, _mm256_set1_pd(-(*u)[k].imag())};
    }
}

/** (a0, a1) <- m (a0, a1), pairRangeAvx2's sums. */
[[gnu::always_inline]] inline void
pairMul(const CoeffVec (&m)[4], __m256d &a0, __m256d &a1)
{
    const __m256d lo = _mm256_add_pd(mulCoeff(m[0], a0), mulCoeff(m[1], a1));
    a1 = _mm256_add_pd(mulCoeff(m[2], a0), mulCoeff(m[3], a1));
    a0 = lo;
}

/** One step on two 2x2 blocks b00, b01, b10, b11; f: the channel's
 *  f0, f1, f2. */
template <bool kGate, ChannelKind kKind>
[[gnu::always_inline]] inline void
pairBlocks(const CoeffVec (&m)[4], const CoeffVec (&d)[4],
           const __m256d (&f)[3], __m256d (&b)[4])
{
    if constexpr (kGate) {
        pairMul(m, b[0], b[2]);
        pairMul(m, b[1], b[3]);
        pairMul(d, b[0], b[1]);
        pairMul(d, b[2], b[3]);
    }
    if constexpr (kKind == ChannelKind::Depolarize) {
        const __m256d b00 = b[0], b11 = b[3];
        b[0] = _mm256_add_pd(_mm256_mul_pd(f[0], b00),
                             _mm256_mul_pd(f[1], b11));
        b[3] = _mm256_add_pd(_mm256_mul_pd(f[1], b00),
                             _mm256_mul_pd(f[0], b11));
    } else if constexpr (kKind == ChannelKind::Relax) {
        b[0] = _mm256_add_pd(b[0], _mm256_mul_pd(f[0], b[3]));
        b[3] = _mm256_mul_pd(f[1], b[3]);
    }
    if constexpr (kKind != ChannelKind::None) {
        b[1] = _mm256_mul_pd(b[1], f[2]);
        b[2] = _mm256_mul_pd(b[2], f[2]);
    }
}

/**
 * U on each column's row quad of two 4x4 blocks, then conj(U) on each
 * row's column quad. noinline: the blocks go through memory between
 * the two passes either way, and one copy serves every channel and
 * column layout.
 */
[[gnu::noinline]] void
quadGate(const CoeffVec (&m)[16], const CoeffVec (&d)[16],
         __m256d (&b)[4][4])
{
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) {
        const __m256d in[4] = {b[0][j], b[1][j], b[2][j], b[3][j]};
        __m256d out[4];
        quadFold(m, in, out);
#pragma GCC unroll 4
        for (int i = 0; i < 4; ++i)
            b[i][j] = out[i];
    }
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
        const __m256d in[4] = {b[i][0], b[i][1], b[i][2], b[i][3]};
        quadFold(d, in, b[i]);
    }
}

/** The two-qubit twirl on two 4x4 blocks: B <- f0 B + f1 Tr(B) I. */
[[gnu::always_inline]] inline void
quadTwirl(const __m256d (&f)[3], __m256d (&b)[4][4])
{
    const __m256d tr = _mm256_add_pd(
        _mm256_add_pd(_mm256_add_pd(b[0][0], b[1][1]), b[2][2]), b[3][3]);
    const __m256d diag = _mm256_mul_pd(f[1], tr);
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
#pragma GCC unroll 4
        for (int j = 0; j < 4; ++j) {
            b[i][j] = _mm256_mul_pd(f[0], b[i][j]);
            if (i == j)
                b[i][j] = _mm256_add_pd(b[i][j], diag);
        }
    }
}

template <bool kGate, ChannelKind kKind>
void
dmPairAvx2(double *base, std::size_t n, std::size_t pb, std::size_t pe,
           std::size_t q, const Matrix2 *u, const DmChannel &ch)
{
    CoeffVec m[4] = {}, d[4] = {};
    if constexpr (kGate)
        gateCoeffs(u, m, d);
    const __m256d f[3] = {_mm256_set1_pd(ch.f0), _mm256_set1_pd(ch.f1),
                          _mm256_set1_pd(ch.f2)};
    const std::size_t dim = std::size_t{1} << n;
    const std::size_t s = std::size_t{1} << q;
    for (std::size_t p = pb; p < pe; ++p) {
        double *row0 = base + 2 * dim * insertZero(p, q);
        double *row1 = row0 + 2 * dim * s;
        if (q == 0) {
            // Blocks (c, c + 1) and (c + 2, c + 3), regathered by
            // 128-bit halves.
            for (std::size_t c = 0; c < dim; c += 4) {
                const __m256d l0 = _mm256_loadu_pd(row0 + 2 * c);
                const __m256d h0 = _mm256_loadu_pd(row0 + 2 * c + 4);
                const __m256d l1 = _mm256_loadu_pd(row1 + 2 * c);
                const __m256d h1 = _mm256_loadu_pd(row1 + 2 * c + 4);
                __m256d b[4] = {_mm256_permute2f128_pd(l0, h0, 0x20),
                                _mm256_permute2f128_pd(l0, h0, 0x31),
                                _mm256_permute2f128_pd(l1, h1, 0x20),
                                _mm256_permute2f128_pd(l1, h1, 0x31)};
                pairBlocks<kGate, kKind>(m, d, f, b);
                _mm256_storeu_pd(row0 + 2 * c,
                                 _mm256_permute2f128_pd(b[0], b[1], 0x20));
                _mm256_storeu_pd(row0 + 2 * c + 4,
                                 _mm256_permute2f128_pd(b[0], b[1], 0x31));
                _mm256_storeu_pd(row1 + 2 * c,
                                 _mm256_permute2f128_pd(b[2], b[3], 0x20));
                _mm256_storeu_pd(row1 + 2 * c + 4,
                                 _mm256_permute2f128_pd(b[2], b[3], 0x31));
            }
            continue;
        }
        for (std::size_t c0 = 0; c0 < dim; c0 += 2 * s) {
            for (std::size_t c = c0; c < c0 + s; c += 2) {
                double *x[4] = {row0 + 2 * c, row0 + 2 * (c + s),
                                row1 + 2 * c, row1 + 2 * (c + s)};
                __m256d b[4] = {_mm256_loadu_pd(x[0]), _mm256_loadu_pd(x[1]),
                                _mm256_loadu_pd(x[2]), _mm256_loadu_pd(x[3])};
                pairBlocks<kGate, kKind>(m, d, f, b);
#pragma GCC unroll 4
                for (int i = 0; i < 4; ++i)
                    _mm256_storeu_pd(x[i], b[i]);
            }
        }
    }
}

template <bool kGate, ChannelKind kKind>
void
dmQuadAvx2(double *base, std::size_t n, std::size_t kb, std::size_t ke,
           std::size_t q0, std::size_t q1, const Matrix4 *u,
           const DmChannel &ch)
{
    CoeffVec m[16] = {}, d[16] = {};
    if constexpr (kGate)
        gateCoeffs(u, m, d);
    const __m256d f[3] = {_mm256_set1_pd(ch.f0), _mm256_set1_pd(ch.f1),
                          _mm256_set1_pd(ch.f2)};
    const std::size_t dim = std::size_t{1} << n;
    const std::size_t s0 = std::size_t{1} << q0;
    const std::size_t s1 = std::size_t{1} << q1;
    const std::size_t low = std::min(q0, q1), high = std::max(q0, q1);
    const std::size_t sHigh = std::size_t{1} << high;
    const std::size_t off[4] = {0, s1, s0, s0 + s1};
    // Column quads kc and kc + 1 side by side, in a row's quad order.
    auto walk = [&](auto gather, auto scatter) {
        for (std::size_t k = kb; k < ke; ++k) {
            const std::size_t r = insertZero(insertZero(k, low), high);
            double *rows[4];
            for (std::size_t i = 0; i < 4; ++i)
                rows[i] = base + 2 * dim * (r + off[i]);
            for (std::size_t kc = 0; kc < dim / 4; kc += 2) {
                __m256d b[4][4];
                for (std::size_t i = 0; i < 4; ++i)
                    gather(rows[i], kc, b[i]);
                if constexpr (kGate)
                    quadGate(m, d, b);
                if constexpr (kKind == ChannelKind::Depolarize)
                    quadTwirl(f, b);
                for (std::size_t i = 0; i < 4; ++i)
                    scatter(rows[i], kc, b[i]);
            }
        }
    };
    if (low > 0) {
        // Quads kc and kc + 1 are adjacent columns.
        walk(
            [&](const double *row, std::size_t kc, __m256d(&v)[4]) {
                const std::size_t c = insertZero(insertZero(kc, low), high);
                for (std::size_t j = 0; j < 4; ++j)
                    v[j] = _mm256_loadu_pd(row + 2 * (c + off[j]));
            },
            [&](double *row, std::size_t kc, const __m256d(&v)[4]) {
                const std::size_t c = insertZero(insertZero(kc, low), high);
                for (std::size_t j = 0; j < 4; ++j)
                    _mm256_storeu_pd(row + 2 * (c + off[j]), v[j]);
            });
        return;
    }
    auto bit0 = [&](auto first) {
        constexpr bool kFirst = decltype(first)::value;
        walk(
            [&](const double *row, std::size_t kc, __m256d(&v)[4]) {
                gatherBit0<kFirst>(row, insertZero(2 * kc, high),
                                   insertZero(2 * kc + 2, high), sHigh, v);
            },
            [&](double *row, std::size_t kc, const __m256d(&v)[4]) {
                scatterBit0<kFirst>(row, insertZero(2 * kc, high),
                                    insertZero(2 * kc + 2, high), sHigh, v);
            });
    };
    if (q0 == 0)
        bit0(std::true_type{});
    else
        bit0(std::false_type{});
}

} // namespace

void
pairRangeAvx2(Complex *amps, std::size_t pb, std::size_t pe, std::size_t q,
              const Matrix2 &m)
{
    double *base = reinterpret_cast<double *>(amps);
    if (q == 0) {
        // Pair p is amplitudes 2p and 2p + 1: broadcast each half of
        // the vector and combine with the matrix rows side by side.
        const CoeffVec left = halves(m[0], m[2]), right = halves(m[1], m[3]);
        for (std::size_t p = pb; p < pe; ++p) {
            const __m256d v = _mm256_loadu_pd(base + 4 * p);
            const __m256d a0 = _mm256_permute2f128_pd(v, v, 0x00);
            const __m256d a1 = _mm256_permute2f128_pd(v, v, 0x11);
            _mm256_storeu_pd(base + 4 * p,
                             _mm256_add_pd(mulCoeff(left, a0),
                                           mulCoeff(right, a1)));
        }
        return;
    }
    const CoeffVec m0 = broadcast(m[0]), m1 = broadcast(m[1]);
    const CoeffVec m2 = broadcast(m[2]), m3 = broadcast(m[3]);
    const std::size_t stride = std::size_t{1} << q;
    std::size_t p = pb;
    while (p < pe) {
        const std::size_t run =
            std::min(stride - (p & (stride - 1)), pe - p);
        double *plo = base + 2 * insertZero(p, q);
        double *phi = plo + 2 * stride;
        std::size_t k = 0;
        for (; k + 2 <= run; k += 2) {
            const __m256d a0 = _mm256_loadu_pd(plo + 2 * k);
            const __m256d a1 = _mm256_loadu_pd(phi + 2 * k);
            _mm256_storeu_pd(plo + 2 * k, _mm256_add_pd(mulCoeff(m0, a0),
                                                        mulCoeff(m1, a1)));
            _mm256_storeu_pd(phi + 2 * k, _mm256_add_pd(mulCoeff(m2, a0),
                                                        mulCoeff(m3, a1)));
        }
        if (k < run)
            pairRangeScalar(amps, p + k, p + run, q, m);
        p += run;
    }
}

void
idleChainsAvx2(Complex *const *chains, std::size_t count, std::size_t len,
               std::size_t q, const IdleScale *scale, std::size_t qs,
               double *sums)
{
    // noinline: each instantiation gets its own registers, so the
    // loop keeps its sums in them rather than on the stack.
    dispatchIdle(count, scale, qs, sums,
                 [&](auto k, auto scaled, auto sum) __attribute__((noinline)) {
        constexpr std::size_t K = decltype(k)::value;
        constexpr bool kScale = decltype(scaled)::value;
        double *p[K];
        // f[b][k]: chain k's factors in a run whose scale bit is b.
        __m256d f[2][K];
        for (std::size_t c = 0; c < K; ++c) {
            p[c] = reinterpret_cast<double *>(chains[c]);
            if constexpr (kScale) {
                const IdleScale &s = scale[c];
                f[0][c] = q == 0 ? _mm256_setr_pd(s.f0, s.f0, s.f1, s.f1)
                                 : _mm256_set1_pd(s.f0);
                f[1][c] = _mm256_set1_pd(q == kNoBit ? s.f0 : s.f1);
            }
        }
        const __m256d zero = _mm256_setzero_pd();
        // Lane k starts from sums[k]; the lanes past K stay 0.
        __m256d start = zero;
        if (sums != nullptr) {
            double in[kIdleChains] = {};
            std::copy(sums, sums + K, in);
            start = _mm256_loadu_pd(in);
        }
        const __m256d acc = walkIdleRuns<kScale, decltype(sum)::value>(
            len, q, qs, start,
            [&](auto terms, std::size_t i, std::size_t r, auto half,
                __m256d a) __attribute__((always_inline)) {
                constexpr IdleTerms kTerms = decltype(terms)::value;
                const __m256d *fr = f[decltype(half)::value];
                for (std::size_t j = 2 * i; j < 2 * (i + r); j += 4) {
                    __m256d v[kIdleChains];
#pragma GCC unroll 4
                    for (std::size_t c = 0; c < kIdleChains; ++c) {
                        if (c >= K) {
                            v[c] = zero;
                            continue;
                        }
                        v[c] = _mm256_loadu_pd(p[c] + j);
                        if constexpr (kScale) {
                            v[c] = _mm256_mul_pd(v[c], fr[c]);
                            _mm256_storeu_pd(p[c] + j, v[c]);
                        }
                    }
                    if constexpr (kTerms != IdleTerms::None) {
                        // hadd of the squares: [lo0, lo1, hi0, hi1] and
                        // [lo2, lo3, hi2, hi3], each re*re + im*im.
                        const __m256d n01 = _mm256_hadd_pd(
                            _mm256_mul_pd(v[0], v[0]),
                            _mm256_mul_pd(v[1], v[1]));
                        const __m256d n23 = _mm256_hadd_pd(
                            _mm256_mul_pd(v[2], v[2]),
                            _mm256_mul_pd(v[3], v[3]));
                        if constexpr (kTerms == IdleTerms::Both)
                            a = _mm256_add_pd(
                                a, _mm256_permute2f128_pd(n01, n23, 0x20));
                        a = _mm256_add_pd(
                            a, _mm256_permute2f128_pd(n01, n23, 0x31));
                    }
                }
                return a;
            });
        if (sums != nullptr) {
            // Lane by lane: a store of the whole vector to a stack
            // array makes GCC keep the sums in memory inside the loop.
            const __m128d lo = _mm256_castpd256_pd128(acc);
            const __m128d hi = _mm256_extractf128_pd(acc, 1);
            _mm_storel_pd(sums, lo);
            if constexpr (K > 1)
                _mm_storeh_pd(sums + 1, lo);
            if constexpr (K > 2)
                _mm_storel_pd(sums + 2, hi);
            if constexpr (K > 3)
                _mm_storeh_pd(sums + 3, hi);
        }
    });
}

void
quadRangeAvx2(Complex *amps, std::size_t kb, std::size_t ke, std::size_t q0,
              std::size_t q1, const Matrix4 &m)
{
    CoeffVec c[16];
    for (std::size_t i = 0; i < 16; ++i)
        c[i] = broadcast(m[i]);
    double *base = reinterpret_cast<double *>(amps);
    const std::size_t s0 = std::size_t{1} << q0;
    const std::size_t s1 = std::size_t{1} << q1;
    const std::size_t low = std::min(q0, q1), high = std::max(q0, q1);
    if (low == 0) {
        const std::size_t k = q0 == 0
                                  ? quadPairsOnBit0<true>(base, kb, ke, high, c)
                                  : quadPairsOnBit0<false>(base, kb, ke, high, c);
        if (k < ke)
            quadRangeScalar(amps, k, ke, q0, q1, m);
        return;
    }
    const std::size_t sLow = std::size_t{1} << low;
    std::size_t k = kb;
    while (k < ke) {
        const std::size_t run = std::min(sLow - (k & (sLow - 1)), ke - k);
        const std::size_t idx = insertZero(insertZero(k, low), high);
        double *rows[4] = {base + 2 * idx, base + 2 * (idx + s1),
                           base + 2 * (idx + s0), base + 2 * (idx + s0 + s1)};
        std::size_t j = 0;
        for (; j + 2 <= run; j += 2) {
            const __m256d in[4] = {_mm256_loadu_pd(rows[0] + 2 * j),
                                   _mm256_loadu_pd(rows[1] + 2 * j),
                                   _mm256_loadu_pd(rows[2] + 2 * j),
                                   _mm256_loadu_pd(rows[3] + 2 * j)};
            __m256d out[4];
            quadFold(c, in, out);
#pragma GCC unroll 4
            for (int r = 0; r < 4; ++r)
                _mm256_storeu_pd(rows[r] + 2 * j, out[r]);
        }
        if (j < run)
            quadRangeScalar(amps, k + j, k + run, q0, q1, m);
        k += run;
    }
}

void
dmPairRangeAvx2(Complex *rho, std::size_t n, std::size_t pb, std::size_t pe,
                std::size_t q, const Matrix2 *u, const DmChannel &channel)
{
    dispatchDm(u, channel.kind, [&](auto gate, auto kind) {
        dmPairAvx2<decltype(gate)::value, decltype(kind)::value>(
            reinterpret_cast<double *>(rho), n, pb, pe, q, u, channel);
    });
}

void
dmQuadRangeAvx2(Complex *rho, std::size_t n, std::size_t kb, std::size_t ke,
                std::size_t q0, std::size_t q1, const Matrix4 *u,
                const DmChannel &channel)
{
    dispatchDm(u, channel.kind, [&](auto gate, auto kind) {
        if constexpr (decltype(kind)::value != ChannelKind::Relax)
            dmQuadAvx2<decltype(gate)::value, decltype(kind)::value>(
                reinterpret_cast<double *>(rho), n, kb, ke, q0, q1, u,
                channel);
    });
}

} // namespace smq::sim::kernels
