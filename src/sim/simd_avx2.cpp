/**
 * @file
 * AVX2 bodies for the pair/quad range kernels — the only TU built with
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
 */

#include <immintrin.h>

#include <algorithm>

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
 * Quads k and k + 1 of a (0, @p high) gate side by side, from @p kb
 * while two remain before @p ke; returns where it stopped. e[x] holds
 * the amplitude with bit 0 = x & 1 and the high bit = x >> 1 of both
 * quads, gathered from their bit-0 pairs by 128-bit halves. The
 * operands a0..a3 are e[0], e[2], e[1], e[3] when the first operand
 * is on bit 0 and e[0..3] when the second is.
 */
template <bool kFirstOnBit0>
std::size_t
quadPairsOnBit0(double *base, std::size_t kb, std::size_t ke,
                std::size_t high, const CoeffVec (&c)[16])
{
    const std::size_t sHigh = std::size_t{1} << high;
    std::size_t k = kb;
    for (; k + 2 <= ke; k += 2) {
        double *a = base + 2 * insertZero(2 * k, high);
        double *b = base + 2 * insertZero(2 * k + 2, high);
        const __m256d la = _mm256_loadu_pd(a);
        const __m256d lb = _mm256_loadu_pd(b);
        const __m256d ha = _mm256_loadu_pd(a + 2 * sHigh);
        const __m256d hb = _mm256_loadu_pd(b + 2 * sHigh);
        const __m256d e0 = _mm256_permute2f128_pd(la, lb, 0x20);
        const __m256d e1 = _mm256_permute2f128_pd(la, lb, 0x31);
        const __m256d e2 = _mm256_permute2f128_pd(ha, hb, 0x20);
        const __m256d e3 = _mm256_permute2f128_pd(ha, hb, 0x31);
        const __m256d in[4] = {e0, kFirstOnBit0 ? e2 : e1,
                               kFirstOnBit0 ? e1 : e2, e3};
        __m256d out[4];
        quadFold(c, in, out);
        const __m256d f1 = kFirstOnBit0 ? out[2] : out[1];
        const __m256d f2 = kFirstOnBit0 ? out[1] : out[2];
        _mm256_storeu_pd(a, _mm256_permute2f128_pd(out[0], f1, 0x20));
        _mm256_storeu_pd(b, _mm256_permute2f128_pd(out[0], f1, 0x31));
        _mm256_storeu_pd(a + 2 * sHigh,
                         _mm256_permute2f128_pd(f2, out[3], 0x20));
        _mm256_storeu_pd(b + 2 * sHigh,
                         _mm256_permute2f128_pd(f2, out[3], 0x31));
    }
    return k;
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

} // namespace smq::sim::kernels
