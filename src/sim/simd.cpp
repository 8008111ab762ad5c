#include "sim/simd.hpp"

#include <algorithm>
#include <type_traits>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "sim/dense_kernels.hpp"
#include "sim/kernels.hpp"

namespace smq::sim::kernels {

#ifdef SMQ_HAVE_AVX2
// Implemented in simd_avx2.cpp (the only TU built with -mavx2).
void pairRangeAvx2(Complex *amps, std::size_t pb, std::size_t pe,
                   std::size_t q, const Matrix2 &m);
void quadRangeAvx2(Complex *amps, std::size_t kb, std::size_t ke,
                   std::size_t q0, std::size_t q1, const Matrix4 &m);
void idleChainsAvx2(Complex *const *chains, std::size_t count,
                    std::size_t len, std::size_t q, const IdleScale *scale,
                    std::size_t qs, double *sums);
#endif

void
pairRangeScalar(Complex *amps, std::size_t pb, std::size_t pe, std::size_t q,
                const Matrix2 &m)
{
    // Fused real/imag form: no std::complex operator* (which may call
    // the __muldc3 NaN fix-up) in the inner loop, and the exact
    // operation order of the AVX2 mul/addsub path.
    const double m0r = m[0].real(), m0i = m[0].imag();
    const double m1r = m[1].real(), m1i = m[1].imag();
    const double m2r = m[2].real(), m2i = m[2].imag();
    const double m3r = m[3].real(), m3i = m[3].imag();
    const std::size_t stride = std::size_t{1} << q;
    dense::forPairRuns(pb, pe, q, [&](std::size_t i0, std::size_t run) {
        double *plo = reinterpret_cast<double *>(amps + i0);
        double *phi = plo + 2 * stride;
        for (std::size_t k = 0; k < run; ++k) {
            const double a0r = plo[2 * k], a0i = plo[2 * k + 1];
            const double a1r = phi[2 * k], a1i = phi[2 * k + 1];
            plo[2 * k] = (a0r * m0r - a0i * m0i) + (a1r * m1r - a1i * m1i);
            plo[2 * k + 1] =
                (a0i * m0r + a0r * m0i) + (a1i * m1r + a1r * m1i);
            phi[2 * k] = (a0r * m2r - a0i * m2i) + (a1r * m3r - a1i * m3i);
            phi[2 * k + 1] =
                (a0i * m2r + a0r * m2i) + (a1i * m3r + a1r * m3i);
        }
    });
}

void
quadRangeScalar(Complex *amps, std::size_t kb, std::size_t ke, std::size_t q0,
                std::size_t q1, const Matrix4 &m)
{
    double mr[16], mi[16];
    for (int k = 0; k < 16; ++k) {
        mr[k] = m[static_cast<std::size_t>(k)].real();
        mi[k] = m[static_cast<std::size_t>(k)].imag();
    }
    const std::size_t s0 = std::size_t{1} << q0;
    const std::size_t s1 = std::size_t{1} << q1;
    const std::size_t low = std::min(q0, q1), high = std::max(q0, q1);
    const std::size_t sLow = std::size_t{1} << low;
    std::size_t k = kb;
    while (k < ke) {
        const std::size_t run = std::min(sLow - (k & (sLow - 1)), ke - k);
        const std::size_t idx = dense::expand2(k, low, high);
        Complex *rows[4] = {amps + idx, amps + idx + s1, amps + idx + s0,
                            amps + idx + s0 + s1};
        for (std::size_t j = 0; j < run; ++j) {
            double ar[4], ai[4];
            for (int x = 0; x < 4; ++x) {
                ar[x] = rows[x][j].real();
                ai[x] = rows[x][j].imag();
            }
            for (int r = 0; r < 4; ++r) {
                // Left-to-right partial sums ((p0 + p1) + p2) + p3
                // seeded from the first product (not 0.0, which would
                // flush a -0.0 product and break bitwise agreement),
                // the same fold order as the AVX2 kernel.
                int c = r * 4;
                double re = ar[0] * mr[c] - ai[0] * mi[c];
                double im = ai[0] * mr[c] + ar[0] * mi[c];
                for (int x = 1; x < 4; ++x) {
                    c = r * 4 + x;
                    re += ar[x] * mr[c] - ai[x] * mi[c];
                    im += ai[x] * mr[c] + ar[x] * mi[c];
                }
                rows[r][j] = Complex(re, im);
            }
        }
        k += run;
    }
}

namespace {

/**
 * The scalar idle walker over K chains side by side, a pair of
 * amplitudes of every chain at a time, so the K sums' chains of adds
 * overlap. It walks runs over which neither bit >= 1 changes; bit 0
 * varies inside each pair. kHighOnly sums only each pair's high
 * amplitude (the sum bit is bit 0). The AVX2 body does the same
 * products and adds, one pair per vector.
 */
template <std::size_t K, bool kScale, bool kSum, bool kHighOnly>
void
idleScalar(Complex *const *chains, std::size_t len, std::size_t q,
           const IdleScale *scale, std::size_t qs, double *sums)
{
    double *p[K];
    for (std::size_t k = 0; k < K; ++k)
        p[k] = reinterpret_cast<double *>(chains[k]);
    const bool scaleRuns = kScale && q != kNoBit && q > 0;
    const bool sumRuns = kSum && qs != kNoBit && qs > 0;
    std::size_t r = len;
    if (scaleRuns)
        r = std::size_t{1} << q;
    if (sumRuns)
        r = std::min(r, std::size_t{1} << qs);
    double acc[K] = {};
    if constexpr (kSum)
        std::copy(sums, sums + K, acc);
    // One run's pairs: each chain's factors for the low and high
    // amplitude, and whether the run adds to the sums.
    auto pairs = [&](std::size_t i, const double *flo, const double *fhi,
                     auto add) {
        for (std::size_t j = 2 * i; j < 2 * (i + r); j += 4) {
#pragma GCC unroll 4
            for (std::size_t k = 0; k < K; ++k) {
                double *a = p[k] + j;
                double lr = a[0], li = a[1], hr = a[2], hi = a[3];
                if constexpr (kScale) {
                    lr *= flo[k];
                    li *= flo[k];
                    hr *= fhi[k];
                    hi *= fhi[k];
                    a[0] = lr;
                    a[1] = li;
                    a[2] = hr;
                    a[3] = hi;
                }
                if constexpr (decltype(add)::value) {
                    if constexpr (!kHighOnly)
                        acc[k] += lr * lr + li * li;
                    acc[k] += hr * hr + hi * hi;
                }
            }
        }
    };
    for (std::size_t i = 0; i < len; i += r) {
        double flo[K] = {}, fhi[K] = {};
        if constexpr (kScale) {
            const bool set = scaleRuns && ((i >> q) & 1);
            for (std::size_t k = 0; k < K; ++k) {
                flo[k] = set ? scale[k].f1 : scale[k].f0;
                fhi[k] = q == 0 ? scale[k].f1 : flo[k];
            }
        }
        if (kSum && (!sumRuns || ((i >> qs) & 1)))
            pairs(i, flo, fhi, std::bool_constant<kSum>{});
        else if (kScale)
            pairs(i, flo, fhi, std::false_type{});
    }
    if constexpr (kSum)
        std::copy(acc, acc + K, sums);
}

template <std::size_t K>
void
idleScalarK(Complex *const *chains, std::size_t len, std::size_t q,
            const IdleScale *scale, std::size_t qs, double *sums)
{
    if (sums == nullptr)
        idleScalar<K, true, false, false>(chains, len, q, scale, qs, sums);
    else if (scale == nullptr && qs == 0)
        idleScalar<K, false, true, true>(chains, len, q, scale, qs, sums);
    else if (scale == nullptr)
        idleScalar<K, false, true, false>(chains, len, q, scale, qs, sums);
    else if (qs == 0)
        idleScalar<K, true, true, true>(chains, len, q, scale, qs, sums);
    else
        idleScalar<K, true, true, false>(chains, len, q, scale, qs, sums);
}

/** idleChains' reference body. */
void
idleChainsScalar(Complex *const *chains, std::size_t count, std::size_t len,
                 std::size_t q, const IdleScale *scale, std::size_t qs,
                 double *sums)
{
    switch (count) {
      case 1:
        idleScalarK<1>(chains, len, q, scale, qs, sums);
        return;
      case 2:
        idleScalarK<2>(chains, len, q, scale, qs, sums);
        return;
      case 3:
        idleScalarK<3>(chains, len, q, scale, qs, sums);
        return;
      default:
        idleScalarK<kIdleChains>(chains, len, q, scale, qs, sums);
        return;
    }
}

} // namespace

void
idleChains(Complex *const *chains, std::size_t count, std::size_t len,
           std::size_t q, const IdleScale *scale, std::size_t qs,
           double *sums)
{
#ifdef SMQ_HAVE_AVX2
    if (usingAvx2()) {
        idleChainsAvx2(chains, count, len, q, scale, qs, sums);
        return;
    }
#endif
    idleChainsScalar(chains, count, len, q, scale, qs, sums);
}

void
jumpRange(Complex *amps, std::size_t pb, std::size_t pe, std::size_t q,
          double keep1, bool negate)
{
    const double zero = negate ? -0.0 : 0.0;
    const std::size_t stride = std::size_t{1} << q;
    dense::forPairRuns(pb, pe, q, [&](std::size_t i0, std::size_t run) {
        double *lo = reinterpret_cast<double *>(amps + i0);
        double *hi = lo + 2 * stride;
        for (std::size_t k = 0; k < 2 * run; ++k) {
            lo[k] = hi[k] * keep1;
            hi[k] = zero;
        }
    });
}

void
pairRange(Complex *amps, std::size_t pb, std::size_t pe, std::size_t q,
          const Matrix2 &m)
{
#ifdef SMQ_HAVE_AVX2
    if (usingAvx2()) {
        pairRangeAvx2(amps, pb, pe, q, m);
        return;
    }
#endif
    pairRangeScalar(amps, pb, pe, q, m);
}

void
quadRange(Complex *amps, std::size_t kb, std::size_t ke, std::size_t q0,
          std::size_t q1, const Matrix4 &m)
{
#ifdef SMQ_HAVE_AVX2
    if (usingAvx2()) {
        quadRangeAvx2(amps, kb, ke, q0, q1, m);
        return;
    }
#endif
    quadRangeScalar(amps, kb, ke, q0, q1, m);
}

void
recordSimdPath()
{
    static obs::Counter &avx2 =
        obs::counter(obs::names::kSimKernelSimdAvx2);
    static obs::Counter &scalar =
        obs::counter(obs::names::kSimKernelSimdScalar);
    if (usingAvx2())
        avx2.add();
    else
        scalar.add();
}

} // namespace smq::sim::kernels
