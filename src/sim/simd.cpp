#include "sim/simd.hpp"

#include <algorithm>
#include <complex>
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
void dmPairRangeAvx2(Complex *rho, std::size_t n, std::size_t pb,
                     std::size_t pe, std::size_t q, const Matrix2 *u,
                     const DmChannel &channel);
void dmQuadRangeAvx2(Complex *rho, std::size_t n, std::size_t kb,
                     std::size_t ke, std::size_t q0, std::size_t q1,
                     const Matrix4 *u, const DmChannel &channel);
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

namespace {

using ChannelKind = DmChannel::Kind;

template <ChannelKind kKind>
using KindTag = std::integral_constant<ChannelKind, kKind>;

/**
 * fn(gate, kind) with each a std::integral_constant: whether @p u is
 * set and which channel @p kind names. A call with neither, or with
 * a gate and Relax, does nothing.
 */
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

/** (a0, a1) <- m (a0, a1) in pairRangeScalar's expressions. */
inline void
pairMul(const Matrix2 &m, Complex &a0, Complex &a1)
{
    const Complex lo = coeffMul(m[0], a0) + coeffMul(m[1], a1);
    a1 = coeffMul(m[2], a0) + coeffMul(m[3], a1);
    a0 = lo;
}

/**
 * (a[0], a[s], a[2s], a[3s]) <- m times them, folded as
 * quadRangeScalar folds: seeded from the first product, left to right.
 */
inline void
quadMul(const Matrix4 &m, Complex *a, std::size_t s)
{
    Complex out[4];
    for (std::size_t r = 0; r < 4; ++r) {
        Complex acc = coeffMul(m[4 * r], a[0]);
        for (std::size_t x = 1; x < 4; ++x)
            acc += coeffMul(m[4 * r + x], a[x * s]);
        out[r] = acc;
    }
    for (std::size_t r = 0; r < 4; ++r)
        a[r * s] = out[r];
}

/**
 * m's entrywise conjugate, the matrix a column pass applies:
 * (rho U^dagger)[r][c] = sum_k conj(u[c][k]) rho[r][k], so the column
 * bits take conj(U), not its transpose.
 */
template <typename M>
M
conjugate(const M &m)
{
    M d;
    for (std::size_t k = 0; k < m.size(); ++k)
        d[k] = std::conj(m[k]);
    return d;
}

/**
 * dmPairRange's reference body. b holds a block as b00, b01, b10, b11
 * (row, column); it walks the column pairs of each row pair in runs.
 */
template <bool kGate, ChannelKind kKind>
void
dmPairScalar(Complex *rho, std::size_t n, std::size_t pb, std::size_t pe,
             std::size_t q, const Matrix2 *u, const DmChannel &ch)
{
    const std::size_t dim = std::size_t{1} << n;
    const std::size_t s = std::size_t{1} << q;
    const Matrix2 m = kGate ? *u : Matrix2{};
    const Matrix2 d = conjugate(m);
    for (std::size_t p = pb; p < pe; ++p) {
        Complex *row0 = rho + dense::expand1(p, q) * dim;
        Complex *row1 = row0 + s * dim;
        dense::forPairRuns(0, dim / 2, q, [&](std::size_t c0, std::size_t run) {
            for (std::size_t c = c0; c < c0 + run; ++c) {
                Complex b[4] = {row0[c], row0[c + s], row1[c], row1[c + s]};
                if constexpr (kGate) {
                    pairMul(m, b[0], b[2]);
                    pairMul(m, b[1], b[3]);
                    pairMul(d, b[0], b[1]);
                    pairMul(d, b[2], b[3]);
                }
                if constexpr (kKind == ChannelKind::Depolarize) {
                    const Complex b00 = b[0], b11 = b[3];
                    b[0] = ch.f0 * b00 + ch.f1 * b11;
                    b[3] = ch.f1 * b00 + ch.f0 * b11;
                } else if constexpr (kKind == ChannelKind::Relax) {
                    const Complex b11 = b[3];
                    b[0] += ch.f0 * b11;
                    b[3] = ch.f1 * b11;
                }
                if constexpr (kKind != ChannelKind::None) {
                    b[1] *= ch.f2;
                    b[2] *= ch.f2;
                }
                row0[c] = b[0];
                row0[c + s] = b[1];
                row1[c] = b[2];
                row1[c + s] = b[3];
            }
        });
    }
}

/** dmQuadRange's reference body; b[i][j] is row i, column j of a block. */
template <bool kGate, ChannelKind kKind>
void
dmQuadScalar(Complex *rho, std::size_t n, std::size_t kb, std::size_t ke,
             std::size_t q0, std::size_t q1, const Matrix4 *u,
             const DmChannel &ch)
{
    static_assert(kKind != ChannelKind::Relax, "no two-qubit relaxation");
    const std::size_t dim = std::size_t{1} << n;
    const std::size_t s0 = std::size_t{1} << q0;
    const std::size_t s1 = std::size_t{1} << q1;
    const std::size_t low = std::min(q0, q1), high = std::max(q0, q1);
    const std::size_t off[4] = {0, s1, s0, s0 + s1};
    const Matrix4 m = kGate ? *u : Matrix4{};
    const Matrix4 d = conjugate(m);
    for (std::size_t k = kb; k < ke; ++k) {
        const std::size_t r = dense::expand2(k, low, high);
        Complex *rows[4];
        for (std::size_t i = 0; i < 4; ++i)
            rows[i] = rho + (r + off[i]) * dim;
        for (std::size_t kc = 0; kc < dim / 4; ++kc) {
            const std::size_t c = dense::expand2(kc, low, high);
            Complex b[4][4];
            for (std::size_t i = 0; i < 4; ++i)
                for (std::size_t j = 0; j < 4; ++j)
                    b[i][j] = rows[i][c + off[j]];
            if constexpr (kGate) {
                for (std::size_t j = 0; j < 4; ++j)
                    quadMul(m, &b[0][j], 4);
                for (std::size_t i = 0; i < 4; ++i)
                    quadMul(d, b[i], 1);
            }
            if constexpr (kKind == ChannelKind::Depolarize) {
                const Complex tr = b[0][0] + b[1][1] + b[2][2] + b[3][3];
                for (std::size_t i = 0; i < 4; ++i) {
                    for (std::size_t j = 0; j < 4; ++j) {
                        Complex v = ch.f0 * b[i][j];
                        if (i == j)
                            v += ch.f1 * tr;
                        b[i][j] = v;
                    }
                }
            }
            for (std::size_t i = 0; i < 4; ++i)
                for (std::size_t j = 0; j < 4; ++j)
                    rows[i][c + off[j]] = b[i][j];
        }
    }
}

} // namespace

void
dmPairRange(Complex *rho, std::size_t n, std::size_t pb, std::size_t pe,
            std::size_t q, const Matrix2 *u, const DmChannel &channel)
{
#ifdef SMQ_HAVE_AVX2
    // The AVX2 body packs two blocks to a vector; one qubit has one.
    if (usingAvx2() && n > 1) {
        dmPairRangeAvx2(rho, n, pb, pe, q, u, channel);
        return;
    }
#endif
    dispatchDm(u, channel.kind, [&](auto gate, auto kind) {
        dmPairScalar<decltype(gate)::value, decltype(kind)::value>(
            rho, n, pb, pe, q, u, channel);
    });
}

void
dmQuadRange(Complex *rho, std::size_t n, std::size_t kb, std::size_t ke,
            std::size_t q0, std::size_t q1, const Matrix4 *u,
            const DmChannel &channel)
{
#ifdef SMQ_HAVE_AVX2
    // Two blocks to a vector: two qubits have one column quad a row.
    if (usingAvx2() && n > 2) {
        dmQuadRangeAvx2(rho, n, kb, ke, q0, q1, u, channel);
        return;
    }
#endif
    dispatchDm(u, channel.kind, [&](auto gate, auto kind) {
        if constexpr (decltype(kind)::value != ChannelKind::Relax)
            dmQuadScalar<decltype(gate)::value, decltype(kind)::value>(
                rho, n, kb, ke, q0, q1, u, channel);
    });
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
