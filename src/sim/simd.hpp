/**
 * @file
 * Vectorised complex inner loops for the dense simulators.
 *
 * Both dense engines reduce every matrix application to two range
 * kernels, one call per dispatched index range:
 *
 *   pairRange: (lo, hi) <- M2 (lo, hi)  for each bit-q pair,
 *   quadRange: (a0..a3) <- M4 (a0..a3)  for each (q0, q1) quad,
 *
 * over pair (quad) indices [begin, end) of the subspace with the gate's
 * bits clear. Each body walks the amplitude runs itself: a maximal
 * block of indices sharing the same high bits is contiguous, 2^q long
 * for a pair and 2^min(q0, q1) for a quad. The scalar bodies are
 * written in fused real/imag form — one multiply pattern,
 * re = ar*cr - ai*ci / im = ai*cr + ar*ci, matching the AVX2
 * mul/addsub sequence exactly — so the explicit AVX2 path (built behind
 * the SMQ_SIMD CMake option, selected at runtime via
 * kernels::usingAvx2()) produces bit-identical results at every stride
 * and either path can satisfy the byte-identity contract.
 */

#ifndef SMQ_SIM_SIMD_HPP
#define SMQ_SIM_SIMD_HPP

#include <cstddef>

#include "sim/gate_matrices.hpp"

namespace smq::sim::kernels {

/**
 * Complex multiply of coefficient @p c with amplitude @p a in the
 * exact operation order of the AVX2 mul/addsub kernel (so scalar and
 * vector paths agree bitwise).
 */
inline Complex
coeffMul(const Complex &c, const Complex &a)
{
    return Complex(a.real() * c.real() - a.imag() * c.imag(),
                   a.imag() * c.real() + a.real() * c.imag());
}

/**
 * Apply @p m to the bit-@p q pairs of pair indices [@p pb, @p pe):
 * pair p is amplitude i0 (p with a zero inserted at bit q) and its
 * partner i0 + 2^q.
 */
void pairRange(Complex *amps, std::size_t pb, std::size_t pe, std::size_t q,
               const Matrix2 &m);

/**
 * Apply @p m (basis |b0 b1>, b0 on bit @p q0) to the quads of quad
 * indices [@p kb, @p ke): quad k is idx (k with zeros inserted at both
 * bits), idx + 2^q1, idx + 2^q0 and idx + 2^q0 + 2^q1. @pre q0 != q1.
 */
void quadRange(Complex *amps, std::size_t kb, std::size_t ke, std::size_t q0,
               std::size_t q1, const Matrix4 &m);

/** Scalar reference bodies; the AVX2 bodies finish odd ends with them. */
void pairRangeScalar(Complex *amps, std::size_t pb, std::size_t pe,
                     std::size_t q, const Matrix2 &m);
void quadRangeScalar(Complex *amps, std::size_t kb, std::size_t ke,
                     std::size_t q0, std::size_t q1, const Matrix4 &m);

/** Bump the sim.kernel.simd_* counter for one dense gate kernel. */
void recordSimdPath();

} // namespace smq::sim::kernels

#endif // SMQ_SIM_SIMD_HPP
