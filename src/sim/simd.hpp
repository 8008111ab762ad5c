/**
 * @file
 * Vectorised complex inner loops for the dense simulators.
 *
 * The statevector reduces every matrix application to two range
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
 *
 * The trajectory engine's idle steps have a third walker, idleChains:
 * it multiplies amplitudes by real factors chosen by one index bit,
 * sums |a|^2 over the amplitudes with another bit set, or both in one
 * pass, over up to four reduce chains side by side.
 *
 * The density matrix has block walkers of its own, dmPairRange and
 * dmQuadRange: one call per dispatched range of row pairs (quads)
 * applies a gate's U rho U^dagger and the channel after it to one
 * 2x2 (4x4) block at a time, so a noisy step reads and writes rho once.
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

/**
 * The closed-form channel a density-matrix block pass applies after
 * its gate, per block B of the operand qubits' subsystem.
 */
struct DmChannel
{
    enum class Kind : unsigned char {
        None,       ///< no channel
        Depolarize, ///< 1q: b00 <- f0 b00 + f1 b11, b11 <- f1 b00 + f0 b11,
                    ///< off-diagonal *= f2; 2q: B <- f0 B, then each
                    ///< diagonal entry += f1 Tr(B)
        Relax,      ///< 1q, no gate: b00 += f0 b11, b11 <- f1 b11,
                    ///< off-diagonal *= f2
    };
    Kind kind = Kind::None;
    double f0 = 0.0, f1 = 0.0, f2 = 0.0;
};

/**
 * One density-matrix step on the 2x2 blocks of qubit @p q of the
 * n-qubit rho (row-major 2^n x 2^n; pass @p n) whose row pairs are
 * [@p pb, @p pe). Row pair p is rows r0 (p with a zero inserted at bit
 * q) and r0 + 2^q; a block is those rows at columns c0 and c0 + 2^q.
 * Per block: with @p u, U on each column's row pair, then conj(U) on
 * each row's column pair (U rho U^dagger); then @p channel. Every
 * element sees pairRange's expressions in the order of a row pass, a
 * column pass and a channel pass over the whole matrix.
 */
void dmPairRange(Complex *rho, std::size_t n, std::size_t pb, std::size_t pe,
                 std::size_t q, const Matrix2 *u, const DmChannel &channel);

/**
 * The two-qubit step on the 4x4 blocks of qubits (@p q0, @p q1) whose
 * row quads are [@p kb, @p ke), in quadRange's quad order on rows and
 * on columns: U on each column's row quad, then conj(U) on each row's
 * column quad, then @p channel (None or Depolarize). @pre q0 != q1.
 */
void dmQuadRange(Complex *rho, std::size_t n, std::size_t kb, std::size_t ke,
                 std::size_t q0, std::size_t q1, const Matrix4 *u,
                 const DmChannel &channel);

/** idleChains bit meaning "no bit of the chain": see idleChains. */
inline constexpr std::size_t kNoBit = ~std::size_t{0};

/** Most chains one idleChains call walks side by side. */
inline constexpr std::size_t kIdleChains = 4;

/**
 * One chain's real factors: amplitudes whose scale bit is clear are
 * multiplied by f0, those with it set by f1 (re and im each once).
 */
struct IdleScale
{
    double f0 = 1.0;
    double f1 = 1.0;
};

/**
 * The idle walker: @p count <= kIdleChains chains of @p len amplitudes,
 * chain k at @p chains[k], walked side by side, each in ascending index
 * order.
 *
 *  - With @p scale, amplitude i of chain k becomes a_i * scale[k].f0
 *    when bit @p q of i is clear and a_i * scale[k].f1 when it is set;
 *    q == kNoBit scales the whole chain by f0.
 *  - With @p sums, each |a_i|^2 (after the scale) over the amplitudes
 *    i of chain k with bit @p qs set is added to sums[k], from its
 *    value on entry, in ascending order of i; qs == kNoBit sums every
 *    amplitude. Each chain is its own sequence of adds, so sums[k]
 *    does not depend on the other chains, on @p count or on whether
 *    the pass also scales, and a chain split into consecutive calls
 *    sums exactly as one call over the whole of it.
 *
 * @p len is even, and a multiple of 2^(b + 1) for each bit b of @p q
 * and @p qs that is not kNoBit; bits count from each chain's start.
 * One of @p scale and @p sums is non-null. A sum-only walk reads only
 * the bit-qs-set runs.
 */
void idleChains(Complex *const *chains, std::size_t count, std::size_t len,
                std::size_t q, const IdleScale *scale, std::size_t qs,
                double *sums);

/**
 * An amplitude-damping jump on the bit-@p q pairs of pair indices
 * [@p pb, @p pe): the |0> amplitude becomes the |1> one times
 * @p keep1 and the |1> amplitude 0 (-0 in both parts when @p negate).
 * Jumps are rare, so this body is scalar on either path.
 */
void jumpRange(Complex *amps, std::size_t pb, std::size_t pe, std::size_t q,
               double keep1, bool negate);

/** Bump the sim.kernel.simd_* counter for one dense gate kernel. */
void recordSimdPath();

} // namespace smq::sim::kernels

#endif // SMQ_SIM_SIMD_HPP
