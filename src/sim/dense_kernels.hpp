/**
 * @file
 * Index helpers and the gate kernel shared by the two dense engines
 * (internal: only statevector.cpp, density_matrix.cpp and the scalar
 * bodies in simd.cpp include this header).
 *
 * gateKernel works on `size` amplitudes addressed by index bits, and
 * the caller decides what the bits mean. A StateVector's qubits are
 * the low n bits, with StateLanes' lane number above them; a
 * DensityMatrix is a 2n-qubit vector whose column qubit q is bit q and
 * row qubit q is bit n + q, and runs only CCX / CSWAP through it (its
 * 1q/2q steps walk blocks, kernels::dmPairRange / dmQuadRange). A
 * kernel only combines indices that differ in the bits it is given, so
 * it never mixes two lanes.
 *
 * A 1q/2q gate makes one kernels::pairRange / quadRange call per
 * dispatched range, which walks the amplitude runs inside the SIMD
 * body.
 */

#ifndef SMQ_SIM_DENSE_KERNELS_HPP
#define SMQ_SIM_DENSE_KERNELS_HPP

#include <algorithm>
#include <cstddef>
#include <utility>

#include "qc/gate.hpp"
#include "sim/gate_matrices.hpp"
#include "sim/kernels.hpp"
#include "sim/simd.hpp"

namespace smq::sim::dense {

/**
 * Spread the bits of @p k around one zero slot at bit position p:
 * index k of the pair subspace -> full index with bit p clear.
 */
inline std::size_t
expand1(std::size_t k, std::size_t p)
{
    return ((k >> p) << (p + 1)) | (k & ((std::size_t{1} << p) - 1));
}

/** Two zero slots at bit positions p0 < p1. */
inline std::size_t
expand2(std::size_t k, std::size_t p0, std::size_t p1)
{
    std::size_t x = expand1(k, p0);
    return ((x >> p1) << (p1 + 1)) | (x & ((std::size_t{1} << p1) - 1));
}

/**
 * Spread the bits of @p k around three zero slots at bit positions
 * p0 < p1 < p2: enumerates the subspace with those three bits fixed
 * at 0 without scanning (and branching on) every index.
 */
inline std::size_t
expand3(std::size_t k, std::size_t p0, std::size_t p1, std::size_t p2)
{
    std::size_t x = expand2(k, p0, p1);
    return ((x >> p2) << (p2 + 1)) | (x & ((std::size_t{1} << p2) - 1));
}

inline void
sort3(std::size_t &a, std::size_t &b, std::size_t &c)
{
    if (a > b)
        std::swap(a, b);
    if (b > c)
        std::swap(b, c);
    if (a > b)
        std::swap(a, b);
}

/**
 * fn(i0, len) over the bit-q pair runs of pair indices [pb, pe):
 * amplitudes [i0, i0 + len) have bit q clear and their partners
 * [i0 + 2^q, i0 + 2^q + len) have it set.
 */
template <typename Fn>
inline void
forPairRuns(std::size_t pb, std::size_t pe, std::size_t q, const Fn &fn)
{
    const std::size_t stride = std::size_t{1} << q;
    std::size_t p = pb;
    while (p < pe) {
        const std::size_t run = std::min(stride - (p & (stride - 1)), pe - p);
        fn(expand1(p, q), run);
        p += run;
    }
}

/**
 * Apply one unitary gate, its qubits read as index bits (CCX / CSWAP
 * as basis permutations). @throws for MEASURE / RESET / BARRIER, bad
 * arity, or a 1q/2q operand that is duplicate or not below @p n.
 */
void gateKernel(Complex *amps, std::size_t size, std::size_t n,
                const qc::Gate &gate);

} // namespace smq::sim::dense

#endif // SMQ_SIM_DENSE_KERNELS_HPP
