/**
 * @file
 * Intra-op kernel execution: threading policy + deterministic reduce.
 *
 * The grid layer parallelises *across* cells; this layer parallelises
 * *inside* one gate application or reduction, splitting the amplitude
 * (or density-matrix row) index space over a shared util::ThreadPool.
 * Three rules keep a parallel run byte-identical to the serial one at
 * any job count:
 *
 *  1. Elementwise kernels partition disjoint index ranges — every
 *     amplitude is computed by exactly the same arithmetic expression
 *     regardless of which thread evaluates it.
 *  2. Reductions accumulate fixed-size chunks (kReduceGrain elements,
 *     a function of the state size only, never of the job count) and
 *     fold the partials in chunk-index order; the serial path uses the
 *     identical chunking, so parallel == serial bit-for-bit.
 *  3. A kernel launched from inside a pool task (a grid cell running
 *     under `--jobs N`) degrades to serial instead of oversubscribing
 *     a second pool — unless a test/fuzz sweep explicitly forces
 *     parallel execution to exercise the threaded paths.
 *
 * Small states stay serial below a size threshold (default 1 << 16
 * amplitudes touched): forking the pool costs more than the sweep.
 */

#ifndef SMQ_SIM_KERNELS_HPP
#define SMQ_SIM_KERNELS_HPP

#include <cstddef>
#include <functional>
#include <vector>

namespace smq::sim::kernels {

/** Which complex-arithmetic inner loop the dense kernels run. */
enum class SimdMode {
    Auto,   ///< AVX2 when compiled in and supported at runtime
    Scalar, ///< force the portable fused real/imag loops
    Avx2,   ///< force AVX2 (callers must check avx2Supported())
};

/** Snapshot of the process-wide intra-op execution policy. */
struct KernelConfig
{
    std::size_t jobs = 1;          ///< max threads per kernel (1 = serial)
    std::size_t threshold = 1;     ///< min elements before going parallel
    SimdMode simd = SimdMode::Auto;
    bool forceParallel = false;    ///< ignore the nested-pool guard
};

KernelConfig kernelConfig();

/** Set intra-op thread budget; 0 means util::defaultJobs(). */
void setKernelJobs(std::size_t jobs);

/** Set the elements-touched threshold below which kernels stay serial. */
void setKernelThreshold(std::size_t elements);

/** Select the SIMD dispatch policy. */
void setSimdMode(SimdMode mode);

/**
 * When set, kernels parallelise even from inside a pool task (fuzz
 * oracles and the byte-identity tests use this to drive the threaded
 * paths from worker threads); pool access then blocks instead of
 * falling back to serial.
 */
void setForceParallel(bool force);

/** RAII save/restore of the whole kernel config (tests, fuzz sweeps). */
class KernelConfigGuard
{
  public:
    KernelConfigGuard() : saved_(kernelConfig()) {}
    KernelConfigGuard(const KernelConfigGuard &) = delete;
    KernelConfigGuard &operator=(const KernelConfigGuard &) = delete;
    ~KernelConfigGuard();

  private:
    KernelConfig saved_;
};

/** True when this CPU executes AVX2 (independent of build options). */
bool avx2Supported();

/** True when the resolved dispatch runs the AVX2 inner loops. */
bool usingAvx2();

/**
 * Run body(begin, end) over a partition of [0, n), in parallel when
 * the policy allows (elements >= threshold, jobs > 1, not nested in a
 * pool task unless forced). @p elements is the number of state
 * elements the whole kernel touches — the cost measure the threshold
 * compares against, which may exceed @p n (a density-matrix row pair
 * is dim_ elements wide). A serial dispatch is one body(0, n) call;
 * a parallel one splits [0, n) into at most jobs x 4 disjoint ranges
 * that cover it, so elementwise bodies are byte-identical either way.
 */
void forEachRange(std::size_t n, std::size_t elements,
                  const std::function<void(std::size_t, std::size_t)> &body);

/** Fixed reduce grain (elements per partial) — independent of jobs. */
inline constexpr std::size_t kReduceGrain = std::size_t{1} << 14;

namespace detail {
/** Threads dispatchChunks(count, elements, ...) may use; 1 = serial. */
std::size_t dispatchJobs(std::size_t count, std::size_t elements);

/** Run task(chunk) for chunks [0, count), parallel when allowed. */
void dispatchChunks(std::size_t count, std::size_t elements,
                    const std::function<void(std::size_t)> &task);
} // namespace detail

/**
 * Deterministic chunked reduction: partials of kReduceGrain elements
 * each, computed (possibly concurrently) by @p chunk(begin, end) and
 * folded in chunk order. The serial and parallel paths share both the
 * chunking and the fold order, so the result is bitwise identical at
 * any job count. T must be value-initialisable to the additive zero.
 */
template <typename T, typename ChunkFn>
T
reduceChunked(std::size_t n, const ChunkFn &chunk)
{
    if (n == 0)
        return T{};
    const std::size_t count = (n + kReduceGrain - 1) / kReduceGrain;
    if (count == 1)
        return chunk(std::size_t{0}, n);
    std::vector<T> partials(count);
    detail::dispatchChunks(count, n, [&](std::size_t c) {
        const std::size_t begin = c * kReduceGrain;
        const std::size_t end = std::min(n, begin + kReduceGrain);
        partials[c] = chunk(begin, end);
    });
    T total{};
    for (const T &p : partials)
        total += p;
    return total;
}

} // namespace smq::sim::kernels

#endif // SMQ_SIM_KERNELS_HPP
