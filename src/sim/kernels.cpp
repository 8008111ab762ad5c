#include "sim/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/thread_pool.hpp"

namespace smq::sim::kernels {

namespace {

// Process-wide policy knobs. Reads are relaxed atomics on the hot
// path; the pool itself is guarded by gPoolMutex below.
std::atomic<std::size_t> gJobs{0};                 // 0 = defaultJobs()
std::atomic<std::size_t> gThreshold{std::size_t{1} << 16};
std::atomic<int> gSimd{static_cast<int>(SimdMode::Auto)};
std::atomic<bool> gForce{false};

/**
 * The shared intra-op pool. One pool serves every kernel in the
 * process: kernels are short-lived, so serialising access through the
 * mutex (try_lock on the normal path — a busy pool means another
 * kernel is mid-flight and this one just runs serially) is cheaper
 * than per-state pools. Force mode blocks instead, so sweeps driven
 * from many fuzz workers still exercise the parallel path.
 */
std::mutex gPoolMutex;
std::unique_ptr<util::ThreadPool> gPool;
std::size_t gPoolWorkers = 0;

std::size_t
resolvedJobs()
{
    std::size_t jobs = gJobs.load(std::memory_order_relaxed);
    return jobs == 0 ? util::defaultJobs() : jobs;
}

void
countSerial()
{
    static obs::Counter &serial =
        obs::counter(obs::names::kSimKernelSerialOps);
    serial.add();
}

void
countParallel(std::size_t tasks)
{
    static obs::Counter &parallel =
        obs::counter(obs::names::kSimKernelParallelOps);
    static obs::Counter &split =
        obs::counter(obs::names::kSimKernelTasksSplit);
    parallel.add();
    split.add(tasks);
}

} // namespace

KernelConfig
kernelConfig()
{
    KernelConfig cfg;
    cfg.jobs = resolvedJobs();
    cfg.threshold = gThreshold.load(std::memory_order_relaxed);
    cfg.simd = static_cast<SimdMode>(gSimd.load(std::memory_order_relaxed));
    cfg.forceParallel = gForce.load(std::memory_order_relaxed);
    return cfg;
}

void
setKernelJobs(std::size_t jobs)
{
    gJobs.store(jobs, std::memory_order_relaxed);
}

void
setKernelThreshold(std::size_t elements)
{
    gThreshold.store(elements, std::memory_order_relaxed);
}

void
setSimdMode(SimdMode mode)
{
    gSimd.store(static_cast<int>(mode), std::memory_order_relaxed);
}

void
setForceParallel(bool force)
{
    gForce.store(force, std::memory_order_relaxed);
}

KernelConfigGuard::~KernelConfigGuard()
{
    gJobs.store(saved_.jobs, std::memory_order_relaxed);
    gThreshold.store(saved_.threshold, std::memory_order_relaxed);
    gSimd.store(static_cast<int>(saved_.simd), std::memory_order_relaxed);
    gForce.store(saved_.forceParallel, std::memory_order_relaxed);
}

bool
avx2Supported()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

bool
usingAvx2()
{
#ifdef SMQ_HAVE_AVX2
    switch (static_cast<SimdMode>(gSimd.load(std::memory_order_relaxed))) {
      case SimdMode::Scalar:
        return false;
      case SimdMode::Auto:
      case SimdMode::Avx2:
        // Avx2 still requires hardware support: dispatching an illegal
        // instruction is never the right way to honour a config knob.
        return avx2Supported();
    }
    return false;
#else
    return false;
#endif
}

namespace {

/**
 * Threads a kernel touching @p elements may use; 1 means serial. The
 * cheap serial cases come first — nested in a pool task without
 * force, or below the element threshold — so most dispatches never
 * read the job count.
 */
std::size_t
kernelJobs(std::size_t elements)
{
    if ((util::inPoolTask() && !gForce.load(std::memory_order_relaxed)) ||
        elements < gThreshold.load(std::memory_order_relaxed))
        return 1;
    return resolvedJobs();
}

void
serialChunks(std::size_t count, const std::function<void(std::size_t)> &task)
{
    countSerial();
    for (std::size_t c = 0; c < count; ++c)
        task(c);
}

/** Run task(chunk) for chunks [0, count) on the shared pool. */
void
poolChunks(std::size_t count, std::size_t jobs,
           const std::function<void(std::size_t)> &task)
{
    std::unique_lock<std::mutex> lock(gPoolMutex, std::defer_lock);
    if (gForce.load(std::memory_order_relaxed)) {
        lock.lock();
    } else if (!lock.try_lock()) {
        // Another kernel owns the pool; running serially is always
        // correct (and byte-identical), so don't wait for it.
        serialChunks(count, task);
        return;
    }
    const std::size_t workers = jobs - 1;
    if (!gPool || gPoolWorkers != workers) {
        gPool.reset();
        gPool = std::make_unique<util::ThreadPool>(workers);
        gPoolWorkers = workers;
    }
    countParallel(count);
    gPool->parallelFor(count, task);
}

} // namespace

namespace detail {

std::size_t
dispatchJobs(std::size_t count, std::size_t elements)
{
    return count <= 1 ? 1 : kernelJobs(elements);
}

void
dispatchChunks(std::size_t count, std::size_t elements,
               const std::function<void(std::size_t)> &task)
{
    if (count == 0)
        return;
    const std::size_t jobs = dispatchJobs(count, elements);
    if (jobs <= 1)
        serialChunks(count, task);
    else
        poolChunks(count, jobs, task);
}

} // namespace detail

void
forEachRange(std::size_t n, std::size_t elements,
             const std::function<void(std::size_t, std::size_t)> &body)
{
    if (n == 0)
        return;
    const std::size_t jobs = n == 1 ? 1 : kernelJobs(elements);
    if (jobs <= 1) {
        // One range: the bodies are elementwise, so the split never
        // changes a result, and one call replaces jobs x 4.
        countSerial();
        body(0, n);
        return;
    }
    // Over-decompose mildly (4 tasks per job) so the atomic index
    // hand-off load-balances uneven ranges; the split itself never
    // affects results because ranges partition [0, n) exactly.
    const std::size_t tasks = std::min(n, jobs * 4);
    const std::size_t base = n / tasks;
    const std::size_t rem = n % tasks;
    poolChunks(tasks, jobs, [&](std::size_t t) {
        const std::size_t begin = t * base + std::min(t, rem);
        const std::size_t end = begin + base + (t < rem ? 1 : 0);
        body(begin, end);
    });
}

} // namespace smq::sim::kernels
