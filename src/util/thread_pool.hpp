/**
 * @file
 * Deterministic parallel execution primitives.
 *
 * The Fig. 2 grid is embarrassingly parallel once every cell derives
 * its randomness from labels instead of call order (PR 1 made fault
 * injection and the per-job simulation streams pure functions of
 * (seed, device, benchmark, rep, attempt)). The ThreadPool exploits
 * that: parallelFor() hands out loop indices to a fixed set of
 * workers, each task writes only its own slot, and deriveTaskSeed()
 * gives every task an order-independent RNG stream — so a parallel
 * sweep is byte-identical to the serial one, whatever the thread
 * count or scheduling.
 */

#ifndef SMQ_UTIL_THREAD_POOL_HPP
#define SMQ_UTIL_THREAD_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace_context.hpp"

namespace smq::util {

/**
 * Stable per-task seed: splitmix64 of (base, task). Tasks executed in
 * any order (or concurrently) reproduce the streams of a serial loop
 * seeding rep k with deriveTaskSeed(base, k).
 */
std::uint64_t deriveTaskSeed(std::uint64_t base, std::uint64_t task);

/**
 * Thread count to use for "--jobs 0" / unspecified: the hardware,
 * resolved once per process (the query is a sysfs file read).
 */
std::size_t defaultJobs();

/**
 * True while the calling thread is executing a task handed out by any
 * ThreadPool::parallelFor (including the caller thread, which
 * participates in its own batches). Nested parallel layers consult
 * this to stay serial instead of oversubscribing: a grid cell already
 * running on a pool worker must not fan its gate kernels out to a
 * second pool.
 */
bool inPoolTask();

/**
 * A fixed-size worker pool executing index-space loops.
 *
 * The pool owns `threads` workers; the caller of parallelFor()
 * participates too, so total concurrency is threads + 1. A pool with
 * zero workers degrades to a plain serial loop.
 */
class ThreadPool
{
  public:
    /** Spawn @p threads workers (0 = fully serial pool). */
    explicit ThreadPool(std::size_t threads);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    ~ThreadPool();

    /** Worker count (excluding the calling thread). */
    std::size_t threadCount() const { return workers_.size(); }

    /**
     * Run body(i) for every i in [0, n), distributing indices over the
     * workers plus the calling thread; blocks until all complete.
     * Indices are claimed atomically, so each runs exactly once. The
     * first exception thrown by any task is rethrown here after the
     * batch drains. Not reentrant: body must not call parallelFor on
     * the same pool.
     *
     * When @p stop is non-empty it is consulted before each index is
     * claimed: once it returns true, no further indices are handed
     * out and the batch drains after the in-flight tasks finish. The
     * cooperative-shutdown path of the grid harness uses this to stop
     * claiming cells after SIGINT/SIGTERM without abandoning work
     * already running.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body,
                     const std::function<bool()> &stop = {});

  private:
    void workerLoop();
    void runIndices();

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    const std::function<void(std::size_t)> *body_ = nullptr;
    const std::function<bool()> *stopCheck_ = nullptr;
    /** Submitting thread's trace context, re-installed on every
     *  worker for the batch so spans recorded inside tasks carry the
     *  batch's trace identity at any --jobs. */
    obs::TraceContext batchContext_;
    std::size_t batchSize_ = 0;
    std::atomic<std::size_t> next_{0};
    std::size_t activeWorkers_ = 0;
    std::uint64_t generation_ = 0;
    std::exception_ptr error_;
    bool stop_ = false;
};

/**
 * One-shot convenience: run body(i) for i in [0, n) with @p jobs-way
 * concurrency (jobs <= 1 or n <= 1 runs serially on the caller, with
 * exceptions propagating directly). jobs == 0 means defaultJobs().
 * A non-empty @p stop stops further indices from being claimed once
 * it returns true (see ThreadPool::parallelFor).
 */
void parallelFor(std::size_t jobs, std::size_t n,
                 const std::function<void(std::size_t)> &body,
                 const std::function<bool()> &stop = {});

} // namespace smq::util

#endif // SMQ_UTIL_THREAD_POOL_HPP
