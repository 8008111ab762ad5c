#include "util/thread_pool.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/names.hpp"

namespace smq::util {

namespace {

/**
 * One batch's worth of pool accounting. Recorded once per
 * parallelFor call (never per index), so the counters are identical
 * for serial and pooled execution of the same loop.
 */
void
recordBatch(std::size_t n, std::size_t workers)
{
    static obs::Counter &batches =
        obs::counter(obs::names::kPoolBatches);
    static obs::Counter &tasks =
        obs::counter(obs::names::kPoolTasksRun);
    batches.add();
    tasks.add(n);
    obs::gauge(obs::names::kPoolWorkers)
        .set(static_cast<std::int64_t>(workers));
}

/**
 * Set while a thread drains indices from a batch; the RAII form keeps
 * the flag correct even when a task throws, and restores rather than
 * clears so a worker of an outer pool stays marked after an inner
 * serial fallback returns.
 */
thread_local bool tInPoolTask = false;

struct PoolTaskScope
{
    bool saved;
    PoolTaskScope() : saved(tInPoolTask) { tInPoolTask = true; }
    ~PoolTaskScope() { tInPoolTask = saved; }
};

} // namespace

bool
inPoolTask()
{
    return tInPoolTask;
}

std::uint64_t
deriveTaskSeed(std::uint64_t base, std::uint64_t task)
{
    // splitmix64 over the combined word: cheap, well-mixed, and stable
    // across platforms (no std:: distribution involvement).
    std::uint64_t z = base + 0x9e3779b97f4a7c15ull * (task + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::size_t
defaultJobs()
{
    // hardware_concurrency() reads /sys/devices/system/cpu/online on
    // every call (microseconds), and kernel dispatch asks for the
    // default on every gate: resolve it once per process.
    static const std::size_t jobs = [] {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw == 0 ? std::size_t{1} : static_cast<std::size_t>(hw);
    }();
    return jobs;
}

ThreadPool::ThreadPool(std::size_t threads)
{
    workers_.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::runIndices()
{
    PoolTaskScope inPool;
    // Propagate the submitting thread's trace context: on the caller
    // this re-installs its own context (no-op); on workers it makes
    // task-level spans carry the batch's trace identity. Never
    // consulted by task bodies for randomness, so determinism holds.
    obs::TraceContextScope traceScope(batchContext_);
    for (;;) {
        if (stopCheck_ != nullptr && *stopCheck_ && (*stopCheck_)())
            return;
        std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= batchSize_)
            return;
        try {
            (*body_)(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!error_)
                error_ = std::current_exception();
        }
    }
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_.wait(lock,
                   [&] { return stop_ || generation_ != seen; });
        if (stop_)
            return;
        seen = generation_;
        lock.unlock();
        runIndices();
        lock.lock();
        if (--activeWorkers_ == 0)
            done_.notify_all();
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body,
                        const std::function<bool()> &stop)
{
    if (n == 0)
        return;
    recordBatch(n, workers_.size());
    if (workers_.empty() || n == 1) {
        for (std::size_t i = 0; i < n; ++i) {
            if (stop && stop())
                return;
            body(i);
        }
        return;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    body_ = &body;
    stopCheck_ = stop ? &stop : nullptr;
    batchContext_ = obs::currentTraceContext();
    batchSize_ = n;
    next_.store(0, std::memory_order_relaxed);
    activeWorkers_ = workers_.size();
    error_ = nullptr;
    ++generation_;
    lock.unlock();
    wake_.notify_all();

    runIndices(); // the caller is a worker too

    lock.lock();
    done_.wait(lock, [&] { return activeWorkers_ == 0; });
    body_ = nullptr;
    stopCheck_ = nullptr;
    std::exception_ptr error = error_;
    error_ = nullptr;
    lock.unlock();
    if (error)
        std::rethrow_exception(error);
}

void
parallelFor(std::size_t jobs, std::size_t n,
            const std::function<void(std::size_t)> &body,
            const std::function<bool()> &stop)
{
    if (jobs == 0)
        jobs = defaultJobs();
    if (jobs <= 1 || n <= 1) {
        if (n > 0)
            recordBatch(n, 0);
        for (std::size_t i = 0; i < n; ++i) {
            if (stop && stop())
                return;
            body(i);
        }
        return;
    }
    ThreadPool pool(std::min(jobs, n) - 1);
    pool.parallelFor(n, body, stop);
}

} // namespace smq::util
