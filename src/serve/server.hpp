/**
 * @file
 * The benchmark-as-a-service core: a bounded job queue over the
 * fault-tolerant `jobs/` layer, executed by workers running on the
 * `util/` thread pool, fronted by the smq-serve-v1 protocol and the
 * content-addressed result cache.
 *
 * The Server is transport-agnostic: handle() maps one request line to
 * exactly one response line, whatever carried it (Unix socket, stdin
 * pipe, an in-process test, the fuzz protocol oracle). Lifecycle:
 *
 *   submit ── cache hit ──────────────────────► done (cached)
 *   submit ── queue full ─► queue_full error (429-style backpressure)
 *   submit ─► queued ─► running ─► done        (worker execution)
 *          └► cancel while queued ─► cancelled (never runs)
 *             cancel while running ─► done     (salvaged, Interrupted)
 *
 * Graceful shutdown (protocol `shutdown`, SIGINT/SIGTERM via
 * util/stop, or requestShutdown()) follows the grid driver's drain
 * discipline: new submits are refused, queued jobs are cancelled,
 * in-flight jobs salvage their completed repetitions through the
 * jobs-layer stop probe, and drain() returns once every accepted job
 * is terminal — the daemon then exits 0.
 *
 * Determinism: job execution is the exact jobs::runJob path with a
 * per-request seed, so a daemon result is byte-identical to the batch
 * path under the same spec, and a cache hit is byte-identical to a
 * fresh run. Results cut short by cancel/shutdown (cause Interrupted)
 * are the one timing-dependent outcome, and are never cached.
 */

#ifndef SMQ_SERVE_SERVER_HPP
#define SMQ_SERVE_SERVER_HPP

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/benchmark.hpp"
#include "device/device.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "sim/backend.hpp"
#include "util/thread_pool.hpp"

namespace smq::jobs {
struct JobOptions;
}

namespace smq::serve {

/** Daemon configuration (CLI flags map onto this 1:1). */
struct ServerOptions
{
    /** Concurrent job executors (0 = manual step()/drain() only). */
    std::size_t workers = 2;
    /** Largest number of queued (not yet running) jobs. */
    std::size_t queueLimit = 64;
    /** Result-cache byte budget (`--cache-mb` × 2^20). */
    std::size_t cacheBytes = std::size_t(32) << 20;
    /** Simulator width gate, as in the batch harness. */
    std::size_t maxSimQubits = 22;
    /**
     * Simulation engine for every job (`--backend`): Auto lets the
     * planner pick per circuit, anything else forces the engine.
     * Deliberately NOT part of the result cache key — the key hashes
     * the request (SubmitSpec) only, so changing the daemon's backend
     * serves possibly-different payloads under the same key; operators
     * who switch engines should start with a cold cache.
     */
    sim::BackendKind backend = sim::BackendKind::Auto;
    /** When non-empty: write `<job-id>_manifest.json` per job here. */
    std::string manifestDir;
    /** Spawn the worker pool in the constructor (tests may disable). */
    bool autoStart = true;
    /** Terminal job records retained for status/result queries. */
    std::size_t retainedJobs = 10000;
    /**
     * When non-empty: rewrite this file (atomically) with a Prometheus
     * text snapshot of the metric registry after every `stats` request
     * (`smq_serve --metrics-file`). A textfile collector pointed here
     * scrapes the daemon without speaking the protocol.
     */
    std::string metricsFile;
};

/** Point-in-time job-state tallies (for `stats` replies and tests). */
struct JobCounts
{
    std::size_t queued = 0;
    std::size_t running = 0;
    std::size_t done = 0;
    std::size_t cancelled = 0;
};

class Server
{
  public:
    explicit Server(ServerOptions options,
                    std::vector<device::Device> devices =
                        device::allDevices());

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Initiates shutdown and drains before destruction. */
    ~Server();

    /**
     * Process one request line, returning exactly one response line
     * (no trailing newline). Never throws; malformed input yields an
     * `ok:false` reply and the server stays serviceable. A `submit`
     * with `"wait":true` blocks until the job is terminal and inlines
     * the result (executing on the caller when no workers run).
     */
    std::string handle(const std::string &line);

    /**
     * Run the oldest queued job on the calling thread (manual mode /
     * tests). @return false when the queue is empty.
     */
    bool step();

    /**
     * Refuse new submits, cancel queued jobs, wake the workers. Safe
     * from any thread; idempotent. The protocol `shutdown` request,
     * the signal-driven transport loops and the destructor all funnel
     * here.
     */
    void requestShutdown();

    /** Whether shutdown has been initiated. */
    bool shuttingDown() const
    {
        return stopping_.load(std::memory_order_relaxed);
    }

    /**
     * Block until every accepted job is terminal and the worker pool
     * has stopped. Requires requestShutdown() first (the destructor
     * does both).
     */
    void drain();

    /** First manifest-write failure ("write: No space left..."). */
    std::string storageError() const;

    /**
     * Write the Prometheus snapshot to options().metricsFile now
     * (no-op without one). The stats path calls this after every
     * reply; the CLI calls it once more after drain so the final
     * scrape reflects the whole daemon lifetime.
     */
    void writeMetricsFile();

    CacheStats cacheStats() const { return cache_.stats(); }
    JobCounts jobCounts() const;
    std::size_t queueDepth() const;
    /** Largest queue depth observed since construction. */
    std::size_t queueHighWater() const;
    const ServerOptions &options() const { return options_; }

  private:
    /**
     * A job in flight (queued or running). Shared: the live map, the
     * queue, an executing worker and a blocked `wait` submit each hold
     * a reference, so retiring a job never frees one someone is
     * still reading.
     */
    struct Job
    {
        std::uint64_t id = 0;
        SubmitSpec spec;
        core::BenchmarkPtr benchmark;
        const device::Device *device = nullptr;
        std::string keyHex; ///< CacheKey::hex
        JobState state = JobState::Queued;
        std::atomic<bool> cancelRequested{false};
        PayloadPtr payload; ///< result once state == Done
        /** Trace identity: adopted from the wire or derived from the
         *  spec; every span the job emits carries it. */
        obs::TraceContext trace;
        /** Enqueue instant, for the `serve.queue_wait` span. */
        std::chrono::steady_clock::time_point enqueuedAt{};
        /** Trace-epoch timestamp of the enqueue (0 when tracing off). */
        std::uint64_t enqueueTraceNs = 0;
    };

    /**
     * All a terminal job keeps for status/result/cancel, about 0.1 KB
     * with its map node. The payload is shared with the cache entry
     * that served or stored it.
     */
    struct Record
    {
        PayloadPtr payload; ///< null unless state == Done
        std::array<char, 16> key{}; ///< CacheKey::hex
        JobState state = JobState::Done;
        bool cached = false; ///< payload came from the cache
    };

    std::string handleSubmit(const SubmitSpec &spec);
    std::string handleStatus(const std::string &id);
    std::string handleResult(const std::string &id);
    std::string handleCancel(const std::string &id);
    std::string handleStats();
    std::string handleShutdown();

    void startWorkers();
    void workerLoop();
    void executeJob(Job &job);
    void finishJobLocked(Job &job);
    void retireLocked(std::uint64_t id, Record record);
    void waitForJob(Job &job);
    /** Record of job @p id (a snapshot if live); @p live gets the job
     *  while it is queued or running. */
    std::optional<Record> findJobLocked(const std::string &id,
                                        std::shared_ptr<Job> *live = nullptr);

    ServerOptions options_;
    std::vector<device::Device> devices_;
    ResultCache cache_;

    mutable std::mutex mutex_;
    std::condition_variable workAvailable_;
    std::condition_variable jobDone_;
    std::deque<std::shared_ptr<Job>> queue_;
    std::map<std::uint64_t, std::shared_ptr<Job>> live_;
    /** Terminal records, the newest options_.retainedJobs of them. */
    std::map<std::uint64_t, Record> records_;
    std::deque<std::uint64_t> terminalOrder_; ///< retention eviction order
    std::uint64_t nextId_ = 1;
    std::atomic<bool> stopping_{false};
    bool workersRunning_ = false;
    std::string storageError_;
    const std::chrono::steady_clock::time_point startTime_ =
        std::chrono::steady_clock::now();
    std::size_t queueHighWater_ = 0; ///< guarded by mutex_

    std::unique_ptr<util::ThreadPool> pool_;
    std::thread scheduler_;
};

} // namespace smq::serve

#endif // SMQ_SERVE_SERVER_HPP
