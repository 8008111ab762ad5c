#include "serve/server.hpp"

#include <algorithm>
#include <charconv>
#include <exception>
#include <filesystem>
#include <sstream>

#include "core/harness.hpp"
#include "jobs/scheduler.hpp"
#include "obs/exposition.hpp"
#include "obs/fsio.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "serve/factory.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "util/stop.hpp"

namespace smq::serve {

namespace {

/**
 * The documented fault schedule applied when a submit sets
 * `"faults":true` — the "bad day on the cloud queue" regime of
 * examples/job_report (docs/PROTOCOL.md normatively lists these
 * numbers; changing them changes cache keys only through the
 * fault_seed field, so they must stay stable within a protocol
 * version).
 */
jobs::FaultProfile
serveFaultProfile()
{
    jobs::FaultProfile profile;
    profile.pTransient = 0.20;
    profile.pQueueTimeout = 0.10;
    profile.pShotTruncation = 0.15;
    profile.calibrationDrift = 0.08;
    return profile;
}

/** Render the smq-serve-result-v1 payload of one finished run. */
std::string
renderResult(const core::BenchmarkRun &run, const SubmitSpec &spec,
             const std::string &key_hex)
{
    std::ostringstream out;
    out << "{\"schema\":\"" << kResultSchema << "\""
        << ",\"benchmark\":\"" << obs::escapeJson(run.benchmark) << "\""
        << ",\"device\":\"" << obs::escapeJson(run.device) << "\""
        << ",\"cache_key\":\"" << key_hex << "\""
        << ",\"shots\":" << spec.shots
        << ",\"repetitions\":" << spec.repetitions
        << ",\"seed\":" << spec.seed
        << ",\"status\":\"" << core::toString(run.status) << "\""
        << ",\"cause\":\"" << core::toString(run.cause) << "\""
        << ",\"scores\":[";
    for (std::size_t i = 0; i < run.scores.size(); ++i) {
        if (i)
            out << ",";
        obs::writeJsonNumber(out, run.scores[i]);
    }
    out << "],\"mean\":";
    obs::writeJsonNumber(out, run.summary.mean);
    out << ",\"stddev\":";
    obs::writeJsonNumber(out, run.summary.stddev);
    out << ",\"error_bar_scale\":";
    obs::writeJsonNumber(out, run.errorBarScale);
    out << ",\"planned_repetitions\":" << run.plannedRepetitions
        << ",\"attempts\":" << run.attempts
        << ",\"physical_two_qubit_gates\":" << run.physicalTwoQubitGates
        << ",\"swaps_inserted\":" << run.swapsInserted
        << ",\"plan\":\"" << obs::escapeJson(run.plan) << "\""
        << ",\"detail\":\"" << obs::escapeJson(run.detail) << "\"}";
    return out.str();
}

std::string
jobId(std::uint64_t id)
{
    return "job-" + std::to_string(id);
}

/**
 * N of a canonical "job-<N>" id, or 0 (no job has it) for anything
 * else: a sign, a leading zero or an overflowing N never aliases a
 * real job.
 */
std::uint64_t
parseJobId(const std::string &id)
{
    constexpr std::string_view kPrefix = "job-";
    if (id.size() <= kPrefix.size() || !id.starts_with(kPrefix) ||
        id[kPrefix.size()] == '0')
        return 0;
    const char *last = id.data() + id.size();
    std::uint64_t n = 0;
    const auto [end, error] =
        std::from_chars(id.data() + kPrefix.size(), last, n);
    return error == std::errc() && end == last ? n : 0;
}

std::array<char, 16>
keyBytes(std::string_view hex)
{
    std::array<char, 16> key{};
    std::copy_n(hex.begin(), std::min(hex.size(), key.size()), key.begin());
    return key;
}

/** The submit reply; @p result is inlined when non-null. */
std::string
submitReply(std::uint64_t id, JobState state, bool cached,
            std::string_view key_hex, const obs::TraceContext &trace,
            const PackedPayload *result)
{
    std::ostringstream out;
    out << "{\"ok\":true,\"type\":\"submit\",\"id\":\"" << jobId(id)
        << "\",\"state\":\"" << toString(state) << "\",\"cached\":"
        << (cached ? "true" : "false") << ",\"cache_key\":\"" << key_hex
        << "\",\"trace_id\":\"" << trace.traceIdHex() << "\"";
    if (result != nullptr)
        out << ",\"result\":" << result->json();
    out << "}";
    return out.str();
}

} // namespace

Server::Server(ServerOptions options, std::vector<device::Device> devices)
    : options_(options), devices_(std::move(devices)),
      cache_(options.cacheBytes)
{
    obs::gauge(obs::names::kServeWorkers)
        .set(static_cast<std::int64_t>(options_.workers));
    obs::gauge(obs::names::kServeQueueLimit)
        .set(static_cast<std::int64_t>(options_.queueLimit));
    if (options_.autoStart && options_.workers > 0)
        startWorkers();
}

Server::~Server()
{
    requestShutdown();
    drain();
}

void
Server::startWorkers()
{
    // The caller of parallelFor participates, so a pool with
    // workers-1 threads plus the scheduler thread yields exactly
    // `workers` concurrent consumer loops.
    pool_ = std::make_unique<util::ThreadPool>(options_.workers - 1);
    workersRunning_ = true;
    scheduler_ = std::thread([this] {
        pool_->parallelFor(options_.workers,
                           [this](std::size_t) { workerLoop(); });
    });
}

void
Server::workerLoop()
{
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workAvailable_.wait(lock, [this] {
                return stopping_.load(std::memory_order_relaxed) ||
                       !queue_.empty();
            });
            if (queue_.empty())
                return; // shutdown and nothing left to claim
            job = queue_.front();
            queue_.pop_front();
            if (job->cancelRequested.load()) {
                job->state = JobState::Cancelled;
                finishJobLocked(*job);
                continue;
            }
            job->state = JobState::Running;
        }
        executeJob(*job);
    }
}

bool
Server::step()
{
    std::shared_ptr<Job> job;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (queue_.empty())
            return false;
        job = queue_.front();
        queue_.pop_front();
        if (job->cancelRequested.load()) {
            job->state = JobState::Cancelled;
            finishJobLocked(*job);
            return true;
        }
        job->state = JobState::Running;
    }
    executeJob(*job);
    return true;
}

void
Server::executeJob(Job &job)
{
    static obs::Counter &completed =
        obs::counter(obs::names::kServeJobsCompleted);

    // All spans below — queue-wait, serve.job, and everything
    // jobs::runJob opens down to the kernels — inherit this job's
    // trace identity, so a cross-process waterfall stitches on it.
    obs::TraceContextScope trace_scope(job.trace);
    if (obs::spanSinkActive() &&
        job.enqueuedAt.time_since_epoch().count() != 0) {
        const std::uint64_t wait_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - job.enqueuedAt)
                .count());
        obs::recordSpan(obs::names::kSpanServeQueueWait,
                        job.enqueueTraceNs, wait_ns,
                        obs::jsonField("job", jobId(job.id)));
    }

    jobs::JobOptions options;
    options.harness.shots = job.spec.shots;
    options.harness.repetitions =
        static_cast<std::size_t>(job.spec.repetitions);
    options.harness.seed = job.spec.seed;
    options.harness.jobs = 1; // concurrency comes from the worker pool
    options.harness.maxSimQubits = options_.maxSimQubits;
    options.harness.planner.force = options_.backend;
    options.stop = [this, &job] {
        return job.cancelRequested.load(std::memory_order_relaxed) ||
               stopping_.load(std::memory_order_relaxed) ||
               util::stopRequested();
    };

    jobs::FaultInjector injector(job.spec.faultSeed);
    if (job.spec.faults)
        injector.setDefaultProfile(serveFaultProfile());

    core::BenchmarkRun run;
    try {
        jobs::SweepContext ctx(options, injector);
        SMQ_TRACE_SPAN(obs::names::kSpanServeJob,
                       obs::jsonField("job", jobId(job.id)));
        run = jobs::runJob(*job.benchmark, *job.device, options, ctx);
    } catch (const std::exception &e) {
        run.benchmark = job.spec.benchmark;
        run.device = job.spec.device;
        run.status = core::RunStatus::Failed;
        run.cause = core::FailureCause::Internal;
        run.detail = e.what();
    }

    PayloadPtr payload = std::make_shared<const PackedPayload>(
        renderResult(run, job.spec, job.keyHex));
    // Interrupted salvage depends on *when* the stop arrived — the one
    // nondeterministic outcome — so it must never be served to a later
    // identical request.
    if (run.cause != core::FailureCause::Interrupted)
        cache_.insertPacked(job.keyHex, payload);

    if (!options_.manifestDir.empty()) {
        obs::RunManifest manifest = core::makeRunManifest(
            "smq_serve", options.harness);
        manifest.extra["serve.job_id"] = jobId(job.id);
        manifest.extra["serve.benchmark"] = job.spec.benchmark;
        manifest.extra["serve.device"] = job.spec.device;
        manifest.extra["serve.cache_key"] = job.keyHex;
        manifest.extra["serve.status"] = core::toString(run.status);
        manifest.extra["serve.plan"] = run.plan;
        manifest.extra["serve.trace_id"] = job.trace.traceIdHex();
        const std::string path = options_.manifestDir + "/" +
                                 jobId(job.id) + "_manifest.json";
        if (!manifest.writeFile(path)) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (storageError_.empty())
                storageError_ = "manifest write failed: " + path;
        }
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        job.payload = std::move(payload);
        job.state = JobState::Done;
        finishJobLocked(job);
    }
    completed.add();
}

void
Server::finishJobLocked(Job &job)
{
    static obs::Counter &cancelled =
        obs::counter(obs::names::kServeJobsCancelled);
    if (job.state == JobState::Cancelled)
        cancelled.add();
    live_.erase(job.id);
    retireLocked(job.id,
                 Record{job.payload, keyBytes(job.keyHex), job.state});
    jobDone_.notify_all();
}

void
Server::retireLocked(std::uint64_t id, Record record)
{
    records_.emplace(id, std::move(record));
    terminalOrder_.push_back(id);
    // Bound the daemon's memory: drop the oldest terminal records
    // past the retention window.
    while (terminalOrder_.size() > options_.retainedJobs) {
        records_.erase(terminalOrder_.front());
        terminalOrder_.pop_front();
    }
}

void
Server::requestShutdown()
{
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_.store(true, std::memory_order_relaxed);
    // Queued jobs are cancelled, not run: drain means "finish what is
    // in flight", exactly the grid driver's SIGTERM discipline.
    while (!queue_.empty()) {
        std::shared_ptr<Job> job = queue_.front();
        queue_.pop_front();
        job->state = JobState::Cancelled;
        finishJobLocked(*job);
    }
    workAvailable_.notify_all();
}

void
Server::drain()
{
    if (scheduler_.joinable())
        scheduler_.join(); // workers exit after their in-flight job
    {
        std::lock_guard<std::mutex> lock(mutex_);
        workersRunning_ = false;
    }
}

std::string
Server::storageError() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return storageError_;
}

JobCounts
Server::jobCounts() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    JobCounts counts;
    auto tally = [&counts](JobState state) {
        switch (state) {
          case JobState::Queued: ++counts.queued; break;
          case JobState::Running: ++counts.running; break;
          case JobState::Done: ++counts.done; break;
          case JobState::Cancelled: ++counts.cancelled; break;
        }
    };
    for (const auto &[id, job] : live_)
        tally(job->state);
    for (const auto &[id, record] : records_)
        tally(record.state);
    return counts;
}

std::size_t
Server::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

std::string
Server::handle(const std::string &line)
{
    static obs::Counter &requests =
        obs::counter(obs::names::kServeRequests);
    static obs::Counter &malformed =
        obs::counter(obs::names::kServeRequestsMalformed);

    requests.add();
    ParsedRequest parsed = parseRequest(line);
    if (!parsed.ok()) {
        malformed.add();
        return errorLine(parsed.error, parsed.message);
    }
    const Request &request = *parsed.request;
    switch (request.type) {
      case RequestType::Submit: return handleSubmit(request.submit);
      case RequestType::Status: return handleStatus(request.id);
      case RequestType::Result: return handleResult(request.id);
      case RequestType::Cancel: return handleCancel(request.id);
      case RequestType::Stats: return handleStats();
      case RequestType::Shutdown: return handleShutdown();
    }
    return errorLine(ErrorCode::BadRequest, "unreachable");
}

std::string
Server::handleSubmit(const SubmitSpec &spec)
{
    static obs::Counter &submitted =
        obs::counter(obs::names::kServeJobsSubmitted);
    static obs::Counter &rejected =
        obs::counter(obs::names::kServeQueueRejected);

    if (shuttingDown() || util::stopRequested())
        return errorLine(ErrorCode::ShuttingDown,
                         "daemon is draining; resubmit later");

    core::BenchmarkPtr benchmark = makeBenchmark(spec.benchmark);
    if (!benchmark)
        return errorLine(ErrorCode::UnknownBenchmark,
                         "no benchmark named " + spec.benchmark);
    const device::Device *device = findDevice(spec.device, devices_);
    if (device == nullptr)
        return errorLine(ErrorCode::UnknownDevice,
                         "no device named " + spec.device);

    CacheKey key = deriveCacheKey(spec, *benchmark, *device);
    PayloadPtr cached = cache_.lookupPacked(key.hex);

    // Adopt the client's trace context, or derive one from the run
    // identity so a daemon-side trace always has an id to stitch on.
    // Either way the id is a pure function of the submit, never of
    // timing — the byte-identity contract.
    static obs::Counter &trace_propagated =
        obs::counter(obs::names::kTracePropagated);
    static obs::Counter &trace_derived =
        obs::counter(obs::names::kTraceDerived);
    obs::TraceContext trace = spec.trace;
    if (trace.valid()) {
        trace_propagated.add();
    } else {
        trace = obs::TraceContext::derive(spec.seed, spec.benchmark,
                                          spec.device);
        trace_derived.add();
    }

    std::shared_ptr<Job> job;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (cached) {
            // A hit is terminal at once: it only ever needs a record.
            const std::uint64_t id = nextId_++;
            retireLocked(id, Record{cached, keyBytes(key.hex),
                                    JobState::Done, true});
            return submitReply(id, JobState::Done, true, key.hex, trace,
                               spec.wait ? cached.get() : nullptr);
        }
        if (queue_.size() >= options_.queueLimit) {
            rejected.add();
            return errorLine(ErrorCode::QueueFull,
                             "queue at capacity (" +
                                 std::to_string(options_.queueLimit) +
                                 "); retry later");
        }
        job = std::make_shared<Job>();
        job->id = nextId_++;
        job->spec = spec;
        job->benchmark = std::move(benchmark);
        job->device = device;
        job->keyHex = std::move(key.hex);
        job->trace = trace;
        live_.emplace(job->id, job);
        submitted.add();
        job->enqueuedAt = std::chrono::steady_clock::now();
        job->enqueueTraceNs = obs::traceNowNs();
        queue_.push_back(job);
        queueHighWater_ = std::max(queueHighWater_, queue_.size());
        workAvailable_.notify_one();
    }

    if (spec.wait)
        waitForJob(*job);

    std::lock_guard<std::mutex> lock(mutex_);
    const bool inline_result = spec.wait && job->state == JobState::Done;
    return submitReply(job->id, job->state, false, job->keyHex, job->trace,
                       inline_result ? job->payload.get() : nullptr);
}

void
Server::waitForJob(Job &job)
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (workersRunning_) {
        jobDone_.wait(lock, [&job] {
            return job.state == JobState::Done ||
                   job.state == JobState::Cancelled;
        });
        return;
    }
    // Manual mode: execute queued jobs on this thread, FIFO, until
    // the awaited one is terminal.
    while (job.state != JobState::Done &&
           job.state != JobState::Cancelled) {
        lock.unlock();
        if (!step())
            break; // queue empty yet job not terminal: cancelled race
        lock.lock();
    }
}

std::optional<Server::Record>
Server::findJobLocked(const std::string &id, std::shared_ptr<Job> *live)
{
    const std::uint64_t n = parseJobId(id);
    if (auto it = live_.find(n); it != live_.end()) {
        const Job &job = *it->second;
        if (live != nullptr)
            *live = it->second;
        return Record{job.payload, keyBytes(job.keyHex), job.state};
    }
    if (auto it = records_.find(n); it != records_.end())
        return it->second;
    return std::nullopt;
}

std::string
Server::handleStatus(const std::string &id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::optional<Record> job = findJobLocked(id);
    if (!job)
        return errorLine(ErrorCode::NotFound, "no job with id " + id);
    std::ostringstream out;
    out << "{\"ok\":true,\"type\":\"status\",\"id\":\"" << id
        << "\",\"state\":\"" << toString(job->state)
        << "\",\"cached\":" << (job->cached ? "true" : "false")
        << ",\"cache_key\":\""
        << std::string_view(job->key.data(), job->key.size()) << "\"}";
    return out.str();
}

std::string
Server::handleResult(const std::string &id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::optional<Record> job = findJobLocked(id);
    if (!job)
        return errorLine(ErrorCode::NotFound, "no job with id " + id);
    if (job->state == JobState::Cancelled)
        return errorLine(ErrorCode::Cancelled,
                         "job " + id + " was cancelled before running");
    if (job->state != JobState::Done)
        return errorLine(ErrorCode::NotReady,
                         "job " + id + " is " + toString(job->state));
    std::ostringstream out;
    out << "{\"ok\":true,\"type\":\"result\",\"id\":\"" << id
        << "\",\"cached\":" << (job->cached ? "true" : "false")
        << ",\"result\":" << job->payload->json() << "}";
    return out.str();
}

std::string
Server::handleCancel(const std::string &id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::shared_ptr<Job> live;
    const std::optional<Record> found = findJobLocked(id, &live);
    if (!found)
        return errorLine(ErrorCode::NotFound, "no job with id " + id);
    JobState state = found->state;
    if (state == JobState::Queued) {
        if (auto it = std::find(queue_.begin(), queue_.end(), live);
            it != queue_.end())
            queue_.erase(it);
        live->state = state = JobState::Cancelled;
        live->cancelRequested.store(true);
        finishJobLocked(*live);
    } else if (state == JobState::Running) {
        // The jobs-layer stop probe salvages completed repetitions;
        // the job still terminates as Done (cause Interrupted).
        live->cancelRequested.store(true);
    }
    // Terminal states: cancel is idempotent; report where things are.
    std::ostringstream out;
    out << "{\"ok\":true,\"type\":\"cancel\",\"id\":\"" << id
        << "\",\"state\":\"" << toString(state) << "\"}";
    return out.str();
}

std::string
Server::handleStats()
{
    // Cache stats first: cache_ has its own lock, and taking it while
    // holding mutex_ would order against workers inserting results.
    const CacheStats cache = cache_.stats();
    const JobCounts counts = jobCounts();
    // Quantiles come from the same shared registry histogram the spans
    // feed and the same obs::histogramQuantile the Prometheus snapshot
    // and the HTML report use — one derivation, three surfaces.
    const obs::HistogramSnapshot job_ns =
        obs::histogram(std::string(obs::names::kStageHistogramPrefix) +
                       obs::names::kSpanServeJob +
                       obs::names::kStageHistogramSuffix)
            .snapshot();
    const std::uint64_t uptime = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::steady_clock::now() - startTime_)
            .count());
    const double ratio =
        cache.hits + cache.misses == 0
            ? 0.0
            : static_cast<double>(cache.hits) /
                  static_cast<double>(cache.hits + cache.misses);
    std::string reply;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::ostringstream out;
        out << "{\"ok\":true,\"type\":\"stats\",\"protocol\":\""
            << kProtocolVersion << "\""
            << ",\"workers\":" << options_.workers
            << ",\"uptime_seconds\":" << uptime
            << ",\"queue_depth\":" << queue_.size()
            << ",\"queue_limit\":" << options_.queueLimit
            << ",\"queue_high_water\":" << queueHighWater_
            << ",\"draining\":" << (shuttingDown() ? "true" : "false")
            << ",\"jobs\":{\"queued\":" << counts.queued
            << ",\"running\":" << counts.running
            << ",\"done\":" << counts.done
            << ",\"cancelled\":" << counts.cancelled << "}"
            << ",\"job_ns\":{\"count\":" << job_ns.count << ",\"p50\":";
        obs::writeJsonNumber(out, obs::histogramQuantile(job_ns, 0.5));
        out << ",\"p90\":";
        obs::writeJsonNumber(out, obs::histogramQuantile(job_ns, 0.9));
        out << ",\"p99\":";
        obs::writeJsonNumber(out, obs::histogramQuantile(job_ns, 0.99));
        out << "}"
            << ",\"cache\":{\"entries\":" << cache.entries
            << ",\"bytes\":" << cache.bytes
            << ",\"budget_bytes\":" << options_.cacheBytes
            << ",\"hits\":" << cache.hits
            << ",\"misses\":" << cache.misses
            << ",\"evictions\":" << cache.evictions
            << ",\"hit_ratio\":";
        obs::writeJsonNumber(out, ratio);
        out << "}}";
        reply = out.str();
    }
    // Refresh the textfile-collector snapshot outside the lock: a
    // slow disk must not stall submit/worker progress.
    writeMetricsFile();
    return reply;
}

void
Server::writeMetricsFile()
{
    if (options_.metricsFile.empty())
        return;
    std::string error;
    if (!obs::atomicWriteFile(options_.metricsFile,
                              obs::renderPrometheusSnapshot(), &error)) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (storageError_.empty())
            storageError_ = "metrics write failed (" +
                            options_.metricsFile + "): " + error;
    }
}

std::size_t
Server::queueHighWater() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queueHighWater_;
}

std::string
Server::handleShutdown()
{
    const std::size_t queued_before = queueDepth();
    requestShutdown();
    std::ostringstream out;
    out << "{\"ok\":true,\"type\":\"shutdown\",\"state\":\"draining\""
        << ",\"cancelled_queued\":" << queued_before << "}";
    return out.str();
}

} // namespace smq::serve
