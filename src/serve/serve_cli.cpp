#include "serve/serve_cli.hpp"

#include <exception>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>

#include "core/harness.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "util/cli.hpp"
#include "util/stop.hpp"

namespace smq::serve {

namespace {

constexpr const char *kUsage =
    "usage: smq_serve (--socket PATH | --pipe) [options]\n"
    "\n"
    "  --socket PATH       serve a Unix-domain socket at PATH\n"
    "  --pipe              serve stdin/stdout, one JSON line each way\n"
    "  --workers N         concurrent job executors (default 2)\n"
    "  --queue-limit N     queued jobs before queue_full (default 64)\n"
    "  --cache-mb N        result-cache budget in MiB (default 32)\n"
    "  --max-sim-qubits N  simulator width gate (default 22)\n"
    "  --backend NAME      force the simulation engine for every job:\n"
    "                      statevector, density-matrix, stabilizer or\n"
    "                      trajectory (default auto = planner's choice)\n"
    "  --manifest-dir DIR  write per-job + final run manifests to DIR\n"
    "  --trace DIR         record spans, written to DIR on shutdown\n"
    "  --metrics-file PATH rewrite PATH with a Prometheus text snapshot\n"
    "                      after every stats request and at shutdown\n"
    "  --no-metrics        leave the metric registry disabled\n"
    "\n"
    "exit codes: 0 clean drain, 75 socket already served,\n"
    "            74 bind or manifest-write failure, 2 usage\n";

int
usageError(std::ostream &err, const std::string &message)
{
    err << "smq_serve: " << message << "\n" << kUsage;
    return kServeUsage;
}

/** Pipe transport: one request line in, one reply line out. */
void
servePipe(Server &server, std::istream &in, std::ostream &out)
{
    std::string line;
    while (!server.shuttingDown() && !util::stopRequested() &&
           std::getline(in, line)) {
        if (line.empty())
            continue;
        out << server.handle(line) << "\n" << std::flush;
    }
}

} // namespace

int
serveMain(const std::vector<std::string> &args, std::istream &in,
          std::ostream &out, std::ostream &err)
{
    ServerOptions options;
    std::string socket_path;
    std::string trace_dir;
    std::string backend = sim::toString(options.backend);
    std::uint64_t cache_mb = options.cacheBytes >> 20;
    bool pipe_mode = false;
    bool metrics = true;
    bool help = false;
    util::Flags flags;
    flags.add("--socket", socket_path)
        .add("--pipe", pipe_mode)
        .add("--workers", options.workers)
        .add("--queue-limit", options.queueLimit)
        .add("--cache-mb", cache_mb)
        .add("--max-sim-qubits", options.maxSimQubits)
        .add("--backend", backend)
        .add("--manifest-dir", options.manifestDir)
        .add("--trace", trace_dir)
        .add("--metrics-file", options.metricsFile)
        .add("--no-metrics", metrics, false)
        .add("--help", help);
    const std::string error = flags.parse(args);
    if (!error.empty())
        return usageError(err, error);
    if (help) {
        out << kUsage;
        return kServeOk;
    }
    if (options.queueLimit == 0)
        return usageError(err, "bad --queue-limit value");
    // N MiB is N << 20 bytes, which would wrap past SIZE_MAX.
    if (cache_mb > std::numeric_limits<std::size_t>::max() >> 20)
        return usageError(err, "bad --cache-mb value");
    options.cacheBytes = cache_mb << 20;
    if (options.maxSimQubits == 0)
        return usageError(err, "bad --max-sim-qubits value");
    const std::optional<sim::BackendKind> kind =
        sim::backendFromString(backend);
    if (!kind)
        return usageError(err, "bad --backend value");
    options.backend = *kind;
    if (pipe_mode == !socket_path.empty())
        return usageError(err,
                          "exactly one of --socket and --pipe required");
    if (options.workers == 0)
        options.workers = 1; // the daemon always needs an executor

    if (metrics)
        obs::setMetricsEnabled(true);
    if (!trace_dir.empty())
        obs::startTracing(trace_dir);

    int exit_code = kServeOk;
    {
        Server server(options);
        if (pipe_mode) {
            servePipe(server, in, out);
        } else {
            std::string error;
            switch (serveOverSocket(server, socket_path, &error)) {
              case SocketLoopResult::Drained:
                break;
              case SocketLoopResult::Busy:
                err << "smq_serve: " << error << "\n";
                return kServeBusy;
              case SocketLoopResult::BindError:
                err << "smq_serve: " << error << "\n";
                return kServeStorageError;
            }
        }

        // EOF, a shutdown request, or a signal: drain in-flight work
        // (salvaged through the jobs-layer stop probe) and exit 0.
        server.requestShutdown();
        server.drain();
        // Final scrape covers the whole daemon lifetime, including
        // jobs finished after the last stats request.
        server.writeMetricsFile();
        if (!server.storageError().empty()) {
            err << "smq_serve: " << server.storageError() << "\n";
            exit_code = kServeStorageError;
        }

        if (!options.manifestDir.empty()) {
            core::HarnessOptions harness;
            harness.maxSimQubits = options.maxSimQubits;
            harness.planner.force = options.backend;
            obs::RunManifest manifest =
                core::makeRunManifest("smq_serve", harness);
            const JobCounts counts = server.jobCounts();
            manifest.extra["serve.jobs_done"] =
                std::to_string(counts.done);
            manifest.extra["serve.jobs_cancelled"] =
                std::to_string(counts.cancelled);
            const std::string path =
                options.manifestDir + "/smq_serve_manifest.json";
            if (!manifest.writeFile(path)) {
                err << "smq_serve: cannot write " << path << "\n";
                exit_code = kServeStorageError;
            }
        }
    }

    if (!trace_dir.empty())
        obs::stopTracing();
    return exit_code;
}

namespace {

constexpr const char *kSubmitUsageText =
    "usage: smq_sentinel submit --socket PATH --benchmark NAME\n"
    "           --device NAME [--shots N] [--repetitions N] [--seed N]\n"
    "           [--faults] [--fault-seed N] [--no-wait] [--trace DIR]\n"
    "\n"
    "  --trace DIR   record a client-side `submit` span to DIR; its\n"
    "                trace id rides the wire, so the daemon's spans\n"
    "                stitch under the same waterfall\n"
    "\n"
    "exit codes: 0 accepted (reply printed), 1 daemon rejected the\n"
    "            request, 2 usage error or daemon unreachable\n";

int
submitUsageError(std::ostream &err, const std::string &message)
{
    err << "smq_sentinel: " << message << "\n" << kSubmitUsageText;
    return kSubmitUsage;
}

} // namespace

int
submitMain(const std::vector<std::string> &args, std::ostream &out,
           std::ostream &err)
{
    std::string socket_path, benchmark, device, trace_dir;
    std::uint64_t shots = 2000, repetitions = 3, seed = 12345;
    std::uint64_t fault_seed = 0;
    bool faults = false, wait = true, help = false;
    util::Flags flags;
    flags.add("--socket", socket_path)
        .add("--benchmark", benchmark)
        .add("--device", device)
        .add("--shots", shots)
        .add("--repetitions", repetitions)
        .add("--seed", seed)
        .add("--fault-seed", fault_seed)
        .add("--faults", faults)
        .add("--no-wait", wait, false)
        .add("--trace", trace_dir)
        .add("--help", help);
    const std::string usage = flags.parse(args);
    if (!usage.empty())
        return submitUsageError(err, usage);
    if (help) {
        out << kSubmitUsageText;
        return kSubmitOk;
    }
    if (socket_path.empty() || benchmark.empty() || device.empty())
        return submitUsageError(
            err, "--socket, --benchmark and --device are required");

    // The client originates the trace: the context is derived from the
    // same (seed, benchmark, device) identity the daemon would use, so
    // --trace on either side (or both) lands on the same trace id.
    const obs::TraceContext trace =
        obs::TraceContext::derive(seed, benchmark, device);
    if (!trace_dir.empty())
        obs::startTracing(trace_dir);

    std::ostringstream request;
    request << "{\"type\":\"submit\",\"benchmark\":\""
            << obs::escapeJson(benchmark) << "\",\"device\":\""
            << obs::escapeJson(device) << "\",\"shots\":" << shots
            << ",\"repetitions\":" << repetitions << ",\"seed\":" << seed
            << ",\"faults\":" << (faults ? "true" : "false")
            << ",\"fault_seed\":" << fault_seed
            << ",\"wait\":" << (wait ? "true" : "false")
            << ",\"trace\":{\"id\":\"" << trace.traceIdHex()
            << "\",\"parent\":\"" << trace.parentSpanHex() << "\"}}";

    std::string reply, error;
    bool sent = false;
    {
        obs::TraceContextScope trace_scope(trace);
        SMQ_TRACE_SPAN(obs::names::kSpanSubmit,
                       obs::jsonField("benchmark", benchmark));
        sent = requestOverSocket(socket_path, request.str(), &reply,
                                 &error);
    }
    if (!trace_dir.empty())
        obs::stopTracing();
    if (!sent) {
        err << "smq_sentinel: " << error << "\n";
        return kSubmitUsage;
    }
    out << reply << "\n";

    try {
        const obs::JsonValue root = obs::parseJson(reply);
        const obs::JsonValue *ok = root.find("ok");
        if (ok != nullptr && ok->kind == obs::JsonValue::Kind::Bool &&
            ok->boolean)
            return kSubmitOk;
    } catch (const std::exception &) {
        // fall through: an unparseable reply is a rejection
    }
    return kSubmitRejected;
}

} // namespace smq::serve
