#include "serve/serve_cli.hpp"

#include <cctype>
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

/** Full-token unsigned parse (stoul partial-parses and wraps signs). */
std::optional<std::size_t>
parseSize(const std::string &text)
{
    if (text.empty() ||
        !std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    try {
        std::size_t consumed = 0;
        unsigned long value = std::stoul(text, &consumed);
        if (consumed != text.size())
            return std::nullopt;
        return static_cast<std::size_t>(value);
    } catch (const std::exception &) {
        return std::nullopt;
    }
}

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
    bool pipe_mode = false;
    bool metrics = true;

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto value = [&]() -> std::optional<std::string> {
            if (i + 1 >= args.size())
                return std::nullopt;
            return args[++i];
        };
        if (arg == "--socket") {
            auto v = value();
            if (!v)
                return usageError(err, "--socket needs PATH");
            socket_path = *v;
        } else if (arg == "--pipe") {
            pipe_mode = true;
        } else if (arg == "--workers") {
            auto v = value();
            auto n = v ? parseSize(*v) : std::nullopt;
            if (!n)
                return usageError(err, "bad --workers value");
            options.workers = *n;
        } else if (arg == "--queue-limit") {
            auto v = value();
            auto n = v ? parseSize(*v) : std::nullopt;
            if (!n || *n == 0)
                return usageError(err, "bad --queue-limit value");
            options.queueLimit = *n;
        } else if (arg == "--cache-mb") {
            auto v = value();
            auto n = v ? parseSize(*v) : std::nullopt;
            // N MiB is N << 20 bytes, which would wrap past SIZE_MAX.
            if (!n || *n > std::numeric_limits<std::size_t>::max() >> 20)
                return usageError(err, "bad --cache-mb value");
            options.cacheBytes = *n << 20;
        } else if (arg == "--max-sim-qubits") {
            auto v = value();
            auto n = v ? parseSize(*v) : std::nullopt;
            if (!n || *n == 0)
                return usageError(err, "bad --max-sim-qubits value");
            options.maxSimQubits = *n;
        } else if (arg == "--backend") {
            auto v = value();
            auto kind =
                v ? sim::backendFromString(*v) : std::nullopt;
            if (!kind)
                return usageError(err, "bad --backend value");
            options.backend = *kind;
        } else if (arg == "--manifest-dir") {
            auto v = value();
            if (!v)
                return usageError(err, "--manifest-dir needs DIR");
            options.manifestDir = *v;
        } else if (arg == "--trace") {
            auto v = value();
            if (!v)
                return usageError(err, "--trace needs DIR");
            trace_dir = *v;
        } else if (arg == "--metrics-file") {
            auto v = value();
            if (!v)
                return usageError(err, "--metrics-file needs PATH");
            options.metricsFile = *v;
        } else if (arg == "--no-metrics") {
            metrics = false;
        } else if (arg == "--help") {
            out << kUsage;
            return kServeOk;
        } else {
            return usageError(err, "unknown argument: " + arg);
        }
    }
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
    bool faults = false, wait = true;

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto value = [&]() -> std::optional<std::string> {
            if (i + 1 >= args.size())
                return std::nullopt;
            return args[++i];
        };
        auto number = [&](const char *flag,
                          std::uint64_t &target) -> bool {
            auto v = value();
            auto n = v ? parseSize(*v) : std::nullopt;
            if (!n)
                return false;
            target = *n;
            (void)flag;
            return true;
        };
        if (arg == "--socket") {
            auto v = value();
            if (!v)
                return submitUsageError(err, "--socket needs PATH");
            socket_path = *v;
        } else if (arg == "--benchmark") {
            auto v = value();
            if (!v)
                return submitUsageError(err, "--benchmark needs NAME");
            benchmark = *v;
        } else if (arg == "--device") {
            auto v = value();
            if (!v)
                return submitUsageError(err, "--device needs NAME");
            device = *v;
        } else if (arg == "--shots") {
            if (!number("--shots", shots))
                return submitUsageError(err, "bad --shots value");
        } else if (arg == "--repetitions") {
            if (!number("--repetitions", repetitions))
                return submitUsageError(err, "bad --repetitions value");
        } else if (arg == "--seed") {
            if (!number("--seed", seed))
                return submitUsageError(err, "bad --seed value");
        } else if (arg == "--fault-seed") {
            if (!number("--fault-seed", fault_seed))
                return submitUsageError(err, "bad --fault-seed value");
        } else if (arg == "--faults") {
            faults = true;
        } else if (arg == "--no-wait") {
            wait = false;
        } else if (arg == "--trace") {
            auto v = value();
            if (!v)
                return submitUsageError(err, "--trace needs DIR");
            trace_dir = *v;
        } else if (arg == "--help") {
            out << kSubmitUsageText;
            return kSubmitOk;
        } else {
            return submitUsageError(err, "unknown argument: " + arg);
        }
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
