/**
 * @file
 * Benchmark-as-a-service tests (`ctest -L serve`): the factory
 * grammar, cache-key derivation and LRU eviction, the smq-serve-v1
 * parser, the Server lifecycle in manual and threaded modes (cache
 * hit byte-identity, queue-full backpressure, cancel of queued and
 * in-flight jobs, shutdown drain), the pipe-mode CLI end to end, the
 * PROTOCOL.md doc-closure contract, and — through real subprocesses
 * of smq_serve / smq_sentinel — the socket transport, the `submit`
 * client, busy-socket detection and SIGTERM drain.
 */

#include <gtest/gtest.h>

#include <malloc.h>
#include <sys/wait.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <unistd.h>
#include <vector>

#include "core/status.hpp"
#include "device/device.hpp"
#include "jobs/scheduler.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "serve/cache.hpp"
#include "serve/factory.hpp"
#include "serve/protocol.hpp"
#include "serve/serve_cli.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "util/stop.hpp"

namespace smq {
namespace {

namespace fs = std::filesystem;

fs::path
freshDir(const std::string &name)
{
    fs::path dir = fs::temp_directory_path() / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream contents;
    contents << in.rdbuf();
    return contents.str();
}

/** Parse a reply line, asserting it is a JSON object. */
obs::JsonValue
parseReply(const std::string &reply)
{
    obs::JsonValue root;
    EXPECT_NO_THROW(root = obs::parseJson(reply)) << reply;
    EXPECT_EQ(root.kind, obs::JsonValue::Kind::Object) << reply;
    return root;
}

/** The `ok` field of a reply (false when absent/malformed). */
bool
replyOk(const std::string &reply)
{
    const obs::JsonValue root = parseReply(reply);
    const obs::JsonValue *ok = root.find("ok");
    return ok != nullptr && ok->kind == obs::JsonValue::Kind::Bool &&
           ok->boolean;
}

std::string
replyField(const std::string &reply, const char *field)
{
    const obs::JsonValue root = parseReply(reply);
    const obs::JsonValue *value = root.find(field);
    return value == nullptr ? std::string() : value->text;
}

/** Extract the raw `"result":{...}` object text from a reply line. */
std::string
resultObjectText(const std::string &reply)
{
    const std::size_t start = reply.find("\"result\":{");
    if (start == std::string::npos)
        return "";
    // The payload contains no nested objects, so the first '}' after
    // the marker closes it.
    const std::size_t open = reply.find('{', start);
    const std::size_t close = reply.find('}', open);
    if (close == std::string::npos)
        return "";
    return reply.substr(open, close - open + 1);
}

// --- factory ---------------------------------------------------------

TEST(ServeFactory, RoundTripsCanonicalNames)
{
    for (const char *name :
         {"ghz_3", "ghz_12", "mermin_bell_3", "bit_code_3d1r",
          "phase_code_3d2r", "qaoa_vanilla_4", "qaoa_zzswap_4",
          "qaoa_vanilla_4_p2", "vqe_4", "hamiltonian_sim_4q1s"}) {
        core::BenchmarkPtr benchmark = serve::makeBenchmark(name);
        ASSERT_NE(benchmark, nullptr) << name;
        EXPECT_EQ(benchmark->name(), name);
    }
}

TEST(ServeFactory, RejectsNamesOutsideTheGrammar)
{
    for (const char *name :
         {"", "ghz", "ghz_", "ghz_0", "ghz_1", "ghz_2x", "ghz_-3",
          "ghz_03x", "bit_code_3d", "bit_code_3d0r", "phase_code_d1r",
          "hamiltonian_sim_4q", "hamiltonian_sim_4q0s", "GHZ_3",
          "toffoli_3", "qaoa_vanilla_4_p1", "qaoa_vanilla_4_p9"}) {
        EXPECT_EQ(serve::makeBenchmark(name), nullptr) << name;
    }
}

TEST(ServeFactory, CapsVariationalSizesButNotStructuralOnes)
{
    // QAOA/VQE run a classical optimiser against a noiseless
    // statevector at construction; a 40-qubit request must be refused
    // at the name layer, not attempted.
    EXPECT_EQ(serve::makeBenchmark("vqe_13"), nullptr);
    EXPECT_EQ(serve::makeBenchmark("qaoa_vanilla_13"), nullptr);
    EXPECT_EQ(serve::makeBenchmark("mermin_bell_13"), nullptr);
    // Structural circuits are cheap to build; the harness itself
    // reports them TooLarge when they exceed the simulator gate.
    EXPECT_NE(serve::makeBenchmark("ghz_100"), nullptr);
}

TEST(ServeFactory, FindsDevicesByExactName)
{
    const std::vector<device::Device> devices = device::allDevices();
    const device::Device *aqt = serve::findDevice("AQT", devices);
    ASSERT_NE(aqt, nullptr);
    EXPECT_EQ(aqt->name, "AQT");
    EXPECT_EQ(serve::findDevice("aqt", devices), nullptr);
    EXPECT_EQ(serve::findDevice("", devices), nullptr);
}

// --- cache key -------------------------------------------------------

TEST(ServeCacheKey, DeterministicAndSensitiveToEveryField)
{
    const std::vector<device::Device> devices = device::allDevices();
    const device::Device *device = serve::findDevice("AQT", devices);
    ASSERT_NE(device, nullptr);
    core::BenchmarkPtr ghz3 = serve::makeBenchmark("ghz_3");

    serve::SubmitSpec base;
    base.benchmark = "ghz_3";
    base.device = "AQT";
    const serve::CacheKey key1 = deriveCacheKey(base, *ghz3, *device);
    const serve::CacheKey key2 = deriveCacheKey(base, *ghz3, *device);
    EXPECT_EQ(key1.hex, key2.hex);
    EXPECT_EQ(key1.text, key2.text);
    EXPECT_EQ(key1.hex.size(), 16u);

    std::vector<serve::SubmitSpec> variants(5, base);
    variants[0].shots = 1999;
    variants[1].repetitions = 4;
    variants[2].seed = 1;
    variants[3].faults = true;
    variants[4].faultSeed = 9;
    for (const serve::SubmitSpec &variant : variants) {
        EXPECT_NE(deriveCacheKey(variant, *ghz3, *device).hex, key1.hex)
            << variant.shots << " " << variant.repetitions;
    }

    // Different circuit content and different device both re-key.
    core::BenchmarkPtr ghz4 = serve::makeBenchmark("ghz_4");
    serve::SubmitSpec other = base;
    other.benchmark = "ghz_4";
    EXPECT_NE(deriveCacheKey(other, *ghz4, *device).hex, key1.hex);
    const device::Device *ionq = serve::findDevice("IonQ", devices);
    if (ionq != nullptr) {
        EXPECT_NE(deriveCacheKey(base, *ghz3, *ionq).hex, key1.hex);
    }
}

// --- result cache ----------------------------------------------------

TEST(ServeCache, LruEvictionUnderByteBudget)
{
    // Budget fits two ~100-byte entries (64 bytes bookkeeping each).
    serve::ResultCache cache(400);
    const std::string payload(120, 'x');
    cache.insert("a", payload);
    cache.insert("b", payload);
    EXPECT_TRUE(cache.lookup("a").has_value()); // refresh: a is now MRU
    cache.insert("c", payload);                 // evicts b, the LRU
    EXPECT_TRUE(cache.lookup("a").has_value());
    EXPECT_FALSE(cache.lookup("b").has_value());
    EXPECT_TRUE(cache.lookup("c").has_value());

    const serve::CacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.misses, 1u);
}

TEST(ServeCache, OversizePayloadIsNotStored)
{
    serve::ResultCache cache(100);
    cache.insert("k", std::string(200, 'y'));
    EXPECT_FALSE(cache.lookup("k").has_value());
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ServeCache, ReinsertRefreshesPayload)
{
    serve::ResultCache cache(1 << 12);
    cache.insert("k", "old");
    cache.insert("k", "new");
    auto hit = cache.lookup("k");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "new");
    EXPECT_EQ(cache.stats().entries, 1u);
}

/** A real result payload (the done job of the lifecycle script). */
const std::string kSamplePayload =
    "{\"schema\":\"smq-serve-result-v1\",\"benchmark\":\"ghz_3\","
    "\"device\":\"AQT\",\"cache_key\":\"fbb1aaedb41febc9\","
    "\"shots\":50,\"repetitions\":2,\"seed\":12345,\"status\":\"ok\","
    "\"cause\":\"none\",\"scores\":[0.89090815370097232,"
    "0.85895221179054437],\"mean\":0.87493018274575829,"
    "\"stddev\":0.022596263224066996,\"error_bar_scale\":1,"
    "\"planned_repetitions\":2,\"attempts\":2,"
    "\"physical_two_qubit_gates\":2,\"swaps_inserted\":0,"
    "\"plan\":\"density-matrix:exact-noise\",\"detail\":\"\"}";

TEST(ServeCache, PackRoundTripsAnyBytes)
{
    std::vector<std::string> cases = {
        "", std::string(1, '\0'), std::string("\x01\x13\x14\x1f", 4),
        std::string("tail escape\0", 12), kSamplePayload,
        kSamplePayload + std::string("\x02\0\x01", 3) + kSamplePayload,
        "\"}\"}],\"mean\":"};
    std::string every_byte;
    for (int c = 0; c < 256; ++c)
        every_byte.push_back(static_cast<char>(c));
    cases.push_back(every_byte);
    // Seeded strings mixing control bytes and field-text fragments.
    const std::vector<std::string> pieces = {
        std::string(1, '\0'), "\x05", "\x13", "\x1f", "\"", ",",
        "\",\"device\":\"", ",\"seed\":", "\"}", "x", "0.5", "]"};
    std::mt19937_64 rng(15);
    for (int i = 0; i < 300; ++i) {
        std::string text;
        for (std::uint64_t n = rng() % 24; n > 0; --n)
            text += pieces[rng() % pieces.size()];
        cases.push_back(text);
    }
    for (const std::string &text : cases)
        EXPECT_EQ(serve::unpackPayload(serve::packPayload(text)), text);

    // The fixed field text packs to one byte per field.
    EXPECT_LT(serve::packPayload(kSamplePayload).size(),
              kSamplePayload.size() / 2);
}

TEST(ServeCache, PackedEntriesChargeAndReturnTheJsonBytes)
{
    const std::size_t entry = kSamplePayload.size() + 1 + 64;
    serve::ResultCache cache(2 * entry); // two unpacked entries fit
    cache.insert("a", kSamplePayload);
    cache.insert("b", kSamplePayload);
    EXPECT_EQ(cache.stats().bytes, 2 * entry);
    EXPECT_EQ(cache.lookup("a"), kSamplePayload);
    cache.insert("c", kSamplePayload); // evicts b although packed a+b+c fit
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_FALSE(cache.lookup("b").has_value());

    // Every hit shares the entry's buffer.
    const serve::PayloadPtr first = cache.lookupPacked("a");
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(cache.lookupPacked("a"), first);
    EXPECT_EQ(first->json(), kSamplePayload);
    EXPECT_EQ(first->size(), kSamplePayload.size());
}

// --- protocol parsing ------------------------------------------------

TEST(ServeProtocol, RejectsMalformedLinesWithTypedErrors)
{
    using serve::ErrorCode;
    const std::pair<const char *, ErrorCode> cases[] = {
        {"garbage", ErrorCode::BadRequest},
        {"[1,2]", ErrorCode::BadRequest},
        {"{}", ErrorCode::BadRequest},
        {"{\"type\":7}", ErrorCode::BadRequest},
        {"{\"type\":\"noop\"}", ErrorCode::UnknownType},
        {"{\"type\":\"status\"}", ErrorCode::BadRequest},
        {"{\"type\":\"status\",\"id\":\"\"}", ErrorCode::BadField},
        {"{\"type\":\"submit\"}", ErrorCode::BadRequest},
        {"{\"type\":\"submit\",\"benchmark\":\"ghz_3\"}",
         ErrorCode::BadRequest},
        {"{\"type\":\"submit\",\"benchmark\":\"ghz_3\",\"device\":"
         "\"AQT\",\"shots\":0}",
         ErrorCode::BadField},
        {"{\"type\":\"submit\",\"benchmark\":\"ghz_3\",\"device\":"
         "\"AQT\",\"shots\":-5}",
         ErrorCode::BadField},
        {"{\"type\":\"submit\",\"benchmark\":\"ghz_3\",\"device\":"
         "\"AQT\",\"shots\":\"many\"}",
         ErrorCode::BadField},
        {"{\"type\":\"submit\",\"benchmark\":\"ghz_3\",\"device\":"
         "\"AQT\",\"seed\":99999999999999999999999}",
         ErrorCode::BadField},
        {"{\"type\":\"submit\",\"benchmark\":\"ghz_3\",\"device\":"
         "\"AQT\",\"repetitions\":20000}",
         ErrorCode::BadField},
        {"{\"type\":\"submit\",\"benchmark\":\"ghz_3\",\"device\":"
         "\"AQT\",\"wait\":\"yes\"}",
         ErrorCode::BadField},
    };
    for (const auto &[line, code] : cases) {
        serve::ParsedRequest parsed = serve::parseRequest(line);
        EXPECT_FALSE(parsed.ok()) << line;
        EXPECT_EQ(parsed.error, code) << line;
        EXPECT_FALSE(parsed.message.empty()) << line;
    }
}

TEST(ServeProtocol, AcceptsFullyPopulatedSubmit)
{
    serve::ParsedRequest parsed = serve::parseRequest(
        "{\"type\":\"submit\",\"benchmark\":\"ghz_4\",\"device\":"
        "\"IonQ\",\"shots\":500,\"repetitions\":2,\"seed\":42,"
        "\"faults\":true,\"fault_seed\":7,\"wait\":true}");
    ASSERT_TRUE(parsed.ok()) << parsed.message;
    const serve::SubmitSpec &spec = parsed.request->submit;
    EXPECT_EQ(spec.benchmark, "ghz_4");
    EXPECT_EQ(spec.device, "IonQ");
    EXPECT_EQ(spec.shots, 500u);
    EXPECT_EQ(spec.repetitions, 2u);
    EXPECT_EQ(spec.seed, 42u);
    EXPECT_TRUE(spec.faults);
    EXPECT_EQ(spec.faultSeed, 7u);
    EXPECT_TRUE(spec.wait);
}

TEST(ServeProtocol, ParsesAndValidatesTheOptionalTraceField)
{
    const obs::TraceContext ctx =
        obs::TraceContext::derive(12345, "ghz_3", "AQT");
    const std::string prefix =
        "{\"type\":\"submit\",\"benchmark\":\"ghz_3\",\"device\":"
        "\"AQT\"";

    serve::ParsedRequest full = serve::parseRequest(
        prefix + ",\"trace\":{\"id\":\"" + ctx.traceIdHex() +
        "\",\"parent\":\"" + ctx.parentSpanHex() + "\"}}");
    ASSERT_TRUE(full.ok()) << full.message;
    EXPECT_EQ(full.request->submit.trace, ctx);

    // The parent half is optional; an absent trace is "no context".
    serve::ParsedRequest headless = serve::parseRequest(
        prefix + ",\"trace\":{\"id\":\"" + ctx.traceIdHex() + "\"}}");
    ASSERT_TRUE(headless.ok()) << headless.message;
    EXPECT_EQ(headless.request->submit.trace.traceIdHex(),
              ctx.traceIdHex());
    EXPECT_EQ(headless.request->submit.trace.parentSpan, 0u);
    serve::ParsedRequest absent = serve::parseRequest(prefix + "}");
    ASSERT_TRUE(absent.ok()) << absent.message;
    EXPECT_FALSE(absent.request->submit.trace.valid());

    // Present-but-malformed is a typed bad_field, never a silent drop:
    // a client that meant to correlate spans should learn its ids
    // never matched.
    const std::string traces[] = {
        "\"zzz\"",                                // not an object
        "{}",                                     // id missing
        "{\"id\":7}",                             // id not a string
        "{\"id\":\"abc\"}",                       // wrong length
        "{\"id\":\"" + std::string(32, '0') + "\"}", // all-zero
        "{\"id\":\"" + ctx.traceIdHex().substr(0, 31) + "G\"}",
        "{\"id\":\"" + ctx.traceIdHex() + "\",\"parent\":\"xy\"}",
        "{\"id\":\"" + ctx.traceIdHex() + "\",\"parent\":4}",
    };
    for (const std::string &trace : traces) {
        serve::ParsedRequest parsed =
            serve::parseRequest(prefix + ",\"trace\":" + trace + "}");
        EXPECT_FALSE(parsed.ok()) << trace;
        EXPECT_EQ(parsed.error, serve::ErrorCode::BadField) << trace;
    }
}

TEST(ServeProtocol, ErrorLinesAreValidJson)
{
    const std::string line = serve::errorLine(
        serve::ErrorCode::BadRequest, "quote \" and \\ backslash");
    const obs::JsonValue root = parseReply(line);
    EXPECT_FALSE(replyOk(line));
    EXPECT_EQ(root.at("error").asString(), "bad_request");
    EXPECT_EQ(root.at("message").asString(), "quote \" and \\ backslash");
}

// --- server: manual mode ---------------------------------------------

/** A manual-mode server: no workers, jobs run via step(). */
serve::ServerOptions
manualOptions()
{
    serve::ServerOptions options;
    options.autoStart = false;
    options.queueLimit = 2;
    return options;
}

std::string
submitLine(const std::string &benchmark, const std::string &device,
           bool wait, std::uint64_t shots = 50,
           std::uint64_t repetitions = 2)
{
    std::ostringstream out;
    out << "{\"type\":\"submit\",\"benchmark\":\"" << benchmark
        << "\",\"device\":\"" << device << "\",\"shots\":" << shots
        << ",\"repetitions\":" << repetitions
        << ",\"wait\":" << (wait ? "true" : "false") << "}";
    return out.str();
}

/** A submit line carrying @p trace as its wire context. */
std::string
tracedSubmitLine(const std::string &benchmark, const std::string &device,
                 bool wait, const obs::TraceContext &trace,
                 std::uint64_t shots = 50, std::uint64_t repetitions = 2)
{
    std::string line =
        submitLine(benchmark, device, wait, shots, repetitions);
    line.insert(line.size() - 1, ",\"trace\":{\"id\":\"" +
                                     trace.traceIdHex() +
                                     "\",\"parent\":\"" +
                                     trace.parentSpanHex() + "\"}");
    return line;
}

TEST(ServeServer, SubmitWaitExecutesInlineAndSecondHitIsByteIdentical)
{
    obs::resetMetrics();
    obs::setMetricsEnabled(true);
    serve::Server server(manualOptions());

    const std::string first =
        server.handle(submitLine("ghz_3", "AQT", true));
    ASSERT_TRUE(replyOk(first)) << first;
    EXPECT_EQ(replyField(first, "state"), "done");
    const std::string payload1 = resultObjectText(first);
    ASSERT_FALSE(payload1.empty()) << first;

    const std::uint64_t shots_after_first =
        obs::snapshotMetrics().counters[obs::names::kSimShots];
    EXPECT_GT(shots_after_first, 0u);

    const std::string second =
        server.handle(submitLine("ghz_3", "AQT", true));
    ASSERT_TRUE(replyOk(second)) << second;
    EXPECT_EQ(replyField(second, "state"), "done");

    // The acceptance criterion: a repeat submit is served from the
    // cache — byte-identical payload, a serve.cache.hit increment,
    // and no further simulator work.
    EXPECT_EQ(resultObjectText(second), payload1);
    EXPECT_NE(second.find("\"cached\":true"), std::string::npos);
    obs::MetricsSnapshot snapshot = obs::snapshotMetrics();
    EXPECT_EQ(snapshot.counters[obs::names::kServeCacheHit], 1u);
    EXPECT_EQ(snapshot.counters[obs::names::kSimShots],
              shots_after_first);
    obs::setMetricsEnabled(false);
    obs::resetMetrics();
}

TEST(ServeServer, DaemonResultMatchesTheBatchJobPath)
{
    serve::Server server(manualOptions());
    const std::string reply =
        server.handle(submitLine("ghz_3", "AQT", true, 80, 3));
    ASSERT_TRUE(replyOk(reply)) << reply;
    const obs::JsonValue result =
        obs::parseJson(resultObjectText(reply));

    // The exact same spec through the batch layer directly.
    core::BenchmarkPtr benchmark = serve::makeBenchmark("ghz_3");
    const std::vector<device::Device> devices = device::allDevices();
    const device::Device *device = serve::findDevice("AQT", devices);
    jobs::JobOptions options;
    options.harness.shots = 80;
    options.harness.repetitions = 3;
    options.harness.seed = 12345;
    jobs::FaultInjector injector(0);
    jobs::SweepContext ctx(options, injector);
    core::BenchmarkRun run =
        jobs::runJob(*benchmark, *device, options, ctx);

    EXPECT_EQ(result.at("status").asString(),
              std::string(core::toString(run.status)));
    ASSERT_EQ(result.at("scores").array.size(), run.scores.size());
    for (std::size_t i = 0; i < run.scores.size(); ++i) {
        EXPECT_DOUBLE_EQ(result.at("scores").array[i].asDouble(),
                         run.scores[i]);
    }
    EXPECT_DOUBLE_EQ(result.at("mean").asDouble(), run.summary.mean);
}

TEST(ServeServer, QueueFullBackpressure)
{
    obs::resetMetrics();
    obs::setMetricsEnabled(true);
    serve::Server server(manualOptions()); // queueLimit = 2

    EXPECT_TRUE(replyOk(server.handle(submitLine("ghz_3", "AQT", false))));
    EXPECT_TRUE(
        replyOk(server.handle(submitLine("ghz_4", "AQT", false))));
    const std::string rejected =
        server.handle(submitLine("ghz_5", "AQT", false));
    EXPECT_FALSE(replyOk(rejected));
    EXPECT_EQ(replyField(rejected, "error"), "queue_full");
    EXPECT_EQ(obs::snapshotMetrics()
                  .counters[obs::names::kServeQueueRejected],
              1u);

    // Draining one job frees a slot.
    EXPECT_TRUE(server.step());
    EXPECT_TRUE(
        replyOk(server.handle(submitLine("ghz_5", "AQT", false))));
    obs::setMetricsEnabled(false);
    obs::resetMetrics();
}

TEST(ServeServer, CancelQueuedJobNeverRuns)
{
    serve::Server server(manualOptions());
    const std::string submitted =
        server.handle(submitLine("ghz_3", "AQT", false));
    const std::string id = replyField(submitted, "id");
    ASSERT_FALSE(id.empty());

    const std::string cancelled =
        server.handle("{\"type\":\"cancel\",\"id\":\"" + id + "\"}");
    EXPECT_TRUE(replyOk(cancelled)) << cancelled;
    EXPECT_EQ(replyField(cancelled, "state"), "cancelled");

    // The queue is empty (nothing to step) and the result is refused.
    EXPECT_FALSE(server.step());
    const std::string result =
        server.handle("{\"type\":\"result\",\"id\":\"" + id + "\"}");
    EXPECT_FALSE(replyOk(result));
    EXPECT_EQ(replyField(result, "error"), "cancelled");

    // Cancel is idempotent on terminal jobs.
    const std::string again =
        server.handle("{\"type\":\"cancel\",\"id\":\"" + id + "\"}");
    EXPECT_TRUE(replyOk(again));
}

TEST(ServeServer, StatusAndResultFollowTheLifecycle)
{
    serve::Server server(manualOptions());
    EXPECT_EQ(replyField(
                  server.handle("{\"type\":\"status\",\"id\":\"job-9\"}"),
                  "error"),
              "not_found");

    const std::string submitted =
        server.handle(submitLine("ghz_3", "AQT", false));
    const std::string id = replyField(submitted, "id");
    EXPECT_EQ(replyField(submitted, "state"), "queued");

    const std::string early =
        server.handle("{\"type\":\"result\",\"id\":\"" + id + "\"}");
    EXPECT_FALSE(replyOk(early));
    EXPECT_EQ(replyField(early, "error"), "not_ready");

    EXPECT_TRUE(server.step());
    EXPECT_EQ(replyField(server.handle("{\"type\":\"status\",\"id\":\"" +
                                       id + "\"}"),
                         "state"),
              "done");
    const std::string result =
        server.handle("{\"type\":\"result\",\"id\":\"" + id + "\"}");
    EXPECT_TRUE(replyOk(result)) << result;
    EXPECT_FALSE(resultObjectText(result).empty());
}

TEST(ServeServer, UnknownNamesAreTypedErrors)
{
    serve::Server server(manualOptions());
    EXPECT_EQ(
        replyField(server.handle(submitLine("warp_9", "AQT", false)),
                   "error"),
        "unknown_benchmark");
    EXPECT_EQ(
        replyField(server.handle(submitLine("ghz_3", "HAL9000", false)),
                   "error"),
        "unknown_device");
}

TEST(ServeServer, ShutdownCancelsQueuedAndRefusesNewSubmits)
{
    serve::Server server(manualOptions());
    const std::string submitted =
        server.handle(submitLine("ghz_3", "AQT", false));
    const std::string id = replyField(submitted, "id");

    const std::string shutdown =
        server.handle("{\"type\":\"shutdown\"}");
    EXPECT_TRUE(replyOk(shutdown)) << shutdown;
    EXPECT_NE(shutdown.find("\"cancelled_queued\":1"),
              std::string::npos);

    EXPECT_EQ(replyField(server.handle("{\"type\":\"status\",\"id\":\"" +
                                       id + "\"}"),
                         "state"),
              "cancelled");
    const std::string refused =
        server.handle(submitLine("ghz_3", "AQT", false));
    EXPECT_EQ(replyField(refused, "error"), "shutting_down");

    // stats stays serviceable while draining.
    const std::string stats = server.handle("{\"type\":\"stats\"}");
    EXPECT_TRUE(replyOk(stats));
    EXPECT_NE(stats.find("\"draining\":true"), std::string::npos);
    server.drain();
}

TEST(ServeServer, StatsReportsQueueCacheAndJobTallies)
{
    serve::Server server(manualOptions());
    server.handle(submitLine("ghz_3", "AQT", true));
    server.handle(submitLine("ghz_3", "AQT", true)); // cache hit
    server.handle(submitLine("ghz_4", "AQT", false));

    const obs::JsonValue stats =
        parseReply(server.handle("{\"type\":\"stats\"}"));
    EXPECT_EQ(stats.at("protocol").asString(), "smq-serve-v1");
    EXPECT_EQ(stats.at("queue_depth").asU64(), 1u);
    EXPECT_EQ(stats.at("jobs").at("done").asU64(), 2u);
    EXPECT_EQ(stats.at("jobs").at("queued").asU64(), 1u);
    EXPECT_EQ(stats.at("cache").at("hits").asU64(), 1u);
    EXPECT_EQ(stats.at("cache").at("entries").asU64(), 1u);
}

TEST(ServeServer, StatsCarriesUptimeHighWaterHitRatioAndJobQuantiles)
{
    obs::resetMetrics();
    obs::setMetricsEnabled(true);
    serve::Server server(manualOptions());
    server.handle(submitLine("ghz_3", "AQT", true));
    server.handle(submitLine("ghz_3", "AQT", true)); // cache hit
    server.handle(submitLine("ghz_4", "AQT", false)); // queued

    const obs::JsonValue stats =
        parseReply(server.handle("{\"type\":\"stats\"}"));
    ASSERT_NE(stats.find("uptime_seconds"), nullptr);
    // The wait submit and the queued one both passed through the
    // queue, one at a time; the cache hit never enqueued.
    EXPECT_EQ(stats.at("queue_high_water").asU64(), 1u);
    // Lookups: miss (ghz_3), hit (ghz_3), miss (ghz_4).
    EXPECT_DOUBLE_EQ(stats.at("cache").at("hit_ratio").asDouble(),
                     1.0 / 3.0);
    // job_ns tallies *executed* jobs only — the cache hit ran nothing —
    // with quantiles from the shared stage.serve.job.ns histogram.
    const obs::JsonValue &job_ns = stats.at("job_ns");
    EXPECT_EQ(job_ns.at("count").asU64(), 1u);
    const double p50 = job_ns.at("p50").asDouble();
    const double p90 = job_ns.at("p90").asDouble();
    const double p99 = job_ns.at("p99").asDouble();
    EXPECT_GT(p50, 0.0);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    obs::setMetricsEnabled(false);
    obs::resetMetrics();
}

TEST(ServeServer, SubmitReplyEchoesTheJobsTraceId)
{
    serve::Server server(manualOptions());

    // A propagated client context is adopted verbatim.
    const obs::TraceContext ctx =
        obs::TraceContext::derive(777, "client", "side");
    const std::string propagated = server.handle(
        tracedSubmitLine("ghz_3", "AQT", true, ctx, 40, 2));
    ASSERT_TRUE(replyOk(propagated)) << propagated;
    EXPECT_EQ(replyField(propagated, "trace_id"), ctx.traceIdHex());

    // Without one, the daemon derives the context from the submit's
    // identity (default seed 12345), deterministically.
    const std::string derived =
        server.handle(submitLine("ghz_4", "AQT", true, 40, 2));
    ASSERT_TRUE(replyOk(derived)) << derived;
    EXPECT_EQ(replyField(derived, "trace_id"),
              obs::TraceContext::derive(12345, "ghz_4", "AQT")
                  .traceIdHex());

    // A cache-served repeat still lands in the *caller's* trace: the
    // result bytes are shared, the trace identity is per-request.
    const obs::TraceContext other =
        obs::TraceContext::derive(778, "client", "side");
    const std::string repeat = server.handle(
        tracedSubmitLine("ghz_3", "AQT", true, other, 40, 2));
    ASSERT_TRUE(replyOk(repeat)) << repeat;
    EXPECT_NE(repeat.find("\"cached\":true"), std::string::npos);
    EXPECT_EQ(replyField(repeat, "trace_id"), other.traceIdHex());
}

TEST(ServeServer, TracedSubmitIsByteIdenticalToUntracedAtAnyWorkers)
{
    // Baseline: no metrics, no tracing, no context, manual server.
    std::string untraced;
    {
        serve::Server server(manualOptions());
        const std::string reply =
            server.handle(submitLine("ghz_3", "AQT", true, 60, 2));
        ASSERT_TRUE(replyOk(reply)) << reply;
        untraced = resultObjectText(reply);
    }
    ASSERT_FALSE(untraced.empty());

    // Tracing + propagation on, 1 and 8 workers: same payload bytes.
    const obs::TraceContext ctx =
        obs::TraceContext::derive(12345, "ghz_3", "AQT");
    for (std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
        obs::resetMetrics();
        obs::setMetricsEnabled(true);
        const fs::path dir =
            freshDir("smq_serve_traced_w" + std::to_string(workers));
        obs::startTracing(dir.string());
        std::string payload;
        {
            serve::ServerOptions options;
            options.workers = workers;
            options.queueLimit = 16;
            serve::Server server(options);
            const std::string reply = server.handle(
                tracedSubmitLine("ghz_3", "AQT", true, ctx, 60, 2));
            EXPECT_TRUE(replyOk(reply)) << reply;
            EXPECT_EQ(replyField(reply, "trace_id"), ctx.traceIdHex());
            payload = resultObjectText(reply);
            server.requestShutdown();
            server.drain();
        }
        obs::stopTracing();
        obs::setMetricsEnabled(false);
        EXPECT_EQ(payload, untraced)
            << "propagation perturbed the result at workers="
            << workers;
        // The daemon-side spans carry the client's trace id.
        EXPECT_NE(slurp(dir / "events.jsonl").find(ctx.traceIdHex()),
                  std::string::npos)
            << "no daemon span carried the trace id at workers="
            << workers;
    }
    obs::resetMetrics();
}

TEST(ServeServer, SignalStopRefusesSubmitsLikeShutdown)
{
    util::resetStopForTests();
    serve::Server server(manualOptions());
    util::requestStop();
    const std::string refused =
        server.handle(submitLine("ghz_3", "AQT", false));
    EXPECT_EQ(replyField(refused, "error"), "shutting_down");
    util::resetStopForTests();
}

TEST(ServeServer, ManifestPerJobWhenDirConfigured)
{
    const fs::path dir = freshDir("smq_serve_manifests");
    serve::ServerOptions options = manualOptions();
    options.manifestDir = dir.string();
    serve::Server server(options);
    const std::string reply =
        server.handle(submitLine("ghz_3", "AQT", true));
    const std::string id = replyField(reply, "id");
    const std::string manifest =
        slurp(dir / (id + "_manifest.json"));
    ASSERT_FALSE(manifest.empty());
    EXPECT_NE(manifest.find("\"serve.job_id\": \"" + id + "\""),
              std::string::npos);
    EXPECT_NE(manifest.find("serve.cache_key"), std::string::npos);
    EXPECT_TRUE(server.storageError().empty());
}

// --- server: worker threads ------------------------------------------

TEST(ServeServer, WorkersExecuteSubmitsAndDrainOnShutdown)
{
    serve::ServerOptions options;
    options.workers = 2;
    options.queueLimit = 16;
    serve::Server server(options);

    const std::string reply =
        server.handle(submitLine("ghz_3", "AQT", true, 40, 2));
    ASSERT_TRUE(replyOk(reply)) << reply;
    EXPECT_EQ(replyField(reply, "state"), "done");

    std::vector<std::string> ids;
    for (int i = 0; i < 4; ++i) {
        const std::string submitted =
            server.handle(submitLine("ghz_4", "AQT", false, 40, 2));
        ASSERT_TRUE(replyOk(submitted));
        ids.push_back(replyField(submitted, "id"));
    }
    server.requestShutdown();
    server.drain();

    // Every accepted job is terminal after drain.
    for (const std::string &id : ids) {
        const std::string state = replyField(
            server.handle("{\"type\":\"status\",\"id\":\"" + id + "\"}"),
            "state");
        EXPECT_TRUE(state == "done" || state == "cancelled") << state;
    }
}

TEST(ServeServer, CancelRunningJobSalvagesAndNeverCaches)
{
    serve::ServerOptions options;
    options.workers = 1;
    options.queueLimit = 4;
    serve::Server server(options);

    // 10000 repetitions of a tiny circuit: seconds of work, so the
    // cancel lands while the job is running; the jobs-layer stop
    // probe then salvages the completed repetitions.
    const std::string submitted = server.handle(
        submitLine("ghz_2", "AQT", false, 20, 10000));
    ASSERT_TRUE(replyOk(submitted)) << submitted;
    const std::string id = replyField(submitted, "id");

    // Wait until it is actually running before cancelling.
    for (int i = 0; i < 200; ++i) {
        const std::string state = replyField(
            server.handle("{\"type\":\"status\",\"id\":\"" + id + "\"}"),
            "state");
        if (state == "running")
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(replyOk(
        server.handle("{\"type\":\"cancel\",\"id\":\"" + id + "\"}")));

    std::string state;
    for (int i = 0; i < 2000; ++i) {
        state = replyField(
            server.handle("{\"type\":\"status\",\"id\":\"" + id + "\"}"),
            "state");
        if (state == "done" || state == "cancelled")
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    if (state == "done") {
        const std::string result = server.handle(
            "{\"type\":\"result\",\"id\":\"" + id + "\"}");
        EXPECT_NE(result.find("\"cause\":\"interrupted\""),
                  std::string::npos)
            << result;
        // Interrupted results are timing-dependent and must never be
        // served from the cache: an identical submit starts fresh.
        const std::string again = server.handle(
            submitLine("ghz_2", "AQT", false, 20, 10000));
        ASSERT_TRUE(replyOk(again));
        EXPECT_NE(again.find("\"cached\":false"), std::string::npos);
        const std::string id2 = replyField(again, "id");
        server.handle("{\"type\":\"cancel\",\"id\":\"" + id2 + "\"}");
    }
    server.requestShutdown();
    server.drain();
}

/** Every reply of a fixed lifecycle script over the four job kinds. */
std::vector<std::string>
lifecycleReplies()
{
    serve::ServerOptions options = manualOptions();
    options.queueLimit = 8;
    serve::Server server(options);
    std::vector<std::string> replies;
    auto send = [&](const std::string &line) {
        replies.push_back(server.handle(line));
    };
    auto ask = [&](const char *type, const std::string &id) {
        send(std::string("{\"type\":\"") + type + "\",\"id\":\"" + id +
             "\"}");
    };
    auto askAll = [&](const std::string &id) {
        ask("status", id);
        ask("result", id);
        ask("cancel", id);
    };

    // Live (queued): job-1 will finish, job-2 is cancelled while
    // queued, job-3 will be interrupted.
    send(submitLine("ghz_3", "AQT", false));
    ask("status", "job-1");
    ask("result", "job-1");
    send(submitLine("ghz_4", "AQT", false));
    ask("status", "job-2");
    ask("result", "job-2");
    ask("cancel", "job-2");
    askAll("job-2");
    send(submitLine("ghz_5", "IonQ", false));
    ask("status", "job-3");

    // Terminal: done, then interrupted (the stop flag is up before the
    // job starts, so the salvage is deterministic: nothing ran).
    EXPECT_TRUE(server.step());
    askAll("job-1");
    util::resetStopForTests();
    util::requestStop();
    EXPECT_TRUE(server.step());
    util::resetStopForTests();
    askAll("job-3");

    // A cache hit is terminal at once; an interrupted result is never
    // cached, so its repeat queues again.
    send(submitLine("ghz_3", "AQT", true));
    askAll("job-4");
    send(submitLine("ghz_5", "IonQ", false));
    ask("status", "job-5");
    ask("cancel", "job-5");
    askAll("job-5");

    const obs::JsonValue stats =
        parseReply(server.handle("{\"type\":\"stats\"}"));
    const obs::JsonValue &jobs = stats.at("jobs");
    replies.push_back("jobs " + std::to_string(jobs.at("queued").asU64()) +
                      " " + std::to_string(jobs.at("running").asU64()) +
                      " " + std::to_string(jobs.at("done").asU64()) + " " +
                      std::to_string(jobs.at("cancelled").asU64()));
    return replies;
}

/**
 * The lifecycle script's replies as the daemon sent them before
 * terminal jobs shrank to compact records: the wire bytes of status,
 * result and cancel for done, cancelled-while-queued, interrupted and
 * cached-hit jobs, while queued and once terminal. The last line is
 * the stats job tallies (queued running done cancelled).
 */
const std::vector<std::string> kLifecycleReplies = {
    "{\"ok\":true,\"type\":\"submit\",\"id\":\"job-1\","
    "\"state\":\"queued\",\"cached\":false,"
    "\"cache_key\":\"fbb1aaedb41febc9\","
    "\"trace_id\":\"de7601a8f8f87b1c59e3183c113c21db\"}",
    "{\"ok\":true,\"type\":\"status\",\"id\":\"job-1\","
    "\"state\":\"queued\",\"cached\":false,"
    "\"cache_key\":\"fbb1aaedb41febc9\"}",
    "{\"ok\":false,\"error\":\"not_ready\","
    "\"message\":\"job job-1 is queued\"}",
    "{\"ok\":true,\"type\":\"submit\",\"id\":\"job-2\","
    "\"state\":\"queued\",\"cached\":false,"
    "\"cache_key\":\"e2913b23bc7e71a9\","
    "\"trace_id\":\"efd425a6cde433cb03e6e5d2a2d9fc6a\"}",
    "{\"ok\":true,\"type\":\"status\",\"id\":\"job-2\","
    "\"state\":\"queued\",\"cached\":false,"
    "\"cache_key\":\"e2913b23bc7e71a9\"}",
    "{\"ok\":false,\"error\":\"not_ready\","
    "\"message\":\"job job-2 is queued\"}",
    "{\"ok\":true,\"type\":\"cancel\",\"id\":\"job-2\","
    "\"state\":\"cancelled\"}",
    "{\"ok\":true,\"type\":\"status\",\"id\":\"job-2\","
    "\"state\":\"cancelled\",\"cached\":false,"
    "\"cache_key\":\"e2913b23bc7e71a9\"}",
    "{\"ok\":false,\"error\":\"cancelled\","
    "\"message\":\"job job-2 was cancelled before running\"}",
    "{\"ok\":true,\"type\":\"cancel\",\"id\":\"job-2\","
    "\"state\":\"cancelled\"}",
    "{\"ok\":true,\"type\":\"submit\",\"id\":\"job-3\","
    "\"state\":\"queued\",\"cached\":false,"
    "\"cache_key\":\"c56afb9fcdede6d8\","
    "\"trace_id\":\"23526108c7376ff561859f8575a81c98\"}",
    "{\"ok\":true,\"type\":\"status\",\"id\":\"job-3\","
    "\"state\":\"queued\",\"cached\":false,"
    "\"cache_key\":\"c56afb9fcdede6d8\"}",
    "{\"ok\":true,\"type\":\"status\",\"id\":\"job-1\","
    "\"state\":\"done\",\"cached\":false,"
    "\"cache_key\":\"fbb1aaedb41febc9\"}",
    "{\"ok\":true,\"type\":\"result\",\"id\":\"job-1\","
    "\"cached\":false,"
    "\"result\":{\"schema\":\"smq-serve-result-v1\","
    "\"benchmark\":\"ghz_3\",\"device\":\"AQT\","
    "\"cache_key\":\"fbb1aaedb41febc9\",\"shots\":50,"
    "\"repetitions\":2,\"seed\":12345,\"status\":\"ok\","
    "\"cause\":\"none\",\"scores\":[0.89090815370097232,"
    "0.85895221179054437],\"mean\":0.87493018274575829,"
    "\"stddev\":0.022596263224066996,\"error_bar_scale\":1,"
    "\"planned_repetitions\":2,\"attempts\":2,"
    "\"physical_two_qubit_gates\":2,\"swaps_inserted\":0,"
    "\"plan\":\"density-matrix:exact-noise\",\"detail\":\"\"}}",
    "{\"ok\":true,\"type\":\"cancel\",\"id\":\"job-1\","
    "\"state\":\"done\"}",
    "{\"ok\":true,\"type\":\"status\",\"id\":\"job-3\","
    "\"state\":\"done\",\"cached\":false,"
    "\"cache_key\":\"c56afb9fcdede6d8\"}",
    "{\"ok\":true,\"type\":\"result\",\"id\":\"job-3\","
    "\"cached\":false,"
    "\"result\":{\"schema\":\"smq-serve-result-v1\","
    "\"benchmark\":\"ghz_5\",\"device\":\"IonQ\","
    "\"cache_key\":\"c56afb9fcdede6d8\",\"shots\":50,"
    "\"repetitions\":2,\"seed\":12345,\"status\":\"skipped\","
    "\"cause\":\"interrupted\",\"scores\":[],\"mean\":0,"
    "\"stddev\":0,\"error_bar_scale\":1,\"planned_repetitions\":2,"
    "\"attempts\":0,\"physical_two_qubit_gates\":0,"
    "\"swaps_inserted\":0,\"plan\":\"\","
    "\"detail\":\"shutdown requested before submission\"}}",
    "{\"ok\":true,\"type\":\"cancel\",\"id\":\"job-3\","
    "\"state\":\"done\"}",
    "{\"ok\":true,\"type\":\"submit\",\"id\":\"job-4\","
    "\"state\":\"done\",\"cached\":true,"
    "\"cache_key\":\"fbb1aaedb41febc9\","
    "\"trace_id\":\"de7601a8f8f87b1c59e3183c113c21db\","
    "\"result\":{\"schema\":\"smq-serve-result-v1\","
    "\"benchmark\":\"ghz_3\",\"device\":\"AQT\","
    "\"cache_key\":\"fbb1aaedb41febc9\",\"shots\":50,"
    "\"repetitions\":2,\"seed\":12345,\"status\":\"ok\","
    "\"cause\":\"none\",\"scores\":[0.89090815370097232,"
    "0.85895221179054437],\"mean\":0.87493018274575829,"
    "\"stddev\":0.022596263224066996,\"error_bar_scale\":1,"
    "\"planned_repetitions\":2,\"attempts\":2,"
    "\"physical_two_qubit_gates\":2,\"swaps_inserted\":0,"
    "\"plan\":\"density-matrix:exact-noise\",\"detail\":\"\"}}",
    "{\"ok\":true,\"type\":\"status\",\"id\":\"job-4\","
    "\"state\":\"done\",\"cached\":true,"
    "\"cache_key\":\"fbb1aaedb41febc9\"}",
    "{\"ok\":true,\"type\":\"result\",\"id\":\"job-4\","
    "\"cached\":true,\"result\":{\"schema\":\"smq-serve-result-v1\","
    "\"benchmark\":\"ghz_3\",\"device\":\"AQT\","
    "\"cache_key\":\"fbb1aaedb41febc9\",\"shots\":50,"
    "\"repetitions\":2,\"seed\":12345,\"status\":\"ok\","
    "\"cause\":\"none\",\"scores\":[0.89090815370097232,"
    "0.85895221179054437],\"mean\":0.87493018274575829,"
    "\"stddev\":0.022596263224066996,\"error_bar_scale\":1,"
    "\"planned_repetitions\":2,\"attempts\":2,"
    "\"physical_two_qubit_gates\":2,\"swaps_inserted\":0,"
    "\"plan\":\"density-matrix:exact-noise\",\"detail\":\"\"}}",
    "{\"ok\":true,\"type\":\"cancel\",\"id\":\"job-4\","
    "\"state\":\"done\"}",
    "{\"ok\":true,\"type\":\"submit\",\"id\":\"job-5\","
    "\"state\":\"queued\",\"cached\":false,"
    "\"cache_key\":\"c56afb9fcdede6d8\","
    "\"trace_id\":\"23526108c7376ff561859f8575a81c98\"}",
    "{\"ok\":true,\"type\":\"status\",\"id\":\"job-5\","
    "\"state\":\"queued\",\"cached\":false,"
    "\"cache_key\":\"c56afb9fcdede6d8\"}",
    "{\"ok\":true,\"type\":\"cancel\",\"id\":\"job-5\","
    "\"state\":\"cancelled\"}",
    "{\"ok\":true,\"type\":\"status\",\"id\":\"job-5\","
    "\"state\":\"cancelled\",\"cached\":false,"
    "\"cache_key\":\"c56afb9fcdede6d8\"}",
    "{\"ok\":false,\"error\":\"cancelled\","
    "\"message\":\"job job-5 was cancelled before running\"}",
    "{\"ok\":true,\"type\":\"cancel\",\"id\":\"job-5\","
    "\"state\":\"cancelled\"}",
    "jobs 0 0 3 2",
};

TEST(ServeServer, LifecycleRepliesAreByteStable)
{
    const std::vector<std::string> replies = lifecycleReplies();
    ASSERT_EQ(replies.size(), kLifecycleReplies.size());
    for (std::size_t i = 0; i < replies.size(); ++i)
        EXPECT_EQ(replies[i], kLifecycleReplies[i]) << "reply " << i;
}

TEST(ServeServer, EvictedAndNonCanonicalIdsAreNotFound)
{
    serve::ServerOptions options = manualOptions();
    options.retainedJobs = 2;
    serve::Server server(options);
    for (int i = 0; i < 3; ++i) // a miss, then two hits; job-1 retires
        ASSERT_TRUE(replyOk(server.handle(submitLine("ghz_3", "AQT", true))));

    const std::vector<std::string> unknown = {
        "job-1",  "job-01", "job-+2", "job--2", "job- 2", "job-2 ",
        " job-2", "job-",   "job-0",  "JOB-2",  "job-2.0", "job-0x2", "2",
        "job-18446744073709551618", // 2^64 + 2 must not wrap onto job-2
        "job-99999999999999999999999"};
    for (const std::string &id : unknown) {
        for (const char *type : {"status", "result", "cancel"}) {
            EXPECT_EQ(server.handle(std::string("{\"type\":\"") + type +
                                    "\",\"id\":\"" + id + "\"}"),
                      serve::errorLine(serve::ErrorCode::NotFound,
                                       "no job with id " + id))
                << type << " " << id;
        }
    }
    for (const char *id : {"job-2", "job-3"}) {
        const std::string status = server.handle(
            std::string("{\"type\":\"status\",\"id\":\"") + id + "\"}");
        EXPECT_EQ(replyField(status, "state"), "done") << status;
    }
    const obs::JsonValue jobs =
        parseReply(server.handle("{\"type\":\"stats\"}")).at("jobs");
    EXPECT_EQ(jobs.at("done").asU64(), 2u);
    EXPECT_EQ(jobs.at("queued").asU64() + jobs.at("running").asU64() +
                  jobs.at("cancelled").asU64(),
              0u);
}

TEST(ServeServer, PackRoundTripsEveryReplyOfASeededSweep)
{
    const std::vector<std::string> names = {
        "ghz_3", "ghz_5", "mermin_bell_3", "bit_code_3d2r",
        "phase_code_2d1r", "hamiltonian_sim_3q2s", "vqe_3",
        "qaoa_vanilla_3"};
    const std::vector<device::Device> devices = device::allDevices();
    serve::Server server(manualOptions());
    std::mt19937_64 rng(2022);
    for (int i = 0; i < 12; ++i) {
        std::ostringstream line;
        line << "{\"type\":\"submit\",\"benchmark\":\""
             << names[rng() % names.size()] << "\",\"device\":\""
             << devices[rng() % devices.size()].name
             << "\",\"shots\":20,\"repetitions\":1,\"seed\":"
             << rng() % 1000 << ",\"faults\":" << (i % 3 == 0 ? "true" : "false")
             << ",\"wait\":true}";
        const std::string reply = server.handle(line.str());
        ASSERT_TRUE(replyOk(reply)) << reply;
        const std::string payload = resultObjectText(reply);
        ASSERT_FALSE(payload.empty()) << reply;
        EXPECT_EQ(serve::unpackPayload(serve::packPayload(reply)), reply);
        EXPECT_EQ(serve::unpackPayload(serve::packPayload(payload)),
                  payload);
    }
}

/** glibc's count of heap bytes in use. */
double
heapBytesInUse()
{
    return static_cast<double>(mallinfo2().uordblks);
}

TEST(ServeServer, RetainedHeapPerRequestStaysCompact)
{
    // Manual mode: every request runs on this thread, so the heap the
    // daemon keeps per request is the growth of glibc's in-use bytes.
    serve::Server server(manualOptions());
    auto perRequest = [&](int warm, int count, auto line_of) {
        for (int i = 0; i < warm; ++i)
            server.handle(line_of(i));
        const double before = heapBytesInUse();
        for (int i = warm; i < warm + count; ++i)
            server.handle(line_of(i));
        return (heapBytesInUse() - before) / count;
    };
    const double per_hit = perRequest(200, 2000, [](int) {
        return submitLine("ghz_3", "AQT", true);
    });
    const double per_miss = perRequest(100, 400, [](int i) {
        std::string line = submitLine("ghz_3", "AQT", true, 20, 1);
        line.insert(line.size() - 1,
                    ",\"seed\":" + std::to_string(1000 + i));
        return line;
    });
    // A record is about 0.1 KB; a miss adds its packed cache entry.
    EXPECT_LE(per_hit, 160.0);
    EXPECT_LE(per_miss, 600.0);
}

// --- pipe-mode CLI ---------------------------------------------------

TEST(ServeCli, PipeModeEndToEnd)
{
    std::istringstream in(
        "{\"type\":\"stats\"}\n" +
        submitLine("ghz_3", "AQT", true, 40, 2) + "\n" +
        submitLine("ghz_3", "AQT", true, 40, 2) + "\n" +
        "not json\n"
        "{\"type\":\"shutdown\"}\n");
    std::ostringstream out, err;
    const int exit_code = serve::serveMain(
        {"--pipe", "--workers", "1", "--no-metrics"}, in, out, err);
    EXPECT_EQ(exit_code, serve::kServeOk) << err.str();

    std::istringstream lines(out.str());
    std::string line;
    std::vector<std::string> replies;
    while (std::getline(lines, line))
        replies.push_back(line);
    ASSERT_EQ(replies.size(), 5u) << out.str();
    EXPECT_TRUE(replyOk(replies[0]));
    EXPECT_TRUE(replyOk(replies[1]));
    EXPECT_TRUE(replyOk(replies[2]));
    EXPECT_EQ(resultObjectText(replies[2]), resultObjectText(replies[1]));
    EXPECT_NE(replies[2].find("\"cached\":true"), std::string::npos);
    EXPECT_FALSE(replyOk(replies[3]));
    EXPECT_TRUE(replyOk(replies[4]));
}

TEST(ServeCli, PipeModePropagatesClientTraceContexts)
{
    const obs::TraceContext ctx =
        obs::TraceContext::derive(5, "pipe", "client");
    std::istringstream in(
        tracedSubmitLine("ghz_3", "AQT", true, ctx, 40, 2) + "\n" +
        "{\"type\":\"shutdown\"}\n");
    std::ostringstream out, err;
    const int exit_code = serve::serveMain(
        {"--pipe", "--workers", "1", "--no-metrics"}, in, out, err);
    EXPECT_EQ(exit_code, serve::kServeOk) << err.str();

    std::istringstream lines(out.str());
    std::string reply;
    ASSERT_TRUE(std::getline(lines, reply)) << out.str();
    ASSERT_TRUE(replyOk(reply)) << reply;
    // The trace id sent over the pipe comes back on the reply line.
    EXPECT_EQ(replyField(reply, "trace_id"), ctx.traceIdHex());
}

TEST(ServeCli, MetricsFileCarriesAPrometheusSnapshot)
{
    obs::resetMetrics();
    const fs::path dir = freshDir("smq_serve_metrics_file");
    const std::string path = (dir / "metrics.prom").string();
    std::istringstream in(submitLine("ghz_3", "AQT", true, 40, 2) +
                          "\n{\"type\":\"stats\"}\n"
                          "{\"type\":\"shutdown\"}\n");
    std::ostringstream out, err;
    const int exit_code = serve::serveMain(
        {"--pipe", "--workers", "1", "--metrics-file", path}, in, out,
        err);
    EXPECT_EQ(exit_code, serve::kServeOk) << err.str();

    const std::string text = slurp(path);
    ASSERT_FALSE(text.empty()) << "metrics file not written";
    const auto has = [&text](const std::string &needle) {
        return text.find(needle) != std::string::npos;
    };
    EXPECT_TRUE(has("# TYPE smq_serve_requests counter")) << text;
    EXPECT_TRUE(has("smq_serve_jobs_completed 1"));
    // Stage histograms render as summaries with the shared quantiles.
    EXPECT_TRUE(has("# TYPE smq_stage_serve_job_ns summary"));
    EXPECT_TRUE(has("smq_stage_serve_job_ns{quantile=\"0.99\"}"));
    EXPECT_TRUE(has("smq_stage_serve_job_ns_count 1"));
    obs::setMetricsEnabled(false);
    obs::resetMetrics();
}

TEST(ServeCli, UsageErrors)
{
    std::istringstream in;
    std::ostringstream out, err;
    EXPECT_EQ(serve::serveMain({}, in, out, err), serve::kServeUsage);
    EXPECT_EQ(serve::serveMain({"--pipe", "--socket", "/tmp/x"}, in, out,
                               err),
              serve::kServeUsage);
    EXPECT_EQ(serve::serveMain({"--pipe", "--workers", "two"}, in, out,
                               err),
              serve::kServeUsage);
    EXPECT_EQ(serve::serveMain({"--bogus"}, in, out, err),
              serve::kServeUsage);
    EXPECT_EQ(serve::submitMain({}, out, err), serve::kSubmitUsage);
    EXPECT_EQ(serve::submitMain({"--socket", "/tmp/x", "--benchmark",
                                 "ghz_3", "--device", "AQT", "--shots",
                                 "zero"},
                                out, err),
              serve::kSubmitUsage);
}

TEST(ServeCli, CacheMbPastTheAddressSpaceIsAUsageError)
{
    // N MiB = N << 20 bytes, which wraps a 64-bit size for N >= 2^44.
    for (const char *mb : {"17592186044416", "17592186044417",
                           "18446744073709551615"}) {
        std::istringstream in("{\"type\":\"stats\"}\n");
        std::ostringstream out, err;
        EXPECT_EQ(serve::serveMain({"--pipe", "--cache-mb", mb}, in, out,
                                   err),
                  serve::kServeUsage)
            << mb;
        EXPECT_NE(err.str().find("bad --cache-mb value"), std::string::npos)
            << err.str();
        EXPECT_TRUE(out.str().empty()) << out.str();
    }

    // The largest value that fits serves, with its exact budget.
    std::istringstream in("{\"type\":\"stats\"}\n{\"type\":\"shutdown\"}\n");
    std::ostringstream out, err;
    EXPECT_EQ(serve::serveMain({"--pipe", "--cache-mb", "17592186044415",
                                "--workers", "1", "--no-metrics"},
                               in, out, err),
              serve::kServeOk)
        << err.str();
    EXPECT_NE(out.str().find("\"budget_bytes\":18446744073708503040"),
              std::string::npos)
        << out.str();
}

// --- doc closure -----------------------------------------------------

TEST(ServeDocs, ProtocolDocCoversTheWholeWireVocabulary)
{
    const std::string doc = slurp(fs::path(SMQ_SOURCE_DIR) / "docs" /
                                  "PROTOCOL.md");
    ASSERT_FALSE(doc.empty()) << "docs/PROTOCOL.md missing";

    auto documented = [&doc](const std::string &token) {
        return doc.find("`" + token + "`") != std::string::npos;
    };

    EXPECT_TRUE(documented(serve::kProtocolVersion));
    EXPECT_TRUE(documented(serve::kResultSchema));
    for (serve::RequestType type : serve::kAllRequestTypes)
        EXPECT_TRUE(documented(serve::toString(type)))
            << "request type '" << serve::toString(type)
            << "' not documented in PROTOCOL.md";
    for (serve::ErrorCode code : serve::kAllErrorCodes)
        EXPECT_TRUE(documented(serve::toString(code)))
            << "error code '" << serve::toString(code)
            << "' not documented in PROTOCOL.md";
    for (serve::JobState state : serve::kAllJobStates)
        EXPECT_TRUE(documented(serve::toString(state)))
            << "job state '" << serve::toString(state)
            << "' not documented in PROTOCOL.md";

    // The result payload carries the run-status taxonomy; the doc
    // must map every enumerator of both status enums.
    for (core::RunStatus status :
         {core::RunStatus::Ok, core::RunStatus::Partial,
          core::RunStatus::Skipped, core::RunStatus::TooLarge,
          core::RunStatus::Failed})
        EXPECT_TRUE(documented(core::toString(status)))
            << "run status '" << core::toString(status)
            << "' not documented in PROTOCOL.md";
    for (core::FailureCause cause :
         {core::FailureCause::None, core::FailureCause::TransientFault,
          core::FailureCause::QueueTimeout,
          core::FailureCause::DeadlineExceeded,
          core::FailureCause::AttemptsExhausted,
          core::FailureCause::ShotTruncation,
          core::FailureCause::MissingMidCircuitMeasurement,
          core::FailureCause::RegisterTooWide,
          core::FailureCause::SimulatorLimit,
          core::FailureCause::Internal, core::FailureCause::Interrupted,
          core::FailureCause::ResourceExhausted,
          core::FailureCause::StorageError})
        EXPECT_TRUE(documented(core::toString(cause)))
            << "failure cause '" << core::toString(cause)
            << "' not documented in PROTOCOL.md";

    // Result payload fields, so clients can code against the table.
    for (const char *field :
         {"schema", "benchmark", "device", "cache_key", "shots",
          "repetitions", "seed", "status", "cause", "scores", "mean",
          "stddev", "error_bar_scale", "planned_repetitions",
          "attempts", "physical_two_qubit_gates", "swaps_inserted",
          "plan", "detail"})
        EXPECT_TRUE(documented(field))
            << "result field '" << field
            << "' not documented in PROTOCOL.md";

    // The observability extensions: the optional submit trace context,
    // the trace_id reply field, and the stats-reply additions.
    for (const char *field :
         {"trace", "trace_id", "uptime_seconds", "queue_high_water",
          "hit_ratio", "job_ns"})
        EXPECT_TRUE(documented(field))
            << "wire field '" << field
            << "' not documented in PROTOCOL.md";
}

// --- end-to-end over the socket --------------------------------------

#if defined(SMQ_SERVE_TOOL) && defined(SMQ_SENTINEL_TOOL)

int
runCommand(const std::string &command)
{
    const int status = std::system(command.c_str());
    if (status == -1)
        return -1;
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return WEXITSTATUS(status);
}

/** Spawn the daemon, wait until its socket answers stats. */
pid_t
spawnDaemon(const std::string &socket_path)
{
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::execl(SMQ_SERVE_TOOL, SMQ_SERVE_TOOL, "--socket",
                socket_path.c_str(), "--workers", "2", "--no-metrics",
                static_cast<char *>(nullptr));
        _exit(127);
    }
    for (int i = 0; i < 400; ++i) {
        std::string reply;
        if (serve::requestOverSocket(socket_path, "{\"type\":\"stats\"}",
                                     &reply, nullptr))
            return pid;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pid; // tests will fail on the unreachable socket
}

TEST(ServeSmoke, SocketDaemonSentinelSubmitAndSigtermDrain)
{
    const fs::path dir = freshDir("smq_serve_smoke");
    const std::string socket_path = (dir / "smq.sock").string();
    const pid_t daemon = spawnDaemon(socket_path);
    ASSERT_GT(daemon, 0);

    // Two identical submits through the real client binary: the
    // second must be served from the cache, byte-identical.
    const std::string submit_cmd =
        std::string("\"") + SMQ_SENTINEL_TOOL +
        "\" submit --socket \"" + socket_path +
        "\" --benchmark ghz_3 --device AQT --shots 40 "
        "--repetitions 2 > ";
    const fs::path first = dir / "first.json";
    const fs::path second = dir / "second.json";
    EXPECT_EQ(runCommand(submit_cmd + "\"" + first.string() + "\""), 0);
    EXPECT_EQ(runCommand(submit_cmd + "\"" + second.string() + "\""), 0);

    const std::string reply1 = slurp(first);
    const std::string reply2 = slurp(second);
    EXPECT_TRUE(replyOk(reply1)) << reply1;
    EXPECT_NE(reply2.find("\"cached\":true"), std::string::npos)
        << reply2;
    EXPECT_EQ(resultObjectText(reply1), resultObjectText(reply2));
    EXPECT_FALSE(resultObjectText(reply1).empty());

    // A bad submit exits 1 and prints the typed error.
    EXPECT_EQ(runCommand(std::string("\"") + SMQ_SENTINEL_TOOL +
                         "\" submit --socket \"" + socket_path +
                         "\" --benchmark warp_9 --device AQT "
                         ">/dev/null 2>&1"),
              1);

    // A second daemon on the same socket refuses with exit 75.
    EXPECT_EQ(runCommand(std::string("\"") + SMQ_SERVE_TOOL +
                         "\" --socket \"" + socket_path +
                         "\" >/dev/null 2>&1"),
              75);

    // Fill the queue, then SIGTERM: the daemon must drain in-flight
    // work and exit 0 (the grid driver's salvage discipline).
    for (int i = 0; i < 6; ++i) {
        std::string reply;
        serve::requestOverSocket(
            socket_path,
            submitLine("ghz_4", "AQT", false, 2000, 500), &reply,
            nullptr);
    }
    ASSERT_EQ(::kill(daemon, SIGTERM), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(daemon, &status, 0), daemon);
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    EXPECT_FALSE(fs::exists(socket_path)); // socket file cleaned up
}

/** One traced client+daemon round trip; returns the stitched events. */
struct StitchRun
{
    std::string traceId; ///< trace_id echoed on the submit reply
    /** (pid, name, args trace.id) per merged event, in file order. */
    std::vector<std::tuple<int, std::string, std::string>> events;
};

StitchRun
runTracedSubmitOnce(const fs::path &dir)
{
    StitchRun run;
    const std::string socket_path = (dir / "smq.sock").string();
    const fs::path client_trace = dir / "client_trace";
    const fs::path daemon_trace = dir / "daemon_trace";

    const pid_t daemon = ::fork();
    if (daemon == 0) {
        ::execl(SMQ_SERVE_TOOL, SMQ_SERVE_TOOL, "--socket",
                socket_path.c_str(), "--workers", "1", "--no-metrics",
                "--trace", daemon_trace.string().c_str(),
                static_cast<char *>(nullptr));
        _exit(127);
    }
    EXPECT_GT(daemon, 0);
    for (int i = 0; i < 400; ++i) {
        std::string reply;
        if (serve::requestOverSocket(socket_path, "{\"type\":\"stats\"}",
                                     &reply, nullptr))
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    const fs::path reply_path = dir / "reply.json";
    EXPECT_EQ(runCommand(std::string("\"") + SMQ_SENTINEL_TOOL +
                         "\" submit --socket \"" + socket_path +
                         "\" --benchmark ghz_3 --device AQT --shots 40 "
                         "--repetitions 2 --trace \"" +
                         client_trace.string() + "\" > \"" +
                         reply_path.string() + "\""),
              0);
    const std::string reply = slurp(reply_path);
    EXPECT_TRUE(replyOk(reply)) << reply;
    run.traceId = replyField(reply, "trace_id");
    EXPECT_EQ(run.traceId.size(), 32u) << reply;

    // Graceful shutdown flushes the daemon's trace directory.
    std::string shutdown_reply;
    EXPECT_TRUE(serve::requestOverSocket(socket_path,
                                         "{\"type\":\"shutdown\"}",
                                         &shutdown_reply, nullptr));
    int status = 0;
    EXPECT_EQ(::waitpid(daemon, &status, 0), daemon);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    // Stitch both processes' traces with the real report command.
    const fs::path merged = dir / "merged_trace.json";
    EXPECT_EQ(runCommand(std::string("\"") + SMQ_SENTINEL_TOOL +
                         "\" report --history \"" +
                         (dir / "runs.jsonl").string() + "\" --trace \"" +
                         client_trace.string() + "\" --trace \"" +
                         daemon_trace.string() + "\" --out \"" +
                         (dir / "report.html").string() +
                         "\" --merged-trace \"" + merged.string() +
                         "\" > /dev/null"),
              0);

    obs::JsonValue root = obs::parseJson(slurp(merged));
    const obs::JsonValue *events = root.find("traceEvents");
    EXPECT_NE(events, nullptr);
    if (events != nullptr) {
        for (const obs::JsonValue &e : events->array) {
            std::string trace_id;
            if (const obs::JsonValue *args = e.find("args")) {
                if (const obs::JsonValue *id = args->find("trace.id"))
                    trace_id = id->asString();
            }
            run.events.emplace_back(
                static_cast<int>(e.at("pid").asU64()),
                e.at("name").asString(), trace_id);
        }
    }
    return run;
}

TEST(ServeSmoke, MergedWaterfallStitchesProcessesAndIsDeterministic)
{
    // The same submit against two independent daemon processes: both
    // runs must land on the same derived trace id, and the merged
    // Chrome trace must stitch client + daemon spans under it with an
    // identical event structure (clock epochs are normalized away).
    const StitchRun first =
        runTracedSubmitOnce(freshDir("smq_serve_stitch_a"));
    const StitchRun second =
        runTracedSubmitOnce(freshDir("smq_serve_stitch_b"));

    EXPECT_EQ(first.traceId, second.traceId)
        << "the derived trace id must be a pure function of the submit";
    ASSERT_FALSE(first.events.empty());

    // One trace, two processes: every span is tagged with the reply's
    // trace id, and both pid 1 (client) and pid 2 (daemon) show up.
    std::set<int> pids;
    std::set<std::string> names;
    for (const auto &[pid, name, trace_id] : first.events) {
        EXPECT_EQ(trace_id, first.traceId) << name;
        pids.insert(pid);
        names.insert(name);
    }
    EXPECT_EQ(pids, (std::set<int>{1, 2}));
    EXPECT_TRUE(names.count(obs::names::kSpanSubmit));
    EXPECT_TRUE(names.count(obs::names::kSpanServeQueueWait));
    EXPECT_TRUE(names.count(obs::names::kSpanServeJob));

    // Determinism: the stitched (pid, name, trace id) sequence — the
    // waterfall's structure — is identical across the two daemons.
    EXPECT_EQ(first.events, second.events);
}

TEST(ServeSmoke, StaleSocketFileIsReclaimed)
{
    const fs::path dir = freshDir("smq_serve_stale");
    const std::string socket_path = (dir / "stale.sock").string();
    // A plain file at the socket path, as a crashed daemon leaves.
    { std::ofstream(socket_path) << ""; }

    const pid_t daemon = spawnDaemon(socket_path);
    ASSERT_GT(daemon, 0);
    std::string reply;
    EXPECT_TRUE(serve::requestOverSocket(
        socket_path, "{\"type\":\"stats\"}", &reply, nullptr));
    EXPECT_TRUE(replyOk(reply));

    std::string shutdown_reply;
    EXPECT_TRUE(serve::requestOverSocket(socket_path,
                                         "{\"type\":\"shutdown\"}",
                                         &shutdown_reply, nullptr));
    EXPECT_TRUE(replyOk(shutdown_reply));
    int status = 0;
    ASSERT_EQ(::waitpid(daemon, &status, 0), daemon);
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

#endif // SMQ_SERVE_TOOL && SMQ_SENTINEL_TOOL

} // namespace
} // namespace smq
