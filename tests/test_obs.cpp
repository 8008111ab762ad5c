/**
 * @file
 * Observability-layer tests (`ctest -L obs`).
 *
 * Four properties carry the layer:
 *  1. Metric aggregation is exact and order-independent: the snapshot
 *     is a pure function of the multiset of recorded values, however
 *     many threads recorded them and in whatever order.
 *  2. Instrumentation never perturbs results: a Fig. 2 grid computed
 *     with metrics + tracing enabled at any --jobs value is
 *     byte-identical to the untraced serial grid.
 *  3. The emitted artifacts agree with each other: trace.json parses
 *     as valid Chrome-trace JSON, events.jsonl line-for-line matches
 *     it, and the manifest's stage rollups match the event log.
 *  4. The name registry is closed: every metric name a real run emits
 *     appears in docs/OBSERVABILITY.md's registry table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/benchmarks/ghz.hpp"
#include "core/harness.hpp"
#include "device/device.hpp"
#include "fig_data.hpp"
#include "obs/exposition.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "report/history.hpp"
#include "sim/density_matrix.hpp"

using namespace smq;

namespace {

/** Fresh, enabled registry per test; off again afterwards. */
class ObsTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        obs::resetMetrics();
        obs::setMetricsEnabled(true);
    }
    void TearDown() override
    {
        obs::setMetricsEnabled(false);
        obs::resetMetrics();
    }
};

std::filesystem::path
freshDir(const std::string &name)
{
    std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / name;
    std::filesystem::remove_all(dir);
    return dir;
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

bench::Scale
miniScale()
{
    bench::Scale scale;
    scale.defaultShots = 30;
    scale.repetitions = 2;
    scale.useCache = false;
    return scale;
}

} // namespace

// ---------------------------------------------------------------------
// Counters / gauges
// ---------------------------------------------------------------------

TEST_F(ObsTest, CounterSumsConcurrentAddsExactly)
{
    obs::Counter &counter = obs::counter("test.obs.counter");
    constexpr int kThreads = 8;
    constexpr std::uint64_t kAddsPerThread = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&counter] {
            for (std::uint64_t i = 0; i < kAddsPerThread; ++i)
                counter.add();
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(counter.value(), kThreads * kAddsPerThread);
}

TEST_F(ObsTest, CounterDisabledIsNoOp)
{
    obs::Counter &counter = obs::counter("test.obs.disabled");
    obs::setMetricsEnabled(false);
    counter.add(1000);
    EXPECT_EQ(counter.value(), 0u);
    obs::setMetricsEnabled(true);
    counter.add(3);
    EXPECT_EQ(counter.value(), 3u);
}

TEST_F(ObsTest, LookupReturnsStableHandleAcrossReset)
{
    obs::Counter &a = obs::counter("test.obs.stable");
    a.add(7);
    obs::resetMetrics();
    obs::Counter &b = obs::counter("test.obs.stable");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 0u) << "reset must zero, not unregister";
}

TEST_F(ObsTest, GaugeLastWriteWins)
{
    obs::Gauge &gauge = obs::gauge("test.obs.gauge");
    gauge.set(4);
    gauge.set(9);
    EXPECT_EQ(gauge.value(), 9);
    obs::setMetricsEnabled(false);
    gauge.set(1);
    EXPECT_EQ(gauge.value(), 9);
}

// ---------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------

TEST_F(ObsTest, HistogramSnapshotIsOrderIndependent)
{
    // The same multiset of values, recorded (a) serially in order and
    // (b) shuffled across eight threads, must yield identical
    // snapshots: count, sum, min, max and every bucket.
    std::vector<std::uint64_t> values;
    std::mt19937_64 gen(42);
    for (int i = 0; i < 50000; ++i)
        values.push_back(gen() % 1000000);
    values.push_back(0); // exercise the zero bucket

    obs::Histogram &serial = obs::histogram("test.obs.hist.serial");
    for (std::uint64_t v : values)
        serial.record(v);

    std::vector<std::uint64_t> shuffled = values;
    std::shuffle(shuffled.begin(), shuffled.end(), gen);
    obs::Histogram &threaded = obs::histogram("test.obs.hist.threaded");
    constexpr std::size_t kThreads = 8;
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t i = t; i < shuffled.size(); i += kThreads)
                threaded.record(shuffled[i]);
        });
    }
    for (std::thread &t : threads)
        t.join();

    obs::HistogramSnapshot a = serial.snapshot();
    obs::HistogramSnapshot b = threaded.snapshot();
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.sum, b.sum);
    EXPECT_EQ(a.min, b.min);
    EXPECT_EQ(a.max, b.max);
    for (std::size_t i = 0; i < a.buckets.size(); ++i)
        EXPECT_EQ(a.buckets[i], b.buckets[i]) << "bucket " << i;
}

TEST_F(ObsTest, HistogramBucketsFollowLog2)
{
    obs::Histogram &hist = obs::histogram("test.obs.hist.log2");
    hist.record(0);  // bucket 0
    hist.record(1);  // bucket 1 (bit_width 1)
    hist.record(2);  // bucket 2
    hist.record(3);  // bucket 2
    hist.record(4);  // bucket 3
    obs::HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count, 5u);
    EXPECT_EQ(snap.sum, 10u);
    EXPECT_EQ(snap.min, 0u);
    EXPECT_EQ(snap.max, 4u);
    EXPECT_EQ(snap.buckets[0], 1u);
    EXPECT_EQ(snap.buckets[1], 1u);
    EXPECT_EQ(snap.buckets[2], 2u);
    EXPECT_EQ(snap.buckets[3], 1u);
    EXPECT_DOUBLE_EQ(snap.mean(), 2.0);
}

// ---------------------------------------------------------------------
// Quantiles and Prometheus exposition
// ---------------------------------------------------------------------

TEST_F(ObsTest, HistogramQuantileInterpolatesWithinBucketsAndClamps)
{
    obs::Histogram &empty = obs::histogram("test.obs.quantile.empty");
    EXPECT_DOUBLE_EQ(obs::histogramQuantile(empty.snapshot(), 0.5), 0.0);

    // A single observation is every quantile.
    obs::Histogram &one = obs::histogram("test.obs.quantile.one");
    one.record(1000);
    for (double q : {0.0, 0.5, 0.9, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(obs::histogramQuantile(one.snapshot(), q),
                         1000.0);

    // 1..1000 uniformly: exact at the clamped ends, inside the
    // covering log2 bucket elsewhere, monotone in q.
    obs::Histogram &wide = obs::histogram("test.obs.quantile.wide");
    for (std::uint64_t v = 1; v <= 1000; ++v)
        wide.record(v);
    obs::HistogramSnapshot snap = wide.snapshot();
    EXPECT_DOUBLE_EQ(obs::histogramQuantile(snap, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(obs::histogramQuantile(snap, 1.0), 1000.0);
    const double p50 = obs::histogramQuantile(snap, 0.5);
    const double p90 = obs::histogramQuantile(snap, 0.9);
    const double p99 = obs::histogramQuantile(snap, 0.99);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    // True p50 = 500.5 lands in the [256, 511] bucket; p99 = 990 in
    // [512, 1023], clamped to the recorded max of 1000.
    EXPECT_GE(p50, 256.0);
    EXPECT_LE(p50, 512.0);
    EXPECT_GE(p99, 512.0);
    EXPECT_LE(p99, 1000.0);
    // Pure function of the snapshot.
    EXPECT_DOUBLE_EQ(obs::histogramQuantile(snap, 0.9), p90);
}

TEST_F(ObsTest, PrometheusRenderIsSanitizedTypedAndDeterministic)
{
    obs::counter("test.prom.counter").add(5);
    obs::gauge("test.prom.gauge").set(-3);
    obs::Histogram &hist = obs::histogram("test.prom.lat.ns");
    for (std::uint64_t v : {10u, 20u, 30u, 40u})
        hist.record(v);

    const std::string text = obs::renderPrometheusSnapshot();
    const auto has = [&text](const char *needle) {
        return text.find(needle) != std::string::npos;
    };
    // Names carry the smq_ prefix, dots sanitized to underscores.
    EXPECT_TRUE(has("# TYPE smq_test_prom_counter counter")) << text;
    EXPECT_TRUE(has("smq_test_prom_counter 5"));
    EXPECT_TRUE(has("# TYPE smq_test_prom_gauge gauge"));
    EXPECT_TRUE(has("smq_test_prom_gauge -3"));
    // Histograms render as summaries: three quantiles + sum/count,
    // quantiles from the same obs::histogramQuantile stats replies use.
    EXPECT_TRUE(has("# TYPE smq_test_prom_lat_ns summary"));
    EXPECT_TRUE(has("smq_test_prom_lat_ns{quantile=\"0.5\"}"));
    EXPECT_TRUE(has("smq_test_prom_lat_ns{quantile=\"0.9\"}"));
    EXPECT_TRUE(has("smq_test_prom_lat_ns{quantile=\"0.99\"}"));
    EXPECT_TRUE(has("smq_test_prom_lat_ns_sum 100"));
    EXPECT_TRUE(has("smq_test_prom_lat_ns_count 4"));
    // No raw dotted name escapes sanitization...
    EXPECT_FALSE(has("test.prom"));
    // ...and rendering is a pure function of the registry state.
    EXPECT_EQ(text, obs::renderPrometheusSnapshot());
}

TEST_F(ObsTest, ResourceProbesAnswerAndLandInManifests)
{
    EXPECT_GT(obs::peakRssBytes(), 0u);
    const std::uint64_t process_cpu = obs::processCpuNs();
    EXPECT_GT(process_cpu, 0u);
    // A thread's CPU time is bounded by the whole process's — but only
    // when the thread clock is sampled first: both clocks keep ticking
    // between the two reads, so the later (process) sample dominates.
    const std::uint64_t thread_cpu = obs::threadCpuNs();
    EXPECT_LE(thread_cpu, obs::processCpuNs());

    obs::RunManifest manifest = obs::RunManifest::capture("probe_test");
    EXPECT_GT(manifest.counters[obs::names::kRssPeakBytes], 0u);
    EXPECT_GE(manifest.counters[obs::names::kCpuProcessNs], process_cpu);
}

// ---------------------------------------------------------------------
// Trace-context propagation
// ---------------------------------------------------------------------

TEST(ObsTraceContext, DerivationIsDeterministicAndSensitive)
{
    const obs::TraceContext a =
        obs::TraceContext::derive(7, "ghz_3", "AQT");
    EXPECT_TRUE(a.valid());
    EXPECT_EQ(a, obs::TraceContext::derive(7, "ghz_3", "AQT"));
    EXPECT_FALSE(a == obs::TraceContext::derive(8, "ghz_3", "AQT"));
    EXPECT_FALSE(a == obs::TraceContext::derive(7, "ghz_4", "AQT"));
    EXPECT_FALSE(a == obs::TraceContext::derive(7, "ghz_3", "IonQ"));
    EXPECT_EQ(a.traceIdHex().size(), 32u);
    EXPECT_EQ(a.parentSpanHex().size(), 16u);
}

TEST(ObsTraceContext, HexRoundTripsAndParsingIsStrict)
{
    const obs::TraceContext a =
        obs::TraceContext::derive(7, "ghz_3", "AQT");
    const std::string id = a.traceIdHex();
    std::optional<obs::TraceContext> back =
        obs::TraceContext::fromHex(id, a.parentSpanHex());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, a);

    // The parent half is optional on the wire.
    std::optional<obs::TraceContext> headless =
        obs::TraceContext::fromHex(id, "");
    ASSERT_TRUE(headless.has_value());
    EXPECT_EQ(headless->parentSpan, 0u);

    EXPECT_FALSE(obs::TraceContext::fromHex("", "").has_value());
    EXPECT_FALSE(
        obs::TraceContext::fromHex(id.substr(1), "").has_value());
    EXPECT_FALSE(obs::TraceContext::fromHex(id + "0", "").has_value());
    std::string upper = id;
    upper[0] = 'A';
    EXPECT_FALSE(obs::TraceContext::fromHex(upper, "").has_value());
    std::string nonhex = id;
    nonhex[5] = 'g';
    EXPECT_FALSE(obs::TraceContext::fromHex(nonhex, "").has_value());
    // All-zero means "no context" and is not a parseable id.
    EXPECT_FALSE(
        obs::TraceContext::fromHex(std::string(32, '0'), "").has_value());
    EXPECT_FALSE(obs::TraceContext::fromHex(id, "xyz").has_value());
    EXPECT_FALSE(obs::TraceContext::fromHex(id, id).has_value());
}

TEST(ObsTraceContext, ScopesInstallNestAndRestore)
{
    EXPECT_FALSE(obs::currentTraceContext().valid());
    const obs::TraceContext outer = obs::TraceContext::derive(1, "a", "b");
    const obs::TraceContext inner = obs::TraceContext::derive(2, "c", "d");
    {
        obs::TraceContextScope outer_scope(outer);
        EXPECT_EQ(obs::currentTraceContext(), outer);
        {
            obs::TraceContextScope inner_scope(inner);
            EXPECT_EQ(obs::currentTraceContext(), inner);
            {
                // An invalid context is a no-op scope, not a clear.
                obs::TraceContextScope noop{obs::TraceContext{}};
                EXPECT_EQ(obs::currentTraceContext(), inner);
            }
        }
        EXPECT_EQ(obs::currentTraceContext(), outer);
    }
    EXPECT_FALSE(obs::currentTraceContext().valid());
}

TEST(ObsTraceContext, SpanEventsCarryTheInstalledContext)
{
    obs::setMetricsEnabled(false);
    std::filesystem::path dir = freshDir("smq_obs_ctx_spans");
    const obs::TraceContext ctx =
        obs::TraceContext::derive(9, "ghz_3", "AQT");
    obs::startTracing(dir.string());
    {
        SMQ_TRACE_SPAN("untagged");
    }
    {
        obs::TraceContextScope scope(ctx);
        SMQ_TRACE_SPAN("tagged", obs::jsonField("k", "v"));
    }
    obs::stopTracing();

    obs::JsonValue root = obs::parseJson(slurp(dir / "trace.json"));
    const obs::JsonValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->array.size(), 2u);
    for (const obs::JsonValue &e : events->array) {
        const std::string name = e.at("name").asString();
        const obs::JsonValue *args = e.find("args");
        if (name == "tagged") {
            ASSERT_NE(args, nullptr);
            EXPECT_EQ(args->at("trace.id").asString(), ctx.traceIdHex());
            EXPECT_EQ(args->at("trace.parent").asString(),
                      ctx.parentSpanHex());
            EXPECT_EQ(args->at("k").asString(), "v");
        } else {
            ASSERT_EQ(name, "untagged");
            // Without a context the event format is untouched, so
            // pre-propagation traces stay byte-identical.
            if (args != nullptr) {
                EXPECT_EQ(args->find("trace.id"), nullptr);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Spans and trace files
// ---------------------------------------------------------------------

TEST(ObsTrace, NestedSpansProduceValidTraceAndJsonl)
{
    // Metrics stay OFF here: tracing alone must be able to drive
    // spans, and ad-hoc span names must not register histograms.
    obs::setMetricsEnabled(false);
    std::filesystem::path dir = freshDir("smq_obs_nesting");
    obs::startTracing(dir.string());
    {
        SMQ_TRACE_SPAN("outer", obs::jsonField("k", "v"));
        {
            SMQ_TRACE_SPAN("inner");
        }
        {
            SMQ_TRACE_SPAN("inner");
        }
    }
    obs::stopTracing();

    obs::JsonValue root = obs::parseJson(slurp(dir / "trace.json"));
    const obs::JsonValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->array.size(), 3u);

    double outer_start = 0, outer_dur = 0;
    int inner_seen = 0;
    for (const obs::JsonValue &e : events->array) {
        EXPECT_EQ(e.at("cat").asString(), "smq");
        EXPECT_EQ(e.at("ph").asString(), "X");
        std::string name = e.at("name").asString();
        if (name == "outer") {
            outer_start = e.at("ts").asDouble();
            outer_dur = e.at("dur").asDouble();
            EXPECT_EQ(e.at("args").at("k").asString(), "v");
        } else {
            ASSERT_EQ(name, "inner");
            ++inner_seen;
        }
    }
    EXPECT_EQ(inner_seen, 2);
    // Nesting: both inner spans fall inside [outer_start, +outer_dur].
    for (const obs::JsonValue &e : events->array) {
        if (e.at("name").asString() != "inner")
            continue;
        EXPECT_GE(e.at("ts").asDouble(), outer_start);
        EXPECT_LE(e.at("ts").asDouble() + e.at("dur").asDouble(),
                  outer_start + outer_dur + 1e-3);
    }

    // events.jsonl carries the same events, one object per line.
    std::istringstream jsonl(slurp(dir / "events.jsonl"));
    std::string line;
    std::size_t lines = 0;
    while (std::getline(jsonl, line)) {
        if (line.empty())
            continue;
        obs::JsonValue event = obs::parseJson(line);
        EXPECT_TRUE(event.find("name") != nullptr);
        ++lines;
    }
    EXPECT_EQ(lines, events->array.size());
}

TEST(ObsTrace, DisabledSpanEvaluatesNoArgs)
{
    obs::setMetricsEnabled(false);
    int evaluations = 0;
    auto expensive = [&] {
        ++evaluations;
        return std::string("x");
    };
    {
        SMQ_TRACE_SPAN("noop", obs::jsonField("k", expensive()));
    }
    EXPECT_EQ(evaluations, 0)
        << "span args must not be formatted while the sink is off";
}

// ---------------------------------------------------------------------
// Manifests
// ---------------------------------------------------------------------

TEST(ObsManifest, JsonRoundTripPreservesEveryField)
{
    obs::RunManifest m;
    m.tool = "unit_test";
    m.gitRev = "abc123";
    m.deviceTableVersion = device::kDeviceTableVersion;
    m.seed = 12345;
    m.shots = 2000;
    m.repetitions = 3;
    m.jobs = 8;
    m.faultsEnabled = true;
    m.faultSeed = 2022;
    m.traceDir = "trace/dir with \"quotes\"";
    m.cacheHits = 17;
    m.cacheMisses = 5;
    m.counters["sim.shots"] = 123456789012345ull;
    m.counters["jobs.retry.attempts"] = 83;
    m.stages["job"] = {10, 5000000000ull, 1000, 900000000ull};
    m.extra["note"] = "hello\nworld";

    obs::RunManifest r = obs::RunManifest::fromJson(m.toJson());
    EXPECT_EQ(r.schema, obs::kManifestSchema);
    EXPECT_EQ(r.tool, m.tool);
    EXPECT_EQ(r.gitRev, m.gitRev);
    EXPECT_EQ(r.deviceTableVersion, m.deviceTableVersion);
    EXPECT_EQ(r.seed, m.seed);
    EXPECT_EQ(r.shots, m.shots);
    EXPECT_EQ(r.repetitions, m.repetitions);
    EXPECT_EQ(r.jobs, m.jobs);
    EXPECT_EQ(r.faultsEnabled, m.faultsEnabled);
    EXPECT_EQ(r.faultSeed, m.faultSeed);
    EXPECT_EQ(r.traceDir, m.traceDir);
    EXPECT_EQ(r.cacheHits, m.cacheHits);
    EXPECT_EQ(r.cacheMisses, m.cacheMisses);
    EXPECT_EQ(r.counters, m.counters);
    ASSERT_EQ(r.stages.size(), 1u);
    EXPECT_EQ(r.stages.at("job").count, 10u);
    EXPECT_EQ(r.stages.at("job").totalNs, 5000000000ull);
    EXPECT_EQ(r.stages.at("job").minNs, 1000u);
    EXPECT_EQ(r.stages.at("job").maxNs, 900000000ull);
    EXPECT_EQ(r.extra, m.extra);
}

TEST(ObsManifest, FileRoundTrip)
{
    std::filesystem::path dir = freshDir("smq_obs_manifest");
    std::filesystem::create_directories(dir);
    std::string path = (dir / "m.json").string();
    obs::RunManifest m;
    m.tool = "file_test";
    m.seed = 9;
    ASSERT_TRUE(m.writeFile(path));
    obs::RunManifest r = obs::RunManifest::readFile(path);
    EXPECT_EQ(r.tool, "file_test");
    EXPECT_EQ(r.seed, 9u);
}

TEST(ObsManifest, RejectsWrongSchema)
{
    EXPECT_THROW(obs::RunManifest::fromJson("{\"schema\":\"nope\"}"),
                 std::runtime_error);
    EXPECT_THROW(obs::RunManifest::fromJson("not json"),
                 std::runtime_error);
}

// ---------------------------------------------------------------------
// Determinism: observability must not perturb results
// ---------------------------------------------------------------------

TEST(ObsJson, NumberWriterKeepsSeventeenDigitsAndZeroesNonFinite)
{
    // The one number writer of the history store, the checkpoint
    // journal and the serve replies: every double reads back exactly,
    // and inf/nan (invalid JSON) become 0.
    const auto text = [](double value) {
        std::ostringstream out;
        obs::writeJsonNumber(out, value);
        return out.str();
    };
    EXPECT_EQ(text(0.1), "0.10000000000000001");
    EXPECT_EQ(text(1.0 / 3.0), "0.33333333333333331");
    EXPECT_EQ(text(2.0), "2");
    EXPECT_EQ(text(-1e-300), "-1e-300");
    EXPECT_EQ(obs::parseJson(text(1.0 / 3.0)).asDouble(), 1.0 / 3.0);
    EXPECT_EQ(text(std::numeric_limits<double>::infinity()), "0");
    EXPECT_EQ(text(-std::numeric_limits<double>::infinity()), "0");
    EXPECT_EQ(text(std::numeric_limits<double>::quiet_NaN()), "0");
}

TEST(ObsJson, AsU64TakesWholeUnsignedIntegersOnly)
{
    // A count read back from a history line, a journal, a manifest or
    // a request is the number written, or an error: never a wrapped
    // sign, a truncated fraction or a mantissa without its exponent.
    for (const char *bad : {"-5", "1.5", "1e3", "18446744073709551616"})
        EXPECT_THROW(obs::parseJson(bad).asU64(), std::runtime_error)
            << bad;
    EXPECT_THROW(obs::parseJson("\"5\"").asU64(), std::runtime_error);
    EXPECT_EQ(obs::parseJson("18446744073709551615").asU64(),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(obs::parseJson("0").asU64(), 0u);
}

TEST(ObsDeterminism, GridByteIdenticalWithTracingOnAtAnyJobs)
{
    // Baseline: everything off, serial.
    obs::setMetricsEnabled(false);
    bench::Scale scale = miniScale();
    scale.jobs = 1;
    std::string baseline =
        bench::serializeGrid(bench::computeFig2Grid(scale));

    for (std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
        obs::resetMetrics();
        obs::setMetricsEnabled(true);
        std::filesystem::path dir =
            freshDir("smq_obs_grid_j" + std::to_string(jobs));
        obs::startTracing(dir.string());
        scale.jobs = jobs;
        std::string traced =
            bench::serializeGrid(bench::computeFig2Grid(scale));
        obs::stopTracing();
        obs::setMetricsEnabled(false);
        EXPECT_EQ(traced, baseline)
            << "observability perturbed the grid at jobs=" << jobs;
    }
    obs::resetMetrics();
}

TEST(ObsDeterminism, GridByteIdenticalWithTraceContextInstalled)
{
    // Propagation on top of tracing: installing a trace context (which
    // the pool forwards to its workers) must not perturb the grid
    // either, at any --jobs — and the spans workers record must carry
    // the installed identity.
    obs::setMetricsEnabled(false);
    bench::Scale scale = miniScale();
    scale.jobs = 1;
    const std::string baseline =
        bench::serializeGrid(bench::computeFig2Grid(scale));

    const obs::TraceContext ctx =
        obs::TraceContext::derive(12345, "fig2", "grid");
    for (std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
        obs::resetMetrics();
        obs::setMetricsEnabled(true);
        std::filesystem::path dir =
            freshDir("smq_obs_ctx_grid_j" + std::to_string(jobs));
        obs::startTracing(dir.string());
        std::string traced;
        {
            obs::TraceContextScope scope(ctx);
            scale.jobs = jobs;
            traced = bench::serializeGrid(bench::computeFig2Grid(scale));
        }
        obs::stopTracing();
        obs::setMetricsEnabled(false);
        EXPECT_EQ(traced, baseline)
            << "trace propagation perturbed the grid at jobs=" << jobs;
        // Spans recorded on pool workers inherit the batch's context.
        EXPECT_NE(slurp(dir / "events.jsonl").find(ctx.traceIdHex()),
                  std::string::npos)
            << "no worker span carried the trace id at jobs=" << jobs;
    }
    obs::resetMetrics();
}

TEST(ObsDeterminism, ManifestStageRollupsMatchEventLog)
{
    obs::resetMetrics();
    obs::setMetricsEnabled(true);
    std::filesystem::path dir = freshDir("smq_obs_consistency");
    obs::startTracing(dir.string());
    bench::Scale scale = miniScale();
    scale.jobs = 4;
    bench::computeFig2Grid(scale);
    obs::stopTracing();

    obs::RunManifest manifest =
        obs::RunManifest::capture("consistency_test");
    obs::setMetricsEnabled(false);

    // Count span events per name in the JSONL log.
    std::map<std::string, std::uint64_t> event_counts;
    std::istringstream jsonl(slurp(dir / "events.jsonl"));
    std::string line;
    while (std::getline(jsonl, line)) {
        if (line.empty())
            continue;
        obs::JsonValue event = obs::parseJson(line);
        ++event_counts[event.at("name").asString()];
    }

    ASSERT_FALSE(manifest.stages.empty());
    EXPECT_TRUE(manifest.stages.count("grid"));
    EXPECT_TRUE(manifest.stages.count("job"));
    for (const auto &[stage, rollup] : manifest.stages) {
        EXPECT_EQ(rollup.count, event_counts[stage])
            << "stage '" << stage
            << "': manifest rollup disagrees with events.jsonl";
        EXPECT_GE(rollup.maxNs, rollup.minNs);
        EXPECT_GE(rollup.totalNs, rollup.maxNs);
    }
    // And the other direction: no event name missing from the rollups.
    for (const auto &[name, n] : event_counts)
        EXPECT_TRUE(manifest.stages.count(name))
            << "event '" << name << "' has no stage rollup";
    obs::resetMetrics();
}

// ---------------------------------------------------------------------
// Doc closure: every emitted name is documented
// ---------------------------------------------------------------------

TEST(ObsDocs, EveryEmittedMetricNameIsDocumented)
{
    obs::resetMetrics();
    obs::setMetricsEnabled(true);

    // Exercise every instrumented subsystem: the fault-injected job
    // grid, the synchronous harness (incl. a too-large rejection), and
    // the density-matrix kernels the grid path does not touch.
    bench::Scale scale = miniScale();
    scale.jobs = 2;
    scale.faults = true;
    bench::computeFig2Grid(scale);

    core::GhzBenchmark ghz(3);
    core::HarnessOptions options;
    options.shots = 20;
    options.repetitions = 2;
    core::runBenchmark(ghz, device::perfectDevice(3), options);
    core::runBenchmark(ghz, device::perfectDevice(2), options);

    sim::DensityMatrix rho(2);
    rho.applyGate(qc::Gate(qc::GateType::H, {0}));

    // The telemetry consumers (PR 4): a history append/load cycle and
    // a progress phase, so `history.*` / `progress.*` names are held
    // to the same closure.
    {
        const std::filesystem::path store =
            freshDir("obs_docs_history") / "runs.jsonl";
        std::filesystem::create_directories(store.parent_path());
        report::HistoryRecord record;
        record.tool = "obs_docs";
        report::appendHistory(store.string(), record);
        report::appendHistory(store.string(), record);
        report::loadHistory(store.string());

        std::ostringstream progress_log;
        obs::ProgressOptions progress;
        progress.mode = obs::ProgressOptions::Mode::Jsonl;
        progress.heartbeatSecs = 0.0;
        progress.out = &progress_log;
        obs::startProgress(progress);
        obs::progressBegin("grid", obs::names::kSpanJob, 2, 1);
        obs::progressTick(obs::names::kSpanJob, 2);
        obs::progressEnd();
        obs::stopProgress();
    }

    obs::MetricsSnapshot snapshot = obs::snapshotMetrics();
    obs::setMetricsEnabled(false);

    std::string doc = slurp(std::filesystem::path(SMQ_SOURCE_DIR) /
                            "docs" / "OBSERVABILITY.md");
    std::set<std::string> emitted;
    for (const auto &[name, value] : snapshot.counters) {
        if (value > 0)
            emitted.insert(name);
    }
    for (const auto &[name, value] : snapshot.gauges) {
        if (value != 0)
            emitted.insert(name);
    }
    for (const auto &[name, hist] : snapshot.histograms) {
        if (hist.count > 0)
            emitted.insert(name);
    }
    ASSERT_GT(emitted.size(), 10u) << "instrumentation did not fire";
    for (const std::string &name : emitted) {
        EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
            << "metric '" << name
            << "' is emitted but not documented in OBSERVABILITY.md";
    }
    obs::resetMetrics();
}
