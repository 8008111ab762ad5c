/**
 * @file
 * The one input parser (util/cli.hpp) and every front end built on it:
 * the number parsers and the Flags table on their own; a bad-input
 * table that each in-process front end (serveMain, submitMain, every
 * smq_sentinel subcommand, fuzzMain) must refuse with exit 2 without
 * writing anything; and the command lines the docs, the ctest scripts
 * and perfbench/run.py use, which must keep the meaning they had
 * before the parser was shared.
 *
 * The binaries that parse argv in main() (the regenerators,
 * smq_grid_tool, bench_perf, job_report) run the same bad-input rows
 * from ctest (tests/bad_input.cmake).
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "fig_data.hpp"
#include "fuzz/fuzz_cli.hpp"
#include "obs/metrics.hpp"
#include "report/sentinel_cli.hpp"
#include "serve/serve_cli.hpp"
#include "util/cli.hpp"

namespace smq {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Numbers
// ---------------------------------------------------------------------

TEST(CliNumbers, ParseUnsignedReadsAWholeTokenOrNothing)
{
    for (const char *bad : {"", "+1", "-1", " 1", "1 ", "0x10", "1.0",
                            "1e3", "12x", "18446744073709551616"})
        EXPECT_FALSE(util::parseUnsigned(bad)) << "'" << bad << "'";
    EXPECT_EQ(util::parseUnsigned("0"), 0u);
    EXPECT_EQ(util::parseUnsigned("007"), 7u);
    EXPECT_EQ(util::parseUnsigned("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
}

TEST(CliNumbers, ParseRealTakesFiniteUnsignedDecimalsOnly)
{
    for (const char *bad : {"nan", "inf", "-inf", "1e400", "", "-1",
                            "+1", " 1", "1 ", "0.5abc", "0x10", "abc"})
        EXPECT_FALSE(util::parseReal(bad)) << "'" << bad << "'";
    EXPECT_EQ(util::parseReal("0.35"), 0.35);
    EXPECT_EQ(util::parseReal("3600"), 3600.0);
    EXPECT_EQ(util::parseReal("1e-3"), 1e-3);
    EXPECT_EQ(util::parseReal("0"), 0.0);
}

// ---------------------------------------------------------------------
// The Flags table
// ---------------------------------------------------------------------

struct Parsed
{
    bool on = false;
    std::string name = "default";
    std::uint64_t count = 5;
    double rate = 0.5;
    std::vector<std::string> dirs;
};

util::Flags
table(Parsed &p)
{
    util::Flags flags;
    flags.add("--on", p.on)
        .add("--off", p.on, false)
        .add("--name", p.name)
        .add("--count", p.count)
        .add("--rate", p.rate)
        .add("--dir", p.dirs);
    return flags;
}

TEST(CliFlags, AppliesEachDeclaredFlagInOrder)
{
    Parsed p;
    EXPECT_EQ(table(p).parse({"--on", "--name", "n", "--count", "12",
                              "--rate", "2.5", "--dir", "a"}),
              "");
    EXPECT_TRUE(p.on);
    EXPECT_EQ(p.name, "n");
    EXPECT_EQ(p.count, 12u);
    EXPECT_EQ(p.rate, 2.5);
    EXPECT_EQ(p.dirs, std::vector<std::string>{"a"});

    Parsed untouched;
    EXPECT_EQ(table(untouched).parse({}), "");
    EXPECT_EQ(untouched.name, "default");
    EXPECT_EQ(untouched.count, 5u);
}

TEST(CliFlags, RefusesAnUnknownFlag)
{
    Parsed p;
    EXPECT_EQ(table(p).parse({"--on", "--bogus"}), "unknown flag --bogus");
    // One spelling: --name=VALUE is not a second syntax.
    EXPECT_EQ(table(p).parse({"--count=2"}), "unknown flag --count=2");
    EXPECT_EQ(p.count, 5u);
}

TEST(CliFlags, RefusesAMissingOrMalformedValue)
{
    Parsed p;
    EXPECT_EQ(table(p).parse({"--name"}), "--name needs a value");
    EXPECT_EQ(table(p).parse({"--on", "--count"}), "--count needs a value");
    EXPECT_EQ(table(p).parse({"--count", "x"}), "bad --count value 'x'");
    EXPECT_EQ(table(p).parse({"--count", "-1"}), "bad --count value '-1'");
    EXPECT_EQ(table(p).parse({"--rate", "nan"}), "bad --rate value 'nan'");
    EXPECT_EQ(p.count, 5u);
    EXPECT_EQ(p.rate, 0.5);
    // The token after a value flag is its value, whatever it looks like.
    Parsed q;
    EXPECT_EQ(table(q).parse({"--name", "--on"}), "");
    EXPECT_EQ(q.name, "--on");
    EXPECT_FALSE(q.on);
}

TEST(CliFlags, ARepeatedFlagLaterWinsAndARepeatableOneAppends)
{
    Parsed p;
    EXPECT_EQ(table(p).parse({"--count", "1", "--count", "2", "--on",
                              "--off", "--dir", "a", "--dir", "b"}),
              "");
    EXPECT_EQ(p.count, 2u);
    EXPECT_FALSE(p.on);
    EXPECT_EQ(p.dirs, (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(table(p).parse({"--off", "--on"}), "");
    EXPECT_TRUE(p.on);
}

TEST(CliFlags, AStrayPositionalIsAnErrorUnlessCollected)
{
    Parsed p;
    EXPECT_EQ(table(p).parse({"--on", "stray"}), "unexpected argument stray");
    EXPECT_EQ(table(p).parse({"-h"}), "unexpected argument -h");
    std::vector<std::string> positionals;
    EXPECT_EQ(table(p).parse({"a", "--count", "3", "b", "-"}, &positionals),
              "");
    EXPECT_EQ(positionals, (std::vector<std::string>{"a", "b", "-"}));
    EXPECT_EQ(p.count, 3u);
}

// ---------------------------------------------------------------------
// Bad input: every in-process front end exits 2 and writes nothing
// ---------------------------------------------------------------------

/** Runs a front end in a fresh, empty working directory. */
class FrontEnd
{
  public:
    using Main = std::function<int(const std::vector<std::string> &,
                                   std::ostream &, std::ostream &)>;

    FrontEnd(std::string name, Main main)
        : name_(std::move(name)), main_(std::move(main))
    {
    }

    /**
     * Run @p args and expect the usage exit code, @p message on
     * stderr, nothing on stdout and an empty working directory.
     */
    void expectRefused(const std::vector<std::string> &args,
                       const std::string &message) const
    {
        const fs::path dir =
            fs::path(::testing::TempDir()) / ("smq_cli_" + name_);
        fs::remove_all(dir);
        fs::create_directories(dir);
        const fs::path cwd = fs::current_path();
        fs::current_path(dir);
        std::ostringstream out, err;
        const int code = main_(args, out, err);
        fs::current_path(cwd);

        std::string line;
        for (const std::string &arg : args)
            line += " " + arg;
        EXPECT_EQ(code, 2) << name_ << line;
        EXPECT_NE(err.str().find(message), std::string::npos)
            << name_ << line << "\n" << err.str();
        EXPECT_EQ(out.str(), "") << name_ << line;
        EXPECT_TRUE(fs::is_empty(dir)) << name_ << line << " wrote files";
        fs::remove_all(dir);
    }

    /**
     * The table's rows after @p prefix: an unknown flag, @p valueFlag
     * with no value and, when given, @p numericFlag as "x", "-1" and
     * `--name=2`.
     */
    void expectTableRefused(const std::vector<std::string> &prefix,
                            const std::string &valueFlag,
                            const std::string &numericFlag = "") const
    {
        auto with = [&](std::vector<std::string> tail) {
            std::vector<std::string> args = prefix;
            args.insert(args.end(), tail.begin(), tail.end());
            return args;
        };
        expectRefused(with({"--bogus"}), "unknown flag --bogus");
        expectRefused(with({valueFlag}), valueFlag + " needs a value");
        if (numericFlag.empty())
            return;
        expectRefused(with({numericFlag, "x"}),
                      "bad " + numericFlag + " value 'x'");
        expectRefused(with({numericFlag, "-1"}),
                      "bad " + numericFlag + " value '-1'");
        expectRefused(with({numericFlag + "=2"}),
                      "unknown flag " + numericFlag + "=2");
    }

  private:
    std::string name_;
    Main main_;
};

TEST(CliBadInput, ServeAndSubmitRefuseAndWriteNothing)
{
    const FrontEnd serve("serve", [](const auto &args, auto &out,
                                     auto &err) {
        std::istringstream in("{\"type\":\"stats\"}\n");
        return serve::serveMain(args, in, out, err);
    });
    serve.expectTableRefused({"--pipe", "--manifest-dir", ".",
                              "--metrics-file", "metrics.prom"},
                             "--trace", "--workers");
    serve.expectTableRefused({"--pipe"}, "--backend", "--cache-mb");
    serve.expectRefused({"--pipe", "--queue-limit", "0"},
                        "bad --queue-limit value");
    serve.expectRefused({"--pipe", "--backend", "warp"},
                        "bad --backend value");

    const FrontEnd submit("submit", [](const auto &args, auto &out,
                                       auto &err) {
        return serve::submitMain(args, out, err);
    });
    submit.expectTableRefused({"--socket", "no.sock", "--benchmark",
                               "ghz_3", "--device", "AQT", "--trace",
                               "."},
                              "--device", "--shots");
}

TEST(CliBadInput, EverySentinelSubcommandRefusesAndWritesNothing)
{
    const FrontEnd sentinel("sentinel", [](const auto &args, auto &out,
                                           auto &err) {
        return report::sentinelMain(args, out, err);
    });
    sentinel.expectTableRefused(
        {"check", "perf.json", "--baseline", "h.jsonl"}, "--tool",
        "--window");
    sentinel.expectTableRefused(
        {"check", "perf.json", "--baseline", "h.jsonl"}, "--baseline",
        "--min-samples");
    sentinel.expectRefused({"check", "perf.json", "--baseline", "h.jsonl",
                            "--threshold", "nan"},
                           "bad --threshold value 'nan'");
    sentinel.expectTableRefused({"baseline", "perf.json"}, "--history");
    sentinel.expectTableRefused({"ingest", "."}, "--history");
    sentinel.expectTableRefused({"report", "--out", "r.html"}, "--title");
    sentinel.expectTableRefused({"compact", "--history", "h.jsonl"},
                                "--history", "--keep");
    sentinel.expectTableRefused({"merge", "ck", "--out", "m.txt"},
                                "--history");
    sentinel.expectRefused({"compact", "--history", "h.jsonl", "--bogus",
                            "y"},
                           "unknown flag --bogus");
    sentinel.expectRefused({"compact", "stray"},
                           "unexpected argument stray");
    sentinel.expectRefused({"report", "--out", "r.html", "stray"},
                           "unexpected argument stray");
    sentinel.expectRefused({"baseline", "a.json", "b.json"},
                           "unexpected argument b.json");
}

TEST(CliBadInput, FuzzRefusesAndWritesNothing)
{
    const FrontEnd fuzz("fuzz", [](const auto &args, auto &out,
                                   auto &err) {
        return fuzz::fuzzMain(args, out, err);
    });
    fuzz.expectTableRefused({"--cases", "1", "--out", "o", "--history",
                             "h.jsonl"},
                            "--history", "--seed");
    fuzz.expectTableRefused({"--cases", "1"}, "--out", "--max-qubits");
    fuzz.expectRefused({"-h"}, "unexpected argument -h");
    fuzz.expectRefused({"--min-qubits", "0"}, "qubit range");
}

// ---------------------------------------------------------------------
// Documented command lines keep their meaning
// ---------------------------------------------------------------------

std::string
describe(const bench::Scale &s)
{
    std::ostringstream out;
    out << "paper=" << s.paperShots << " shots=" << s.defaultShots
        << " reps=" << s.repetitions << " faults=" << s.faults
        << " jobs=" << s.jobs << " trace=" << s.traceDir
        << " metrics=" << s.metrics << " history=" << s.historyPath
        << " progress=" << s.progress << " heartbeat=" << s.heartbeatSecs
        << " shard=" << s.shard.index << "/" << s.shard.count
        << " checkpoint=" << s.checkpointDir << " resume=" << s.resumeDir
        << " backend=" << sim::toString(s.backend)
        << " cache=" << s.useCache;
    return out.str();
}

bench::Scale
scaleOf(std::vector<std::string> args, util::Flags flags = {},
        bench::Scale defaults = {})
{
    std::string tool = "bench_fig2_scores";
    std::vector<char *> argv = {tool.data()};
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return bench::scaleFromArgs(static_cast<int>(argv.size()), argv.data(),
                                std::move(flags), defaults);
}

TEST(CliDocumented, RegeneratorLinesParseAsBefore)
{
    // README, EXPERIMENTS.md, docs/, the ctest scripts and perfbench's
    // grid_cold line; each expectation is what the hand-written loop
    // this parser replaced made of the same line.
    const std::string base = "metrics=1 history= progress=0 ";
    const std::vector<std::pair<std::vector<std::string>, std::string>>
        lines = {
            {{},
             "paper=0 shots=500 reps=3 faults=0 jobs=1 trace= " + base +
                 "heartbeat=0 shard=0/1 checkpoint= resume= backend=auto "
                 "cache=1"},
            {{"--faults"},
             "paper=0 shots=500 reps=3 faults=1 jobs=1 trace= " + base +
                 "heartbeat=0 shard=0/1 checkpoint= resume= backend=auto "
                 "cache=1"},
            {{"--quick", "--faults"},
             "paper=0 shots=150 reps=2 faults=1 jobs=1 trace= " + base +
                 "heartbeat=0 shard=0/1 checkpoint= resume= backend=auto "
                 "cache=1"},
            {{"--quick", "--trace", "tr", "--history", "runs.jsonl"},
             "paper=0 shots=150 reps=2 faults=0 jobs=1 trace=tr metrics=1 "
             "history=runs.jsonl progress=0 heartbeat=0 shard=0/1 "
             "checkpoint= resume= backend=auto cache=1"},
            {{"--paper", "--shard", "1/3", "--checkpoint", "ck_1"},
             "paper=1 shots=500 reps=3 faults=0 jobs=1 trace= " + base +
                 "heartbeat=0 shard=1/3 checkpoint=ck_1 resume= "
                 "backend=auto cache=1"},
            {{"--paper", "--checkpoint", "ck"},
             "paper=1 shots=500 reps=3 faults=0 jobs=1 trace= " + base +
                 "heartbeat=0 shard=0/1 checkpoint=ck resume= backend=auto "
                 "cache=1"},
            {{"--paper", "--resume", "ck"},
             "paper=1 shots=500 reps=3 faults=0 jobs=1 trace= " + base +
                 "heartbeat=0 shard=0/1 checkpoint= resume=ck backend=auto "
                 "cache=1"},
            {{"--quick", "--jobs", "8", "--trace", "trace_out"},
             "paper=0 shots=150 reps=2 faults=0 jobs=8 trace=trace_out " +
                 base +
                 "heartbeat=0 shard=0/1 checkpoint= resume= backend=auto "
                 "cache=1"},
            {{"--quick", "--jobs", "2", "--heartbeat", "3600"},
             "paper=0 shots=150 reps=2 faults=0 jobs=2 trace= " + base +
                 "heartbeat=3600 shard=0/1 checkpoint= resume= "
                 "backend=auto cache=1"},
            {{"--quick", "--jobs", "0"},
             "paper=0 shots=150 reps=2 faults=0 jobs=0 trace= " + base +
                 "heartbeat=0 shard=0/1 checkpoint= resume= backend=auto "
                 "cache=1"},
            {{"--quick", "--backend", "trajectory"},
             "paper=0 shots=150 reps=2 faults=0 jobs=1 trace= " + base +
                 "heartbeat=0 shard=0/1 checkpoint= resume= "
                 "backend=trajectory cache=1"},
            {{"--quick", "--no-metrics"},
             "paper=0 shots=150 reps=2 faults=0 jobs=1 trace= metrics=0 "
             "history= progress=0 heartbeat=0 shard=0/1 checkpoint= "
             "resume= backend=auto cache=1"},
            {{"--no-metrics", "--metrics", "--progress"},
             "paper=0 shots=500 reps=3 faults=0 jobs=1 trace= metrics=1 "
             "history= progress=1 heartbeat=0 shard=0/1 checkpoint= "
             "resume= backend=auto cache=1"},
            {{"--quick", "--jobs", "2", "--shard", "2/3", "--checkpoint",
              "ck_2", "--heartbeat", "0.5"},
             "paper=0 shots=150 reps=2 faults=0 jobs=2 trace= " + base +
                 "heartbeat=0.5 shard=2/3 checkpoint=ck_2 resume= "
                 "backend=auto cache=1"},
        };
    for (const auto &[args, want] : lines) {
        std::string line;
        for (const std::string &arg : args)
            line += " " + arg;
        EXPECT_EQ(describe(scaleOf(args)), want) << line;
    }
}

TEST(CliDocumented, BenchPerfLinesParseAsBefore)
{
    // `bench_perf --json BENCH_perf.json` (EXPERIMENTS.md), with
    // bench_perf's own flags and its jobs default of 0.
    for (const auto &[args, json, full, jobs] :
         std::vector<std::tuple<std::vector<std::string>, std::string,
                                bool, std::size_t>>{
             {{}, "BENCH_perf.json", false, 0},
             {{"--json", "out.json"}, "out.json", false, 0},
             {{"--jobs", "2", "--full"}, "BENCH_perf.json", true, 2}}) {
        bool parsed_full = false;
        std::string parsed_json = "BENCH_perf.json";
        util::Flags flags;
        flags.add("--full", parsed_full).add("--json", parsed_json);
        bench::Scale defaults;
        defaults.jobs = 0;
        const bench::Scale scale = scaleOf(args, flags, defaults);
        EXPECT_EQ(parsed_json, json);
        EXPECT_EQ(parsed_full, full);
        EXPECT_EQ(scale.jobs, jobs);
        EXPECT_EQ(scale.defaultShots, 500u);
    }
}

TEST(CliDocumented, ServeLinesConfigureTheDaemonAsBefore)
{
    // docs/OPERATIONS.md's daemon line (--pipe for its socket) and
    // perfbench/run.py's `--pipe --workers 2 --metrics-file F`.
    const fs::path dir =
        fs::path(::testing::TempDir()) / "smq_cli_serve_lines";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string metrics_file = (dir / "smq.prom").string();
    const std::vector<std::pair<std::vector<std::string>, std::string>>
        lines = {
            {{"--pipe", "--workers", "4", "--queue-limit", "128",
              "--cache-mb", "64", "--manifest-dir", dir.string()},
             "\"workers\":4,"},
            {{"--pipe", "--workers", "2", "--metrics-file", metrics_file},
             "\"workers\":2,"},
            {{"--pipe", "--workers", "2", "--no-metrics"}, "\"workers\":2,"},
        };
    for (const auto &[args, workers] : lines) {
        std::istringstream in("{\"type\":\"stats\"}\n");
        std::ostringstream out, err;
        EXPECT_EQ(serve::serveMain(args, in, out, err), serve::kServeOk)
            << err.str();
        EXPECT_NE(out.str().find(workers), std::string::npos) << out.str();
    }
    obs::setMetricsEnabled(false);
    obs::resetMetrics();
    EXPECT_TRUE(fs::exists(dir / "smq_serve_manifest.json"));
    EXPECT_TRUE(fs::exists(metrics_file));

    std::istringstream in("{\"type\":\"stats\"}\n");
    std::ostringstream out, err;
    ASSERT_EQ(serve::serveMain({"--pipe", "--queue-limit", "128",
                                "--cache-mb", "64", "--no-metrics"},
                               in, out, err),
              serve::kServeOk);
    EXPECT_NE(out.str().find("\"queue_limit\":128,"), std::string::npos)
        << out.str();
    EXPECT_NE(out.str().find("\"budget_bytes\":67108864,"),
              std::string::npos)
        << out.str();
    fs::remove_all(dir);
}

/**
 * Run submitMain(@p args + --socket) against a one-shot listener and
 * return the request line it sent, up to its trace context.
 */
std::string
submitRequest(std::vector<std::string> args)
{
    const fs::path path = fs::path(::testing::TempDir()) /
                          ("smq_cli_" + std::to_string(::getpid()) +
                           ".sock");
    fs::remove(path);
    const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    std::strncpy(address.sun_path, path.c_str(),
                 sizeof(address.sun_path) - 1);
    if (::bind(listener, reinterpret_cast<const sockaddr *>(&address),
               sizeof(address)) != 0 ||
        ::listen(listener, 1) != 0) {
        ::close(listener);
        return "cannot listen on " + path.string();
    }
    std::string request;
    std::thread daemon([&] {
        const int conn = ::accept(listener, nullptr, nullptr);
        char c = 0;
        while (::read(conn, &c, 1) == 1 && c != '\n')
            request += c;
        const std::string reply = "{\"ok\":true}\n";
        [[maybe_unused]] ssize_t n =
            ::write(conn, reply.data(), reply.size());
        ::close(conn);
    });
    args.insert(args.begin(), {"--socket", path.string()});
    std::ostringstream out, err;
    const int code = serve::submitMain(args, out, err);
    ::shutdown(listener, SHUT_RDWR); // wakes accept() if submit never came
    daemon.join();
    ::close(listener);
    fs::remove(path);
    if (code != serve::kSubmitOk)
        return "exit " + std::to_string(code) + ": " + err.str();
    return request.substr(0, request.find(",\"trace\":"));
}

TEST(CliDocumented, SubmitLinesSendTheSameRequestAsBefore)
{
    // README, docs/OPERATIONS.md, docs/PROTOCOL.md and the serve smoke
    // test; each request is the one the hand-written loop sent.
    EXPECT_EQ(submitRequest({"--benchmark", "ghz_3", "--device", "AQT"}),
              "{\"type\":\"submit\",\"benchmark\":\"ghz_3\",\"device\":"
              "\"AQT\",\"shots\":2000,\"repetitions\":3,\"seed\":12345,"
              "\"faults\":false,\"fault_seed\":0,\"wait\":true");
    EXPECT_EQ(submitRequest({"--benchmark", "ghz_5", "--device",
                             "IBM-Montreal", "--shots", "2000"}),
              "{\"type\":\"submit\",\"benchmark\":\"ghz_5\",\"device\":"
              "\"IBM-Montreal\",\"shots\":2000,\"repetitions\":3,\"seed\":"
              "12345,\"faults\":false,\"fault_seed\":0,\"wait\":true");
    EXPECT_EQ(submitRequest({"--benchmark", "qaoa_vanilla_6", "--device",
                             "AQT", "--no-wait"}),
              "{\"type\":\"submit\",\"benchmark\":\"qaoa_vanilla_6\","
              "\"device\":\"AQT\",\"shots\":2000,\"repetitions\":3,"
              "\"seed\":12345,\"faults\":false,\"fault_seed\":0,"
              "\"wait\":false");
    EXPECT_EQ(submitRequest({"--benchmark", "ghz_3", "--device", "AQT",
                             "--shots", "40", "--repetitions", "2",
                             "--seed", "9", "--faults", "--fault-seed",
                             "4"}),
              "{\"type\":\"submit\",\"benchmark\":\"ghz_3\",\"device\":"
              "\"AQT\",\"shots\":40,\"repetitions\":2,\"seed\":9,"
              "\"faults\":true,\"fault_seed\":4,\"wait\":true");
}

TEST(CliDocumented, FuzzLinesRunTheSameCorpusConfiguration)
{
    // EXPERIMENTS.md's smq_fuzz lines, with --cases cut to 2 so the
    // suite stays fast; the report header echoes the parsed corpus.
    const fs::path dir =
        fs::path(::testing::TempDir()) / "smq_cli_fuzz_lines";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string history = (dir / "runs.jsonl").string();
    const std::vector<std::pair<std::vector<std::string>, std::string>>
        lines = {
            {{"--seed", "42", "--cases", "2", "--jobs", "4", "--out",
              (dir / "fuzz-repros").string()},
             "seed 42, 2 case(s), qubits [2,5], gates [1,30]"},
            {{"--seed", "43", "--cases", "2", "--clifford"},
             "seed 43, 2 case(s), qubits [2,5], gates [1,30]"},
            {{"--seed", "44", "--cases", "2", "--max-qubits", "7",
              "--max-gates", "60"},
             "seed 44, 2 case(s), qubits [2,7], gates [1,60]"},
            {{"--seed", "42", "--cases", "2", "--metrics", "--history",
              history},
             "seed 42, 2 case(s), qubits [2,5], gates [1,30]"},
        };
    for (const auto &[args, header] : lines) {
        std::ostringstream out, err;
        EXPECT_EQ(fuzz::fuzzMain(args, out, err), fuzz::kFuzzOk)
            << err.str();
        EXPECT_NE(out.str().find(header), std::string::npos) << out.str();
    }
    obs::setMetricsEnabled(false);
    obs::resetMetrics();
    EXPECT_TRUE(fs::exists(history));
    fs::remove_all(dir);
}

} // namespace
} // namespace smq
