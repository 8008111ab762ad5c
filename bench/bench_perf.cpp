/**
 * @file
 * Performance harness for the hot paths.
 *
 * Default mode times the pipeline stages (transpilation cold/cached,
 * dense-simulator kernels, noisy trajectory execution) and the Fig. 2
 * grid serial vs parallel, verifies the two grids are byte-identical,
 * and writes the machine-readable BENCH_perf.json so the perf
 * trajectory is tracked across PRs.
 *
 * `bench_perf --micro` instead runs the google-benchmark
 * micro-benchmarks of the substrates (simulator gate throughput,
 * transpilation, feature extraction, Clifford synthesis, hulls).
 *
 * Flags (default mode): --jobs N (parallel grid width; default = all
 * hardware threads), --full (default-scale grid instead of the
 * reduced perf scale), --json PATH (output path).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/benchmarks/error_correction.hpp"
#include "core/benchmarks/ghz.hpp"
#include "core/benchmarks/mermin_bell.hpp"
#include "core/coverage.hpp"
#include "core/features.hpp"
#include "core/harness.hpp"
#include "core/benchmarks/qaoa.hpp"
#include "core/suites.hpp"
#include "device/device.hpp"
#include "fig_data.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "qc/clifford.hpp"
#include "qc/library.hpp"
#include "qc/qasm.hpp"
#include "sim/density_matrix.hpp"
#include "sim/kernels.hpp"
#include "sim/runner.hpp"
#include "sim/statevector.hpp"
#include "transpile/cache.hpp"
#include "transpile/transpiler.hpp"
#include "util/thread_pool.hpp"

using namespace smq;

namespace {

// ---------------------------------------------------------------------
// google-benchmark micro suite (bench_perf --micro)
// ---------------------------------------------------------------------

void
BM_StateVectorHadamardLayer(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    sim::StateVector sv(n);
    for (auto _ : state) {
        for (std::size_t q = 0; q < n; ++q)
            sv.applyGate(qc::Gate(qc::GateType::H,
                                  {static_cast<qc::Qubit>(q)}));
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_StateVectorHadamardLayer)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

void
BM_StateVectorCxLadder(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    sim::StateVector sv(n);
    for (auto _ : state) {
        for (std::size_t q = 0; q + 1 < n; ++q)
            sv.applyGate(qc::Gate(qc::GateType::CX,
                                  {static_cast<qc::Qubit>(q),
                                   static_cast<qc::Qubit>(q + 1)}));
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
}
BENCHMARK(BM_StateVectorCxLadder)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

void
BM_StateVectorToffoliLayer(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    sim::StateVector sv(n);
    for (auto _ : state) {
        for (std::size_t q = 0; q + 2 < n; ++q)
            sv.applyGate(qc::Gate(qc::GateType::CCX,
                                  {static_cast<qc::Qubit>(q),
                                   static_cast<qc::Qubit>(q + 1),
                                   static_cast<qc::Qubit>(q + 2)}));
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
}
BENCHMARK(BM_StateVectorToffoliLayer)->Arg(12)->Arg(16)->Arg(20);

void
BM_DensityMatrix1QSweep(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    sim::DensityMatrix rho(n);
    for (auto _ : state) {
        for (std::size_t q = 0; q < n; ++q)
            rho.applyGate(qc::Gate(qc::GateType::H,
                                   {static_cast<qc::Qubit>(q)}));
        benchmark::DoNotOptimize(&rho);
    }
}
BENCHMARK(BM_DensityMatrix1QSweep)->Arg(6)->Arg(8)->Arg(10);

void
BM_DensityMatrixCxLadder(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    sim::DensityMatrix rho(n);
    for (auto _ : state) {
        for (std::size_t q = 0; q + 1 < n; ++q)
            rho.applyGate(qc::Gate(qc::GateType::CX,
                                   {static_cast<qc::Qubit>(q),
                                    static_cast<qc::Qubit>(q + 1)}));
        benchmark::DoNotOptimize(&rho);
    }
}
BENCHMARK(BM_DensityMatrixCxLadder)->Arg(6)->Arg(8)->Arg(10);

void
BM_NoisyTrajectoryGhz(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    core::GhzBenchmark bench(n);
    qc::Circuit circuit = bench.circuits()[0];
    sim::RunOptions options;
    options.shots = 100;
    options.noise = device::ibmMontreal().noise;
    std::uint64_t seed = 0;
    for (auto _ : state) {
        stats::Rng rng(seed++);
        benchmark::DoNotOptimize(sim::run(circuit, options, rng));
    }
}
BENCHMARK(BM_NoisyTrajectoryGhz)->Arg(5)->Arg(10)->Arg(14);

void
BM_TranspileQaoaOntoFalcon27(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    core::QaoaVanillaBenchmark bench(n, 3, /*optimize=*/false);
    qc::Circuit circuit = bench.circuits()[0];
    device::Device dev = device::ibmMontreal();
    for (auto _ : state) {
        benchmark::DoNotOptimize(transpile::transpile(circuit, dev));
    }
}
BENCHMARK(BM_TranspileQaoaOntoFalcon27)->Arg(6)->Arg(10)->Arg(16);

void
BM_FeatureExtraction(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    qc::Circuit circuit = core::GhzBenchmark(n).circuits()[0];
    for (auto _ : state)
        benchmark::DoNotOptimize(core::computeFeatures(circuit));
}
BENCHMARK(BM_FeatureExtraction)->Arg(100)->Arg(1000);

void
BM_MerminCliffordSynthesis(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    auto terms = core::MerminBellBenchmark::merminTerms(n);
    std::vector<qc::PauliString> paulis;
    for (const auto &[coeff, p] : terms)
        paulis.push_back(p);
    for (auto _ : state)
        benchmark::DoNotOptimize(qc::diagonalizationCircuit(paulis, n));
}
BENCHMARK(BM_MerminCliffordSynthesis)->Arg(4)->Arg(6)->Arg(8)->Arg(10);

void
BM_CoverageHull(benchmark::State &state)
{
    auto points = core::supermarqFeaturePoints();
    for (auto _ : state)
        benchmark::DoNotOptimize(core::computeCoverage("s", points));
}
BENCHMARK(BM_CoverageHull);

void
BM_QasmRoundTrip(benchmark::State &state)
{
    qc::Circuit circuit = qc::library::qft(16);
    for (auto _ : state) {
        std::string text = qc::toQasm(circuit);
        benchmark::DoNotOptimize(qc::fromQasm(text));
    }
}
BENCHMARK(BM_QasmRoundTrip);

// Observability substrate: the cost of one record at an instrumented
// site, with the layer on and (the common case) off. The `perf.micro.*`
// names are scratch registrations, not part of the documented registry.

void
BM_ObsCounterAddEnabled(benchmark::State &state)
{
    obs::setMetricsEnabled(true);
    obs::Counter &counter = obs::counter("perf.micro.counter");
    for (auto _ : state)
        counter.add();
    obs::setMetricsEnabled(false);
    benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_ObsCounterAddEnabled)->ThreadRange(1, 8);

void
BM_ObsCounterAddDisabled(benchmark::State &state)
{
    obs::setMetricsEnabled(false);
    obs::Counter &counter = obs::counter("perf.micro.counter");
    for (auto _ : state)
        counter.add();
    benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_ObsCounterAddDisabled);

void
BM_ObsHistogramRecord(benchmark::State &state)
{
    obs::setMetricsEnabled(true);
    obs::Histogram &hist = obs::histogram("perf.micro.histogram");
    std::uint64_t v = 0;
    for (auto _ : state)
        hist.record(++v);
    obs::setMetricsEnabled(false);
    benchmark::DoNotOptimize(hist.snapshot().count);
}
BENCHMARK(BM_ObsHistogramRecord)->ThreadRange(1, 8);

void
BM_ObsSpanScopeEnabled(benchmark::State &state)
{
    obs::setMetricsEnabled(true); // span-end records stage.*.ns
    for (auto _ : state) {
        SMQ_TRACE_SPAN("perf.micro.span");
        benchmark::ClobberMemory();
    }
    obs::setMetricsEnabled(false);
}
BENCHMARK(BM_ObsSpanScopeEnabled);

void
BM_ObsSpanScopeDisabled(benchmark::State &state)
{
    obs::setMetricsEnabled(false);
    for (auto _ : state) {
        SMQ_TRACE_SPAN("perf.micro.span");
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_ObsSpanScopeDisabled);

// ---------------------------------------------------------------------
// default mode: staged wall-clock timings + BENCH_perf.json
// ---------------------------------------------------------------------

struct Stage
{
    std::string name;
    double wallMs = 0.0;
};

double
millisSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

template <typename Fn>
double
timeIt(Fn &&fn)
{
    auto start = std::chrono::steady_clock::now();
    fn();
    return millisSince(start);
}

/**
 * metrics-on vs metrics-off timing of a fixed simulation workload, in
 * alternating pairs: each time is a median over the pairs.
 */
struct ObsOverhead
{
    double offMs = 0.0;
    double onMs = 0.0;
    double frac = 0.0; ///< median per-pair on / off - 1, clamped at 0
    bool within2pct = true;
    /** Same workload under active tracing with a trace context
     *  installed — the distributed-tracing propagation path. */
    double propagationMs = 0.0;
    double propagationFrac = 0.0; ///< the same, vs metrics-on pairs
    bool propagationWithin2pct = true;
};

void
writeJson(const std::string &path, const std::vector<Stage> &stages,
          std::size_t jobs, double serialMs, double parallelMs,
          bool identical, const ObsOverhead &obs_overhead,
          std::uint64_t shots, std::uint64_t repetitions, bool full)
{
    const sim::kernels::KernelConfig kc = sim::kernels::kernelConfig();
    std::ofstream out(path, std::ios::trunc);
    out.precision(6);
    out << std::fixed;
    // Hardware concurrency straight from the runtime, not the (possibly
    // flag-overridden) job count the grid actually used.
    out << "{\n  \"threads_available\": "
        << std::thread::hardware_concurrency()
        << ",\n  \"grid_jobs\": " << jobs
        << ",\n  \"kernel\": {\"jobs\": " << kc.jobs
        << ", \"threshold\": " << kc.threshold << ", \"simd\": \""
        << (sim::kernels::usingAvx2() ? "avx2" : "scalar")
        << "\"},\n  \"config\": {\"shots\": " << shots
        << ", \"repetitions\": " << repetitions << ", \"full\": "
        << (full ? "true" : "false") << "},\n  \"stages\": [\n";
    for (std::size_t i = 0; i < stages.size(); ++i) {
        out << "    {\"name\": \"" << stages[i].name
            << "\", \"wall_ms\": " << stages[i].wallMs << "}"
            << (i + 1 < stages.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"obs_overhead\": {\n"
        << "    \"metrics_off_ms\": " << obs_overhead.offMs << ",\n"
        << "    \"metrics_on_ms\": " << obs_overhead.onMs << ",\n"
        << "    \"overhead_frac\": " << obs_overhead.frac << ",\n"
        << "    \"within_2pct\": "
        << (obs_overhead.within2pct ? "true" : "false") << ",\n"
        << "    \"propagation_ms\": " << obs_overhead.propagationMs
        << ",\n"
        << "    \"propagation_frac\": " << obs_overhead.propagationFrac
        << ",\n"
        << "    \"propagation_within_2pct\": "
        << (obs_overhead.propagationWithin2pct ? "true" : "false")
        << "\n  },\n"
        << "  \"fig2_grid\": {\n"
        << "    \"serial_ms\": " << serialMs << ",\n"
        << "    \"parallel_ms\": " << parallelMs << ",\n"
        << "    \"speedup\": "
        << (parallelMs > 0.0 ? serialMs / parallelMs : 0.0) << ",\n"
        << "    \"parallel_identical_to_serial\": "
        << (identical ? "true" : "false") << "\n  }\n}\n";
}

int
perfHarness(int argc, char **argv)
{
    std::size_t jobs = util::defaultJobs();
    bool full = false;
    std::string json_path = "BENCH_perf.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc)
            jobs = static_cast<std::size_t>(std::atoi(argv[++i]));
        else if (std::strncmp(argv[i], "--jobs=", 7) == 0)
            jobs = static_cast<std::size_t>(std::atoi(argv[i] + 7));
        else if (std::strcmp(argv[i], "--full") == 0)
            full = true;
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
    }
    if (jobs == 0)
        jobs = util::defaultJobs();

    bench::ObsSession obs_session("bench_perf", argc, argv);

    std::vector<Stage> stages;
    auto record = [&](const std::string &name, double ms) {
        stages.push_back({name, ms});
        std::cout << "  " << name << ": " << ms << " ms\n";
    };

    std::cout << "bench_perf: staged wall-clock timings ("
              << util::defaultJobs() << " hardware threads, grid jobs="
              << jobs << ")\n";

    // Transpilation across the full grid's inputs, cold then memoized.
    std::vector<device::Device> devices = device::allDevices();
    std::vector<core::BenchmarkPtr> suite = core::figure2Benchmarks();
    transpile::clearTranspileCache();
    auto transpile_all = [&] {
        for (const core::BenchmarkPtr &bench : suite) {
            for (const device::Device &dev : devices) {
                if (bench->numQubits() > dev.numQubits())
                    continue;
                for (const qc::Circuit &c : bench->circuits())
                    transpile::cachedTranspile(c, dev);
            }
        }
    };
    record("transpile_grid_cold", timeIt(transpile_all));
    record("transpile_grid_memoized", timeIt(transpile_all));

    // Dense-kernel stages.
    record("statevector_ghz20_ideal", timeIt([&] {
               core::GhzBenchmark ghz(20);
               benchmark::DoNotOptimize(
                   sim::idealDistribution(ghz.circuits()[0]));
           }));
    record("density_matrix_ghz9_exact_noise", timeIt([&] {
               core::GhzBenchmark ghz(9);
               benchmark::DoNotOptimize(sim::noisyDistribution(
                   ghz.circuits()[0], device::ibmMontreal().noise));
           }));
    // GHZ is Clifford: the planner sends it to the stabilizer tableau.
    record("stabilizer_ghz14_2000shots", timeIt([&] {
               core::GhzBenchmark ghz(14);
               sim::RunOptions ro;
               ro.shots = 2000;
               ro.noise = device::ibmMontreal().noise;
               stats::Rng rng(7);
               benchmark::DoNotOptimize(
                   sim::run(ghz.circuits()[0], ro, rng));
           }));
    {
        // bit_code_6d2r as the Fig. 2 grid runs it on IBM-Montreal: 11
        // qubits with mid-circuit measure and reset, one trajectory
        // per shot, 8 lanes a batch.
        const core::BitCodeBenchmark code =
            core::BitCodeBenchmark::alternating(6, 2);
        const device::Device montreal = device::ibmMontreal();
        const core::PreparedCircuits prepared =
            core::prepareCircuits(code, montreal, core::HarnessOptions{});
        record("trajectories_bitcode11_midcircuit_500shots", timeIt([&] {
                   sim::RunOptions ro;
                   ro.shots = 500;
                   ro.noise = montreal.noise;
                   stats::Rng rng(7);
                   benchmark::DoNotOptimize(
                       sim::run(prepared.circuits[0], ro, rng));
               }));
    }

    {
        // ghz_16 as the Fig. 2 grid runs it on IBM-Montreal: the routed
        // circuit is not Clifford and too wide for the density matrix,
        // so it runs terminal trajectories, one 2^16 lane a batch (5
        // trajectories of 20 shots). The widest trajectory cells of the
        // grid are these.
        const core::GhzBenchmark ghz(16);
        const device::Device montreal = device::ibmMontreal();
        const core::PreparedCircuits prepared =
            core::prepareCircuits(ghz, montreal, core::HarnessOptions{});
        const qc::Circuit &wide = prepared.circuits[0];
        const std::string token = prepared.plans[0].token();
        if (wide.numQubits() != 16 || token != "trajectory:width>dm-cutoff") {
            std::cerr << "bench_perf: ghz_16 on IBM-Montreal is " << token
                      << " at width " << wide.numQubits()
                      << ", not trajectory:width>dm-cutoff at width 16\n";
            return 1;
        }
        record("trajectories_ghz16_wide_100shots", timeIt([&] {
                   sim::RunOptions ro;
                   ro.shots = 100;
                   ro.noise = montreal.noise;
                   stats::Rng rng(7);
                   benchmark::DoNotOptimize(sim::run(wide, ro, rng));
               }));
    }

    {
        // The trajectory engine's idle passes alone: relax qubit q of
        // every lane, summing qubit q + 1's P(1) in the same pass, for
        // every q, at the shapes of the grid's widest trajectory cells
        // (one 2^16 lane; eight 2^11 lanes). Fixed Decay events, their
        // factors alternating with the inverses so the state stays put;
        // a third of the lanes also dephase.
        auto sweeps = [](std::size_t n, std::size_t lanes) {
            sim::StateLanes state(n, lanes);
            state.resetToZero(lanes);
            for (std::size_t q = 0; q < n; ++q)
                state.applyGate(qc::Gate(qc::GateType::RY,
                                         {static_cast<qc::Qubit>(q)},
                                         {0.3 + 0.1 * static_cast<double>(q)}));
            std::vector<sim::Relaxation> up(lanes), down(lanes);
            for (std::size_t l = 0; l < lanes; ++l) {
                up[l].damping = sim::Relaxation::Damping::Decay;
                up[l].keep0 = 1.001;
                up[l].keep1 = 0.999;
                up[l].dephase = l % 3 == 1;
                down[l] = up[l];
                down[l].keep0 = 1.0 / 1.001;
                down[l].keep1 = 1.0 / 0.999;
            }
            std::vector<double> p1;
            for (std::size_t s = 0; s < 40; ++s) {
                for (std::size_t q = 0; q < n; ++q)
                    state.relax(q, s % 2 ? down : up, (q + 1) % n, p1);
            }
            benchmark::DoNotOptimize(p1.data());
        };
        record("idle_passes_all_strides", timeIt([&] {
                   sweeps(16, 1);
                   sweeps(11, 8);
               }));
    }

    // Observability overhead: ten noisy GHZ-12 runs, eight on the
    // stabilizer tableau and two on trajectory lanes (~30 ms in all),
    // with the metric registry off and on. The instrumented sites in
    // the simulators and the pool are the real ones, so this measures
    // what a production run pays for leaving --metrics enabled. A pair
    // times both sides run by run, each run off then on or on then off
    // in turn, so the two sides share the host's slow moments; the
    // fraction is the median over 21 pairs of on / off - 1, clamped at
    // 0: a workload long enough, and pairs enough, to resolve the 2 %
    // budget on a shared host.
    ObsOverhead obs_overhead;
    {
        core::GhzBenchmark ghz(12);
        qc::Circuit circuit = ghz.circuits()[0];
        sim::RunOptions tableau;
        tableau.shots = 400;
        tableau.noise = device::ibmMontreal().noise;
        sim::RunOptions lanes = tableau;
        lanes.shots = 160;
        lanes.planner.force = sim::BackendKind::Trajectory;
        constexpr int kRuns = 10;
        auto run = [&](int r) {
            stats::Rng rng(11 + r % 8);
            benchmark::DoNotOptimize(
                sim::run(circuit, r < 8 ? tableau : lanes, rng));
        };
        for (int r = 0; r < kRuns; ++r)
            run(r); // warm caches before timing
        constexpr int kPairs = 21;
        auto median = [](std::vector<double> v) {
            std::sort(v.begin(), v.end());
            return v[v.size() / 2];
        };
        /**
         * Median over the pairs of test / base - 1, clamped at 0;
         * base(r) and test(r) time run r on their side.
         */
        auto pairs = [&](const auto &base, const auto &test, double &base_ms,
                         double &test_ms) {
            std::vector<double> bases, tests, ratios;
            for (int i = 0; i < kPairs; ++i) {
                double b = 0.0, t = 0.0;
                for (int r = 0; r < kRuns; ++r) {
                    if ((i + r) % 2 == 0) {
                        b += base(r);
                        t += test(r);
                    } else {
                        t += test(r);
                        b += base(r);
                    }
                }
                bases.push_back(b);
                tests.push_back(t);
                ratios.push_back(b > 0.0 ? t / b - 1.0 : 0.0);
            }
            base_ms = median(bases);
            test_ms = median(tests);
            return std::max(0.0, median(ratios));
        };
        auto timed = [&](bool metrics, int r) {
            obs::setMetricsEnabled(metrics);
            return timeIt([&] { run(r); });
        };
        obs_overhead.frac = pairs([&](int r) { return timed(false, r); },
                                  [&](int r) { return timed(true, r); },
                                  obs_overhead.offMs, obs_overhead.onMs);
        obs::setMetricsEnabled(true); // back on for the manifest
        obs_overhead.within2pct = obs_overhead.frac <= 0.02;
        std::cout << "  obs_overhead: off=" << obs_overhead.offMs
                  << " ms, on=" << obs_overhead.onMs
                  << " ms (medians of " << kPairs
                  << " pairs), frac=" << obs_overhead.frac
                  << (obs_overhead.within2pct
                          ? ""
                          : "  WARN: exceeds 2% budget")
                  << "\n";

        // Propagation path: the same runs with spans recorded and a
        // trace context installed (what every traced daemon job pays),
        // paired against metrics-on runs, so the delta is the
        // tracing+context cost alone, held to the same 2% budget by
        // `smq_sentinel check`. Tracing starts and stops outside the
        // timed region.
        const std::string trace_tmp = json_path + ".trace_tmp";
        std::filesystem::create_directories(trace_tmp);
        auto traced = [&](int r) {
            obs::startTracing(trace_tmp);
            double ms = 0.0;
            {
                obs::TraceContextScope context(obs::TraceContext::derive(
                    11, "ghz_12", "bench_perf"));
                ms = timeIt([&] { run(r); });
            }
            obs::stopTracing();
            return ms;
        };
        double on_ms = 0.0;
        obs_overhead.propagationFrac =
            pairs([&](int r) { return timeIt([&] { run(r); }); }, traced,
                  on_ms, obs_overhead.propagationMs);
        std::error_code cleanup;
        std::filesystem::remove_all(trace_tmp, cleanup);
        obs_overhead.propagationWithin2pct =
            obs_overhead.propagationFrac <= 0.02;
        std::cout << "  obs_propagation: traced="
                  << obs_overhead.propagationMs
                  << " ms, frac=" << obs_overhead.propagationFrac
                  << (obs_overhead.propagationWithin2pct
                          ? ""
                          : "  WARN: exceeds 2% budget")
                  << "\n";
    }

    // The Fig. 2 grid, serial then parallel, compared byte-for-byte.
    bench::Scale scale;
    scale.useCache = false;
    if (!full) {
        scale.defaultShots = 100;
        scale.repetitions = 2;
    }
    transpile::clearTranspileCache();
    scale.jobs = 1;
    bench::Fig2Grid serial_grid;
    double serial_ms =
        timeIt([&] { serial_grid = bench::computeFig2Grid(scale); });
    record("fig2_grid_serial", serial_ms);

    transpile::clearTranspileCache();
    scale.jobs = jobs;
    bench::Fig2Grid parallel_grid;
    double parallel_ms =
        timeIt([&] { parallel_grid = bench::computeFig2Grid(scale); });
    record("fig2_grid_parallel", parallel_ms);

    bool identical = bench::serializeGrid(serial_grid) ==
                     bench::serializeGrid(parallel_grid);
    std::cout << "  speedup: "
              << (parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0)
              << "x over " << jobs << " jobs; grids "
              << (identical ? "byte-identical" : "DIFFER (BUG)") << "\n";

    writeJson(json_path, stages, jobs, serial_ms, parallel_ms,
              identical, obs_overhead, scale.defaultShots,
              scale.repetitions, full);
    std::cout << "wrote " << json_path << "\n";
    obs_session.note("grid_identical", identical ? "true" : "false");
    obs_session.note("obs_overhead_within_2pct",
                     obs_overhead.within2pct ? "true" : "false");
    return identical ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--micro") == 0) {
            // hand the remaining flags to google-benchmark
            std::vector<char *> args;
            for (int j = 0; j < argc; ++j) {
                if (j != i)
                    args.push_back(argv[j]);
            }
            int bench_argc = static_cast<int>(args.size());
            benchmark::Initialize(&bench_argc, args.data());
            benchmark::RunSpecifiedBenchmarks();
            benchmark::Shutdown();
            return 0;
        }
    }
    return perfHarness(argc, argv);
}
