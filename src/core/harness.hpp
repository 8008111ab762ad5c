/**
 * @file
 * The benchmark execution harness: generate -> transpile -> execute ->
 * score, standing in for the paper's SuperstaQ-based collection flow
 * (Sec. V). Devices are the calibrated noise models of device.hpp.
 *
 * runBenchmark() is the direct synchronous path; the fault-tolerant
 * job layer (jobs/scheduler.hpp) builds on the same prepareCircuits()
 * / runRepetition() primitives and adds retries, deadlines, capability
 * gating and partial-result salvage.
 */

#ifndef SMQ_CORE_HARNESS_HPP
#define SMQ_CORE_HARNESS_HPP

#include <optional>
#include <string>
#include <vector>

#include "core/benchmark.hpp"
#include "core/status.hpp"
#include "device/device.hpp"
#include "obs/manifest.hpp"
#include "sim/runner.hpp"
#include "stats/descriptive.hpp"
#include "transpile/transpiler.hpp"

namespace smq::core {

/** Execution knobs mirroring the paper's methodology. */
struct HarnessOptions
{
    std::uint64_t shots = 2000;  ///< per circuit per repetition
    std::size_t repetitions = 3; ///< independent runs for error bars
    std::uint64_t seed = 12345;
    /**
     * Worker threads for the repetition loop (1 = serial). Each
     * repetition draws from its own seed-derived stream, so any jobs
     * value produces byte-identical scores.
     */
    std::size_t jobs = 1;
    transpile::TranspileOptions transpile;
    /**
     * Largest compacted register the simulator accepts; benchmarks
     * whose routed circuits exceed it are reported as "too large",
     * like the X markers of Fig. 2.
     */
    std::size_t maxSimQubits = 22;
    /**
     * Planner knobs. planner.force (--backend) forces an engine; Auto
     * lets the planner pick the cheapest faithful one per circuit.
     */
    sim::PlannerConfig planner;
};

/** Outcome of running one benchmark on one device. */
struct BenchmarkRun
{
    std::string benchmark;
    std::string device;
    RunStatus status = RunStatus::Ok;
    FailureCause cause = FailureCause::None;
    std::string detail;               ///< human-readable event trail
    bool tooLarge = false;            ///< status == TooLarge (Fig. 2's X)
    std::vector<double> scores;       ///< one per completed repetition
    stats::Summary summary;           ///< over scores (valid if scoreable)
    std::size_t plannedRepetitions = 0;
    std::size_t attempts = 0;         ///< submissions incl. retries
    /**
     * Error-bar widening for salvaged results: sqrt(planned/completed)
     * repetitions (1 for complete runs). Reports display
     * stddev * errorBarScale.
     */
    double errorBarScale = 1.0;
    std::size_t physicalTwoQubitGates = 0; ///< post-transpile
    std::size_t swapsInserted = 0;
    /**
     * Compact plan record: the unique backend-plan tokens of the
     * prepared circuits joined with '+', e.g. "stabilizer:clifford"
     * or "trajectory:width>dm-cutoff". Empty when the cell never
     * reached planning (capability skips, register too wide).
     */
    std::string plan;
};

/**
 * A benchmark's circuits transpiled to a device and compacted for
 * simulation, with the routing cost totals. When the routed register
 * exceeds maxSimQubits, tooLarge is set and circuits/counters are
 * empty (no partially-accumulated totals are ever reported).
 */
struct PreparedCircuits
{
    std::vector<qc::Circuit> circuits;
    /** One backend plan per circuit (same order), from planCircuit. */
    std::vector<sim::Plan> plans;
    bool tooLarge = false;
    std::size_t physicalTwoQubitGates = 0;
    std::size_t swapsInserted = 0;

    /** Unique plan tokens joined with '+' (the BenchmarkRun record). */
    std::string planSummary() const;
};

/** Transpile + compact every circuit of @p benchmark for @p device. */
PreparedCircuits prepareCircuits(const Benchmark &benchmark,
                                 const device::Device &device,
                                 const HarnessOptions &options);

/**
 * Execute one scoring repetition over prepared circuits: run each for
 * @p shots under @p noise and score the histograms.
 * @pre prepared.tooLarge is false.
 */
double runRepetition(const Benchmark &benchmark,
                     const PreparedCircuits &prepared,
                     const sim::NoiseModel &noise, std::uint64_t shots,
                     stats::Rng &rng,
                     const sim::FaultHook &faultHook = {},
                     const sim::PlannerConfig &planner = {});

/** Run one benchmark on one device (no retries; throws on bad input). */
BenchmarkRun runBenchmark(const Benchmark &benchmark,
                          const device::Device &device,
                          const HarnessOptions &options = {});

/**
 * Execute a benchmark's circuits noiselessly (sanity baseline: every
 * SupermarQ benchmark must score ~1 on a perfect machine).
 *
 * @throws std::invalid_argument when shots == 0 or the benchmark
 *   needs more than @p maxSimQubits qubits (a 30-qubit statevector
 *   would exhaust memory long before producing a score).
 */
double noiselessScore(const Benchmark &benchmark, std::uint64_t shots,
                      std::uint64_t seed = 7,
                      std::size_t maxSimQubits = 22);

/**
 * Capture the current metric-registry state into a run manifest whose
 * configuration block reflects @p options, stamped with the built-in
 * device table version. The standard provenance record for programs
 * driven by HarnessOptions (the examples); the regenerators use
 * bench::ObsSession, which does the same from a bench::Scale.
 */
obs::RunManifest makeRunManifest(const std::string &tool,
                                 const HarnessOptions &options);

} // namespace smq::core

#endif // SMQ_CORE_HARNESS_HPP
