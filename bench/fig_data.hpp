/**
 * @file
 * Shared machinery for the experiment regenerators: the Fig. 2 grid
 * (every benchmark instance executed on every device model) that
 * Figs. 2, 3 and 4 are all derived from.
 */

#ifndef SMQ_BENCH_FIG_DATA_HPP
#define SMQ_BENCH_FIG_DATA_HPP

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/correlation.hpp"
#include "core/harness.hpp"
#include "core/suites.hpp"
#include "jobs/report.hpp"
#include "report/checkpoint.hpp"
#include "sim/backend.hpp"
#include "util/cli.hpp"

namespace smq::bench {

// The grid types and their cache writer live beside the checkpoint
// journal (report/checkpoint.hpp); the regenerators keep these names.
using report::Fig2Grid;
using report::GridRow;
using report::serializeGrid;

/** Execution scale for the regenerators. */
struct Scale
{
    /** Paper shot counts: IBM 2000, AQT 1024, IonQ 35 (Sec. VI). */
    bool paperShots = false;
    std::uint64_t defaultShots = 500; ///< used when !paperShots
    std::size_t repetitions = 3;
    /**
     * Demonstrate the fault-tolerant job layer: inject a
     * representative fault schedule (seeded, reproducible) so the
     * score matrix shows mixed Ok/Partial/Failed cells. Disables the
     * on-disk cache.
     */
    bool faults = false;
    std::uint64_t faultSeed = 2022;
    /**
     * Worker threads for the (benchmark x device) grid cells
     * (--jobs N; 0 = one per hardware thread). Every cell derives its
     * randomness from its labels, so any jobs value produces a grid
     * byte-identical to the serial one.
     */
    std::size_t jobs = 1;
    /** Read/write the on-disk grid cache (tests disable it). */
    bool useCache = true;
    /**
     * Trace output directory (--trace DIR). When non-empty the
     * regenerator records scoped spans and writes DIR/trace.json
     * (Chrome about://tracing format) plus DIR/events.jsonl on exit.
     * Empty = tracing off (the default; record sites cost one relaxed
     * atomic load).
     */
    std::string traceDir;
    /**
     * Metric counters/histograms (--metrics / --no-metrics). The
     * regenerators leave this on so their run manifests carry counter
     * rollups; instrumentation never perturbs simulation results at
     * any jobs value.
     */
    bool metrics = true;
    /**
     * Run-history store to append this run's flattened record to on
     * exit (--history FILE). Empty = no append (the default).
     */
    std::string historyPath;
    /**
     * Live progress (--progress / --heartbeat SECS). `progress`
     * enables the single-line TTY reporter; heartbeatSecs > 0 enables
     * the JSONL heartbeat stream instead (CI logs). Both off by
     * default; neither perturbs results at any jobs value.
     */
    bool progress = false;
    double heartbeatSecs = 0.0;
    /**
     * Grid partition (--shard i/N): this process executes only the
     * cells core::shardOwnsCell assigns to shard i; the others are
     * recorded as Skipped with a detail naming the owner. Assignment
     * is a pure function of the cell's labels, so the union over all
     * N shard journals is exactly one pass over the grid, regardless
     * of who ran when. Default 0/1: own everything.
     */
    core::ShardSpec shard;
    /**
     * Checkpoint journal directory (--checkpoint DIR): start a fresh
     * `smq-checkpoint-v1` journal in DIR and append every completed
     * cell durably. Empty = no journal.
     */
    std::string checkpointDir;
    /**
     * Resume directory (--resume DIR): load DIR's journal, reuse its
     * final cells verbatim (byte-identical to re-running them), re-run
     * interrupted ones, and keep appending to the same journal. A
     * journal from a different config/shard is refused. When DIR has
     * no journal yet this degrades to --checkpoint DIR.
     */
    std::string resumeDir;
    /**
     * Simulation engine (--backend NAME): Auto (the default) lets the
     * per-circuit planner pick the cheapest faithful backend; naming
     * statevector / density-matrix / stabilizer / trajectory forces
     * every cell through that engine. A forced backend keys its own
     * cache file and checkpoint config, so grids from different
     * engines never mix.
     */
    sim::BackendKind backend = sim::BackendKind::Auto;
};

/**
 * Parse the regenerator flags --paper / --quick / --faults / --jobs N /
 * --trace DIR / --metrics / --no-metrics / --history FILE / --progress
 * / --heartbeat SECS / --shard i/N / --checkpoint DIR / --resume DIR /
 * --backend NAME, plus the caller's own @p flags, over @p defaults. An
 * unknown flag, a missing value or a malformed number, shard or
 * backend exits with report::kExitConfigMismatch (2, usage) before
 * anything runs, instead of silently running another configuration.
 */
Scale scaleFromArgs(int argc, char **argv, util::Flags flags = {},
                    Scale defaults = {});

/**
 * Per-binary observability session: one of these at the top of a
 * regenerator's main() turns the Scale's observability knobs into
 * registry + tracer state, and on destruction flushes the trace files
 * and writes `<tool>_manifest.json` (schema smq-run-manifest-v1) next
 * to the tool's output.
 *
 * The constructor resets the metric registry, so one process = one
 * manifest's worth of counts.
 */
class ObsSession
{
public:
    /** Session for a regenerator driven by a parsed Scale. */
    ObsSession(std::string tool, const Scale &scale);
    /** Convenience: parse the Scale from the command line. */
    ObsSession(std::string tool, int argc, char **argv);
    ObsSession(const ObsSession &) = delete;
    ObsSession &operator=(const ObsSession &) = delete;
    /** Flushes traces and writes the manifest; never throws. */
    ~ObsSession();

    /** Attach a tool-specific fact to the manifest's `extra` map. */
    void note(const std::string &key, const std::string &value);

    /**
     * Attach a numeric fact to this run's history record (no effect on
     * the manifest): `score.<bench>@<device>`, `wall_ms`, ...
     */
    void value(const std::string &key, double v);

    /** Path the manifest will be written to: `<tool>_manifest.json`. */
    std::string manifestPath() const;

private:
    std::string tool_;
    Scale scale_;
    std::map<std::string, std::string> extra_;
    std::map<std::string, double> values_;
};

/**
 * How a grid computation ended, beyond the grid itself: the resilience
 * outcomes a driver must turn into its process exit code.
 */
struct GridOutcome
{
    Fig2Grid grid;
    /** The grid came from the fig2 cache: no cell ran. */
    bool fromCache = false;
    /**
     * Cooperative shutdown (SIGINT/SIGTERM, or SMQ_STOP_AFTER_CELLS)
     * cut the sweep short: unclaimed cells are Skipped/Interrupted,
     * in-flight repetitions were salvaged through the partial-result
     * path, and the journal holds everything completed so far.
     */
    bool interrupted = false;
    /** A journal write failed (ENOSPC, ...); detail holds the errno. */
    bool storageError = false;
    std::string storageDetail;
    /** --resume pointed at a journal of a different workload/shard. */
    bool configMismatch = false;
    std::string mismatchDetail;

    /**
     * Driver exit code: kExitConfigMismatch (2), kExitStorageError
     * (74), kExitInterrupted (75) — in that precedence — or 0.
     */
    int exitCode() const;
};

/**
 * Execute @p suite on @p devices with the full resilience machinery:
 * shard partitioning, checkpoint journaling, resume, cooperative
 * shutdown and the memory-budget guard. Installs the stop handlers;
 * never touches the fig2 cache (that is computeFig2Grid's layer).
 */
GridOutcome computeGrid(const Scale &scale,
                        const std::vector<core::BenchmarkPtr> &suite,
                        const std::vector<device::Device> &devices);

/**
 * Execute the paper's benchmark suite on the nine device models.
 *
 * The grid is cached on disk (fig2_cache_*.txt in the working
 * directory) keyed by the scale, so the Fig. 3 / Fig. 4 regenerators
 * reuse a Fig. 2 run instead of re-simulating everything. The cache
 * is bypassed whenever sharding/checkpointing is active (a shard's
 * grid is deliberately partial) and never written for an interrupted
 * or storage-degraded run.
 */
GridOutcome computeFig2GridOutcome(const Scale &scale);

/** computeFig2GridOutcome for callers without resilience flags. */
Fig2Grid computeFig2Grid(const Scale &scale);

/**
 * Write the cell report, one "  benchmark @ device = cell" line per
 * cell in grid order, to @p out: what the grid front ends print to
 * stderr once they have computed a grid.
 */
void printCellReport(std::ostream &out, const Fig2Grid &grid);

/** Fold a grid into per-device scored instances for Figs. 3 and 4. */
std::vector<std::vector<core::ScoredInstance>>
scoredInstancesPerDevice(const Fig2Grid &grid);

/**
 * Record every scoreable cell's mean score on @p session as a
 * `score.<benchmark>@<device>` history value, so the run-history
 * store (and the HTML report's Fig. 2 matrix) carries the scores.
 */
void noteGridScores(ObsSession &session, const Fig2Grid &grid);

} // namespace smq::bench

#endif // SMQ_BENCH_FIG_DATA_HPP
