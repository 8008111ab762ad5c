/**
 * @file
 * The Fig. 2 grid and its two on-disk forms.
 *
 * In memory a grid is one Fig2Grid: GridRows (per-benchmark metadata)
 * holding one core::BenchmarkRun per device. On disk it is either
 *
 *  - the `smq-fig2-cache-v3` text (serializeGrid / parseGrid): the
 *    regenerators' grid cache, and what `smq_sentinel merge` writes,
 *    so a merged sharded sweep feeds Figs. 3 and 4 like a serial one;
 *  - the per-cell checkpoint journal of crash-tolerant grid execution
 *    (schema `smq-checkpoint-v1`): one JSONL record per completed grid
 *    cell, appended durably as the sweep progresses, so a killed run —
 *    SIGKILL, OOM, power loss — resumes from the last completed cell
 *    instead of from zero, and a sweep split over `--shard i/N`
 *    processes merges back into one grid afterwards.
 *
 * Journal layout: `DIR/cells.jsonl`, written with the same durability
 * discipline as the run-history store (obs::appendLineDurable — one
 * fsynced O_APPEND write per record, at most one truncated tail line
 * after a crash, which the loader tolerates). Record kinds:
 *
 *  - `header`: the workload key (config text, shard, device and
 *    benchmark lists). A journal is only resumable/mergeable when the
 *    header matches; resuming under a different config fails loudly
 *    instead of silently mixing results.
 *  - `row`: per-benchmark metadata (features, circuit stats). Every
 *    shard journals every row — rows are cheap, deterministic and
 *    label-derived, so identical across shards — which makes the
 *    merge a pure data fold needing no re-simulation.
 *  - `cell`: one (benchmark, device) outcome. `final` is true unless
 *    the cell was cut short by cooperative shutdown (isFinal);
 *    non-final cells keep their salvaged scores for inspection but
 *    are re-run on resume, preserving byte-identity with an
 *    uninterrupted sweep.
 */

#ifndef SMQ_REPORT_CHECKPOINT_HPP
#define SMQ_REPORT_CHECKPOINT_HPP

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/features.hpp"
#include "core/harness.hpp"

namespace smq::report {

/** Schema identifier of the journal records. */
inline constexpr const char *kCheckpointSchema = "smq-checkpoint-v1";
/** Journal file name inside a checkpoint directory. */
inline constexpr const char *kCheckpointFile = "cells.jsonl";

/**
 * Process exit codes of the resilient grid drivers, mirroring
 * sysexits.h so wrapping scripts can tell "rerun with --resume"
 * apart from "fix the disk" apart from "fix the command line".
 */
inline constexpr int kExitInterrupted = 75;  ///< EX_TEMPFAIL: resume me
inline constexpr int kExitStorageError = 74; ///< EX_IOERR: journal lost
inline constexpr int kExitConfigMismatch = 2; ///< usage / foreign journal

/** One benchmark instance evaluated across all devices. */
struct GridRow
{
    std::string benchmark;
    bool isErrorCorrection = false;
    core::FeatureVector features; ///< of the primary logical circuit
    core::ProgramStats stats;
    std::vector<core::BenchmarkRun> runs; ///< one per device
};

/** The full evaluation grid. */
struct Fig2Grid
{
    std::vector<std::string> deviceNames;
    std::vector<GridRow> rows;
};

/**
 * Canonical text serialization of a grid (the on-disk cache format).
 * The parallel-determinism tests compare serial and threaded grids
 * through this exact byte stream.
 */
std::string serializeGrid(const Fig2Grid &grid);

/**
 * Read serializeGrid's text into @p grid. @return false on a foreign
 * version line or a malformed body (the grid is then unspecified).
 */
bool parseGrid(std::istream &in, Fig2Grid &grid);

/**
 * The run-history values of a grid: `score.<benchmark>@<device>` →
 * mean score, for every scoreable cell with scores.
 */
std::map<std::string, double> gridScoreValues(const Fig2Grid &grid);

/**
 * Whether a journaled cell stands: only an uninterrupted outcome is
 * final. Interrupted cells carry salvage worth inspecting, but resume
 * re-runs them so the finished grid is byte-identical to an
 * uninterrupted sweep.
 */
inline bool
isFinal(const core::BenchmarkRun &run)
{
    return run.cause != core::FailureCause::Interrupted;
}

/** The workload key a journal belongs to. */
struct CheckpointHeader
{
    std::string tool;        ///< writing binary (informational)
    std::string config;      ///< canonical execution-config text
    std::size_t shardIndex = 0;
    std::size_t shardCount = 1;
    std::vector<std::string> devices;    ///< grid column order
    std::vector<std::string> benchmarks; ///< grid row order

    std::string toJsonLine() const;

    /**
     * Same workload: config text, device and benchmark lists and
     * shard count all equal. Shard *index* is deliberately excluded —
     * merge accepts sibling shards; resume checks the index itself.
     */
    bool sameWorkload(const CheckpointHeader &other) const;
};

/** The `row` journal record of @p row (its runs are not part of it). */
std::string journalLine(const GridRow &row);
/** The `cell` journal record of @p run. */
std::string journalLine(const core::BenchmarkRun &run);

/** Everything read back from one journal. */
struct CheckpointLoad
{
    bool exists = false;   ///< the journal file was present
    bool headerOk = false; ///< a parseable header record was found
    CheckpointHeader header;
    std::vector<GridRow> rows; ///< file order, duplicates kept; no runs
    /**
     * File order, duplicates kept. A record read with `final: false`
     * loads with cause Interrupted; `plan` is optional (journals
     * written before the planner existed parse with an empty plan).
     */
    std::vector<core::BenchmarkRun> cells;
    std::size_t skippedLines = 0; ///< unparseable lines dropped
    bool corruptTail = false; ///< last line unparseable (crash signature)
};

/**
 * Read `dir/cells.jsonl`. Missing file yields exists=false (fresh
 * start); corrupt lines — including the truncated tail a SIGKILL
 * leaves — are counted and skipped, never fatal. Records of foreign
 * `smq-checkpoint-v*` versions are skipped the same way.
 */
CheckpointLoad loadCheckpoint(const std::string &dir);

/**
 * Appends journal records durably (one fsynced O_APPEND write each,
 * safe under `--jobs N` concurrent cell workers). A default-built
 * writer is inactive: every append is a successful no-op, so call
 * sites need no branching.
 *
 * Write failures (ENOSPC, EDQUOT, ...) are sticky: the first errno
 * text is kept in error(), the `checkpoint.append.failures` counter
 * is bumped, and the driver turns a non-empty error into the
 * kExitStorageError outcome.
 *
 * Deterministic fault hooks for the kill/resume tests:
 *  - SMQ_CRASH_AFTER_CELLS=n: raise SIGKILL after the n-th journaled
 *    cell — a real unclean death at an exact journal boundary.
 *  - SMQ_STOP_AFTER_CELLS=n: raise SIGTERM instead, driving the
 *    installed cooperative-shutdown path at a deterministic point.
 */
class CheckpointWriter
{
  public:
    CheckpointWriter() = default;
    /** Journal into @p dir (created if needed). */
    explicit CheckpointWriter(const std::string &dir);
    /** Movable so a driver can build it conditionally; not shared. */
    CheckpointWriter(CheckpointWriter &&other) noexcept;
    CheckpointWriter &operator=(CheckpointWriter &&other) noexcept;

    bool active() const { return !path_.empty(); }

    /** Start a fresh journal: truncate and write the header record. */
    bool writeHeader(const CheckpointHeader &header);

    bool appendRow(const GridRow &row);
    /** Thread-safe: cell workers of a `--jobs N` sweep call this. */
    bool appendCell(const core::BenchmarkRun &run);

    /** First append/truncate failure ("write: No space left..."). */
    std::string error() const;

    /** Cells journaled by this writer (drives the fault hooks). */
    std::size_t cellsJournaled() const;

  private:
    bool append(const std::string &line);

    std::string path_;
    mutable std::mutex mutex_; ///< guards error_
    std::string error_;
    std::atomic<std::size_t> cells_{0};
    long crashAfterCells_ = -1;
    long stopAfterCells_ = -1;
};

/** A grid reassembled from shard journals. */
struct MergedGrid
{
    CheckpointHeader header; ///< shard index/count of the first journal
    /**
     * Header device and benchmark order. A cell no journal finished is
     * the Skipped(Interrupted) placeholder without scores.
     */
    Fig2Grid grid;
    std::vector<std::string> shardsSeen;  ///< "i/N" per input journal
    std::vector<std::size_t> missingShards; ///< indices with no journal
    std::vector<std::string> missingCells;  ///< "bench@device" gaps
    std::vector<std::string> overlapCells;  ///< final in >1 journal
    std::size_t salvagedDropped = 0; ///< non-final records superseded

    /** Every grid cell has a final outcome from exactly one pass. */
    bool complete() const
    {
        return missingCells.empty() && missingShards.empty();
    }
};

/**
 * Fold shard journals into one grid. All journals must share a
 * workload (sameWorkload) and agree cell-for-cell: a (benchmark,
 * device) pair final in two journals with *identical* journal lines
 * is reported as an overlap (harmless — e.g. a shard run twice);
 * *conflicting* content throws, as does a workload mismatch or a
 * journal with no readable header. Missing shards and cells are
 * reported, not fatal: an incomplete merge still shows what exists.
 * serializeGrid of a complete merge is byte-equal to the cache text
 * of the same sweep run serially.
 *
 * @throws std::runtime_error on mismatch/conflict/empty input.
 */
MergedGrid mergeCheckpoints(const std::vector<std::string> &dirs);

} // namespace smq::report

#endif // SMQ_REPORT_CHECKPOINT_HPP
