/**
 * @file
 * The `smq_sentinel` command-line surface, packaged as a library
 * function so tests can drive subcommands in-process and assert exit
 * codes without spawning binaries.
 *
 * Subcommands:
 *
 *     check PERF_JSON --baseline FILE [--threshold F]
 *           [--min-samples N] [--window N] [--tool NAME]
 *         Compare a fresh BENCH_perf.json against the history store.
 *     baseline PERF_JSON [--history FILE]
 *         Promote the current perf snapshot into the store.
 *     ingest DIR [--history FILE]
 *         Scan DIR recursively for `*_manifest.json` files and append
 *         each as a history record (sorted path order, deterministic).
 *     report [--history FILE] [--trace DIR] [--out FILE] [--title T]
 *         Render the self-contained HTML run report.
 *     compact [--history FILE] [--keep N]
 *         Rewrite the store atomically, dropping corrupt lines.
 *     merge DIR... [--out FILE] [--history FILE]
 *         Fold shard checkpoint journals into one grid, written as the
 *         fig2 cache text, flagging overlapping and missing
 *         shards/cells.
 *
 * Exit codes: 0 success (including grace passes), 1 perf regression
 * or incomplete merge, 2 usage or I/O error.
 */

#ifndef SMQ_REPORT_SENTINEL_CLI_HPP
#define SMQ_REPORT_SENTINEL_CLI_HPP

#include <iosfwd>
#include <string>
#include <vector>

namespace smq::report {

/** Exit codes of sentinelMain (stable contract, used by smq_check). */
enum SentinelExit : int
{
    kSentinelOk = 0,
    kSentinelRegression = 1,
    kSentinelUsage = 2,
};

/**
 * Run one sentinel invocation. @p args excludes the program name;
 * diagnostics go to @p out / @p err.
 */
int sentinelMain(const std::vector<std::string> &args, std::ostream &out,
                 std::ostream &err);

} // namespace smq::report

#endif // SMQ_REPORT_SENTINEL_CLI_HPP
