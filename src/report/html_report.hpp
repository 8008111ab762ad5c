/**
 * @file
 * Self-contained HTML run reports: one dependency-free static page
 * rendered from the run-history store and (optionally) a trace
 * directory. No external JS/CSS/fonts — everything including the
 * span waterfall and trend sparklines is inline SVG, so the file can
 * be archived next to the numbers it describes and opened offline
 * years later.
 *
 * Sections, in order:
 *  1. run header — config/provenance of the newest record,
 *  2. span waterfall — per-thread lanes from each `<dir>/trace.json`,
 *  3. stage table — per-stage rollups of the newest record, each row
 *     carrying a mean-duration trend sparkline across the history,
 *  4. score-vs-device matrix (Fig. 2 style) from `score.<b>@<d>`
 *     values,
 *  5. counter table and store health footer (records, skipped lines,
 *     schema versions).
 */

#ifndef SMQ_REPORT_HTML_REPORT_HPP
#define SMQ_REPORT_HTML_REPORT_HPP

#include <string>
#include <vector>

#include "report/history.hpp"

namespace smq::report {

/** Inputs for renderHtmlReport(). */
struct ReportInputs
{
    /** History records, oldest first (as loadHistory returns them). */
    std::vector<HistoryRecord> history;
    /**
     * One trace.json directory per process (e.g. a submit client plus
     * a daemon), or none for no waterfall. Each directory becomes one
     * process in the waterfall, its spans time-normalized to its own
     * first span so per-process clock epochs (steady-clock zero
     * differs between processes) cannot make the merged view
     * nondeterministic.
     */
    std::vector<std::string> traceDirs;
    std::string title = "SupermarQ run report";
    /** Store health, forwarded into the footer. */
    std::size_t skippedLines = 0;
};

/** Escape @p raw for HTML text/attribute contexts. */
std::string htmlEscape(std::string_view raw);

/**
 * Render the full page. Never throws on missing/corrupt trace input —
 * the waterfall section degrades to an explanatory note, because a
 * report generator must not fail the pipeline it reports on.
 */
std::string renderHtmlReport(const ReportInputs &inputs);

/**
 * Stitch the trace.json files under @p traceDirs into one Chrome
 * trace-event document (`{"traceEvents":[...]}`): directory i becomes
 * pid i+1, every directory's timestamps are normalized to its own
 * first span, and events are ordered by (trace id, pid, ts, tid,
 * -dur) so spans sharing a trace id — one submit's client, queue-wait,
 * job and kernel spans across processes — form one contiguous tree.
 * The output is a pure function of the input span data (never of
 * process start times), so re-running identical work reproduces it
 * byte-for-byte. Unreadable directories are skipped with a line in
 * @p note; never throws.
 */
std::string renderMergedChromeTrace(
    const std::vector<std::string> &traceDirs, std::string &note);

} // namespace smq::report

#endif // SMQ_REPORT_HTML_REPORT_HPP
