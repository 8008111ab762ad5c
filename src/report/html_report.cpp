#include "report/html_report.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>

#include "obs/json.hpp"

namespace smq::report {

namespace {

/**
 * Validated categorical palette (fixed slot order, light surface).
 * Identity never rides on color alone: every mark also carries its
 * name in a <title> tooltip and the legend. Past eight distinct span
 * names the remainder folds into neutral gray rather than cycling.
 */
constexpr const char *kSeriesColors[] = {
    "#2a78d6", "#eb6834", "#1baf7a", "#eda100",
    "#e87ba4", "#008300", "#4a3aa7", "#e34948"};
constexpr std::size_t kSeriesColorCount = 8;
constexpr const char *kFoldColor = "#9aa0a6";
/** Single-series marks (sparklines) use categorical slot 1. */
constexpr const char *kAccentColor = "#2a78d6";

/** Span waterfall size cap; the report states what it dropped. */
constexpr std::size_t kMaxWaterfallSpans = 400;

struct TraceSpan
{
    std::string name;
    double tsUs = 0.0;
    double durUs = 0.0;
    std::uint64_t tid = 0;
    std::size_t process = 0; ///< index of the owning trace directory
    std::string traceId;     ///< args["trace.id"], empty when untagged
};

std::string
fmt(double value, int precision = 2)
{
    std::ostringstream out;
    out << std::fixed << std::setprecision(precision) << value;
    return out.str();
}

/** First-seen-order color assignment (fixed slots, never cycled). */
class SeriesColors
{
  public:
    const char *colorOf(const std::string &name)
    {
        auto it = slots_.find(name);
        if (it == slots_.end()) {
            std::size_t slot = slots_.size();
            it = slots_.emplace(name, slot).first;
            order_.push_back(name);
        }
        return it->second < kSeriesColorCount
                   ? kSeriesColors[it->second]
                   : kFoldColor;
    }
    const std::vector<std::string> &order() const { return order_; }

  private:
    std::map<std::string, std::size_t> slots_;
    std::vector<std::string> order_;
};

/** trace.json -> spans; empty + note on any problem (never throws). */
std::vector<TraceSpan>
loadTraceSpans(const std::string &traceDir, std::string &note)
{
    std::vector<TraceSpan> spans;
    const std::string path = traceDir + "/trace.json";
    std::ifstream in(path);
    if (!in) {
        note = "no trace.json under " + traceDir;
        return spans;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    try {
        obs::JsonValue root = obs::parseJson(buffer.str());
        const obs::JsonValue *events = root.find("traceEvents");
        if (events == nullptr) {
            note = path + " has no traceEvents";
            return spans;
        }
        for (const obs::JsonValue &e : events->array) {
            TraceSpan span;
            span.name = e.at("name").asString();
            span.tsUs = e.at("ts").asDouble();
            span.durUs = e.at("dur").asDouble();
            span.tid = e.at("tid").asU64();
            if (const obs::JsonValue *args = e.find("args")) {
                if (const obs::JsonValue *id = args->find("trace.id"))
                    span.traceId = id->asString();
            }
            spans.push_back(std::move(span));
        }
        if (spans.empty())
            note = path + " recorded no spans (fully cached run?)";
    } catch (const std::exception &err) {
        note = std::string("could not parse ") + path + ": " +
               err.what();
        spans.clear();
    }
    return spans;
}

/**
 * Load every directory as one process, normalizing each directory's
 * timestamps to its own earliest span. Steady-clock epochs differ
 * between processes, so cross-process offsets are meaningless noise —
 * zeroing them per process is what makes the stitched view (and the
 * merged Chrome trace) reproducible across runs.
 */
std::vector<TraceSpan>
loadMultiProcessSpans(const std::vector<std::string> &traceDirs,
                      std::string &note)
{
    std::vector<TraceSpan> all;
    std::string notes;
    for (std::size_t p = 0; p < traceDirs.size(); ++p) {
        std::string dir_note;
        std::vector<TraceSpan> spans =
            loadTraceSpans(traceDirs[p], dir_note);
        if (!dir_note.empty())
            notes += (notes.empty() ? "" : "; ") + dir_note;
        if (spans.empty())
            continue;
        double min_ts = spans.front().tsUs;
        for (const TraceSpan &s : spans)
            min_ts = std::min(min_ts, s.tsUs);
        for (TraceSpan &s : spans) {
            s.tsUs -= min_ts;
            s.process = p;
            all.push_back(std::move(s));
        }
    }
    if (all.empty() && notes.empty())
        notes = "no spans in any trace directory";
    note = notes;
    return all;
}

void
renderWaterfall(std::ostream &out, std::vector<TraceSpan> spans,
                const std::string &note)
{
    out << "<h2>Span waterfall</h2>\n";
    if (spans.empty()) {
        out << "<p class=\"muted\">" << htmlEscape(note)
            << " &mdash; run with <code>--trace DIR</code> to get a "
               "waterfall.</p>\n";
        return;
    }
    std::size_t dropped = 0;
    if (spans.size() > kMaxWaterfallSpans) {
        std::sort(spans.begin(), spans.end(),
                  [](const TraceSpan &a, const TraceSpan &b) {
                      return a.durUs > b.durUs;
                  });
        dropped = spans.size() - kMaxWaterfallSpans;
        spans.resize(kMaxWaterfallSpans);
    }
    std::sort(spans.begin(), spans.end(),
              [](const TraceSpan &a, const TraceSpan &b) {
                  if (a.tsUs != b.tsUs)
                      return a.tsUs < b.tsUs;
                  if (a.process != b.process)
                      return a.process < b.process;
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  return a.durUs > b.durUs;
              });

    double min_ts = spans.front().tsUs, max_end = 0.0;
    bool multi_process = false;
    std::set<std::pair<std::size_t, std::uint64_t>> tid_set;
    for (const TraceSpan &s : spans) {
        min_ts = std::min(min_ts, s.tsUs);
        max_end = std::max(max_end, s.tsUs + s.durUs);
        tid_set.insert({s.process, s.tid});
        multi_process = multi_process || s.process != 0;
    }
    const double span_us = std::max(max_end - min_ts, 1.0);
    // One lane per (process, thread): a stitched multi-process trace
    // keeps each process's threads in their own rows.
    std::map<std::pair<std::size_t, std::uint64_t>, std::size_t> lane;
    for (const auto &key : tid_set)
        lane.emplace(key, lane.size());

    const double plot_x = 64.0, plot_w = 880.0;
    const double lane_h = 18.0, lane_gap = 4.0;
    const double plot_h =
        static_cast<double>(lane.size()) * (lane_h + lane_gap);
    const double height = plot_h + 34.0;

    SeriesColors colors;
    out << "<svg width=\"960\" height=\"" << fmt(height, 0)
        << "\" role=\"img\" aria-label=\"span waterfall\">\n";
    for (const auto &[key, row] : lane) {
        const double y =
            static_cast<double>(row) * (lane_h + lane_gap);
        out << "<text x=\"4\" y=\"" << fmt(y + lane_h - 5.0, 1)
            << "\" class=\"axis\">";
        if (multi_process)
            out << "p" << key.first << "/";
        out << "t" << key.second << "</text>\n";
    }
    for (const TraceSpan &s : spans) {
        const double x =
            plot_x + (s.tsUs - min_ts) / span_us * plot_w;
        const double w =
            std::max(s.durUs / span_us * plot_w, 0.75);
        const double y =
            static_cast<double>(lane.at({s.process, s.tid})) *
            (lane_h + lane_gap);
        out << "<rect x=\"" << fmt(x, 2) << "\" y=\"" << fmt(y, 1)
            << "\" width=\"" << fmt(w, 2) << "\" height=\""
            << fmt(lane_h, 0) << "\" rx=\"2\" fill=\""
            << colors.colorOf(s.name) << "\"><title>"
            << htmlEscape(s.name) << ": " << fmt(s.durUs / 1000.0, 3)
            << " ms (";
        if (multi_process)
            out << "process " << s.process << ", ";
        out << "thread " << s.tid;
        if (!s.traceId.empty())
            out << ", trace " << htmlEscape(s.traceId);
        out << ")</title></rect>\n";
    }
    // Recessive time axis: baseline plus end labels only.
    out << "<line x1=\"" << fmt(plot_x, 0) << "\" y1=\""
        << fmt(plot_h + 6.0, 1) << "\" x2=\""
        << fmt(plot_x + plot_w, 0) << "\" y2=\"" << fmt(plot_h + 6.0, 1)
        << "\" stroke=\"#d7d7d7\"/>\n"
        << "<text x=\"" << fmt(plot_x, 0) << "\" y=\""
        << fmt(plot_h + 22.0, 1) << "\" class=\"axis\">0 ms</text>\n"
        << "<text x=\"" << fmt(plot_x + plot_w, 0) << "\" y=\""
        << fmt(plot_h + 22.0, 1)
        << "\" class=\"axis\" text-anchor=\"end\">"
        << fmt(span_us / 1000.0, 1) << " ms</text>\n</svg>\n";

    out << "<p class=\"muted\">";
    for (const std::string &name : colors.order()) {
        out << "<span class=\"swatch\" style=\"background:"
            << colors.colorOf(name) << "\"></span>"
            << htmlEscape(name) << " &nbsp; ";
    }
    out << "</p>\n";
    if (dropped > 0) {
        out << "<p class=\"muted\">showing the " << kMaxWaterfallSpans
            << " longest spans; " << dropped
            << " shorter spans omitted.</p>\n";
    }
}

/** Mean-ms trend of @p stage across @p series records, as inline SVG. */
std::string
sparkline(const std::vector<const HistoryRecord *> &series,
          const std::string &stage)
{
    std::vector<double> points;
    for (const HistoryRecord *rec : series) {
        auto it = rec->stages.find(stage);
        if (it == rec->stages.end() || it->second.count == 0)
            continue;
        points.push_back(static_cast<double>(it->second.totalNs) /
                         static_cast<double>(it->second.count) / 1e6);
    }
    if (points.size() > 40)
        points.erase(points.begin(),
                     points.end() - 40); // newest 40 runs
    if (points.size() < 2)
        return "<span class=\"muted\">&ndash;</span>";
    const double lo = *std::min_element(points.begin(), points.end());
    const double hi = *std::max_element(points.begin(), points.end());
    const double range = std::max(hi - lo, 1e-9);
    const double w = 120.0, h = 26.0, pad = 3.0;
    std::ostringstream svg;
    svg << "<svg width=\"120\" height=\"26\" role=\"img\" "
           "aria-label=\"trend\"><title>"
        << points.size() << " runs: " << fmt(lo, 2) << "&ndash;"
        << fmt(hi, 2) << " ms</title><polyline fill=\"none\" stroke=\""
        << kAccentColor << "\" stroke-width=\"2\" points=\"";
    double last_x = 0.0, last_y = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        last_x = pad + static_cast<double>(i) /
                           static_cast<double>(points.size() - 1) *
                           (w - 2.0 * pad);
        last_y = h - pad - (points[i] - lo) / range * (h - 2.0 * pad);
        svg << fmt(last_x, 1) << "," << fmt(last_y, 1) << " ";
    }
    svg << "\"/><circle cx=\"" << fmt(last_x, 1) << "\" cy=\""
        << fmt(last_y, 1) << "\" r=\"2.5\" fill=\"" << kAccentColor
        << "\"/></svg>";
    return svg.str();
}

void
renderStageTable(std::ostream &out, const HistoryRecord &latest,
                 const std::vector<const HistoryRecord *> &series)
{
    out << "<h2>Stages (newest run, with trend across "
        << series.size() << " runs)</h2>\n";
    if (latest.stages.empty()) {
        out << "<p class=\"muted\">the newest record carries no stage "
               "rollups.</p>\n";
        return;
    }
    out << "<table><tr><th>stage</th><th class=\"num\">count</th>"
           "<th class=\"num\">total ms</th><th class=\"num\">mean ms"
           "</th><th class=\"num\">min ms</th><th class=\"num\">max ms"
           "</th><th>trend (mean ms)</th></tr>\n";
    for (const auto &[name, s] : latest.stages) {
        const double total_ms = static_cast<double>(s.totalNs) / 1e6;
        const double mean_ms =
            s.count > 0 ? total_ms / static_cast<double>(s.count) : 0.0;
        out << "<tr><td>" << htmlEscape(name) << "</td><td class=\"num\">"
            << s.count << "</td><td class=\"num\">" << fmt(total_ms)
            << "</td><td class=\"num\">" << fmt(mean_ms)
            << "</td><td class=\"num\">"
            << fmt(static_cast<double>(s.minNs) / 1e6)
            << "</td><td class=\"num\">"
            << fmt(static_cast<double>(s.maxNs) / 1e6) << "</td><td>"
            << sparkline(series, name) << "</td></tr>\n";
    }
    out << "</table>\n";
}

void
renderScoreMatrix(std::ostream &out,
                  const std::vector<HistoryRecord> &history)
{
    // Newest record carrying score.<benchmark>@<device> values.
    const HistoryRecord *scored = nullptr;
    for (auto it = history.rbegin(); it != history.rend(); ++it) {
        for (const auto &[key, value] : it->values) {
            if (key.rfind("score.", 0) == 0 &&
                key.find('@') != std::string::npos) {
                scored = &*it;
                break;
            }
        }
        if (scored != nullptr)
            break;
    }
    out << "<h2>Scores by device (Fig. 2 view)</h2>\n";
    if (scored == nullptr) {
        out << "<p class=\"muted\">no per-device scores in the store "
               "yet &mdash; run <code>bench_fig2_scores --history "
               "runs.jsonl</code>.</p>\n";
        return;
    }
    std::set<std::string> benches, devices;
    std::map<std::pair<std::string, std::string>, double> cells;
    for (const auto &[key, value] : scored->values) {
        if (key.rfind("score.", 0) != 0)
            continue;
        const std::size_t at = key.find('@');
        if (at == std::string::npos)
            continue;
        std::string bench = key.substr(6, at - 6);
        std::string device = key.substr(at + 1);
        benches.insert(bench);
        devices.insert(device);
        cells[{bench, device}] = value;
    }
    out << "<p class=\"muted\">from run by " << htmlEscape(scored->tool)
        << " at rev " << htmlEscape(scored->gitRev)
        << "; blank = not scoreable (too large / skipped / failed)."
           "</p>\n<table><tr><th>benchmark</th>";
    for (const std::string &device : devices)
        out << "<th class=\"num\">" << htmlEscape(device) << "</th>";
    out << "</tr>\n";
    for (const std::string &bench : benches) {
        out << "<tr><td>" << htmlEscape(bench) << "</td>";
        for (const std::string &device : devices) {
            auto it = cells.find({bench, device});
            if (it == cells.end()) {
                out << "<td class=\"num muted\"></td>";
            } else {
                // Sequential encoding: one hue, deeper = higher score;
                // the number itself stays in ink.
                const double a =
                    std::clamp(it->second, 0.0, 1.0) * 0.30;
                out << "<td class=\"num\" style=\"background:rgba(42,"
                       "120,214,"
                    << fmt(a, 3) << ")\">" << fmt(it->second, 3)
                    << "</td>";
            }
        }
        out << "</tr>\n";
    }
    out << "</table>\n";
}

} // namespace

std::string
htmlEscape(std::string_view raw)
{
    std::string out;
    out.reserve(raw.size());
    for (char c : raw) {
        switch (c) {
          case '&': out += "&amp;"; break;
          case '<': out += "&lt;"; break;
          case '>': out += "&gt;"; break;
          case '"': out += "&quot;"; break;
          case '\'': out += "&#39;"; break;
          default: out += c;
        }
    }
    return out;
}

std::string
renderHtmlReport(const ReportInputs &inputs)
{
    std::ostringstream out;
    out << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
           "<meta charset=\"utf-8\">\n<title>"
        << htmlEscape(inputs.title)
        << "</title>\n<style>\n"
           "body{font:14px/1.5 system-ui,sans-serif;color:#1f1f1f;"
           "margin:2em auto;max-width:980px;padding:0 1em}\n"
           "h1{font-size:1.5em}h2{font-size:1.15em;margin-top:1.6em}\n"
           "table{border-collapse:collapse;margin:0.5em 0}\n"
           "th,td{border:1px solid #e3e3e3;padding:3px 9px;"
           "text-align:left}\n"
           "th{background:#f6f6f6;font-weight:600}\n"
           ".num{text-align:right;font-variant-numeric:tabular-nums}\n"
           ".muted{color:#6b6b6b}\n"
           ".axis{font:11px system-ui,sans-serif;fill:#6b6b6b}\n"
           ".swatch{display:inline-block;width:10px;height:10px;"
           "border-radius:2px;margin-right:4px}\n"
           "code{background:#f2f2f2;padding:0 3px;border-radius:3px}\n"
           "</style>\n</head>\n<body>\n<h1>"
        << htmlEscape(inputs.title) << "</h1>\n";

    if (inputs.history.empty()) {
        out << "<p class=\"muted\">the run-history store is empty "
               "&mdash; append runs with <code>--history runs.jsonl"
               "</code> or <code>smq_sentinel ingest DIR</code>.</p>\n";
    } else {
        const HistoryRecord &latest = inputs.history.back();
        out << "<p>newest run: <b>" << htmlEscape(latest.tool)
            << "</b> at rev <code>" << htmlEscape(latest.gitRev)
            << "</code>, device table <code>"
            << htmlEscape(latest.deviceTableVersion)
            << "</code> &mdash; seed " << latest.seed << ", shots "
            << latest.shots << ", repetitions " << latest.repetitions
            << ", jobs " << latest.jobs << ", faults "
            << (latest.faultsEnabled ? "on" : "off")
            << "; transpile cache " << latest.cacheHits << " hits / "
            << latest.cacheMisses << " misses</p>\n";

        std::string trace_note = "no trace directory given";
        std::vector<TraceSpan> spans;
        if (!inputs.traceDirs.empty())
            spans = loadMultiProcessSpans(inputs.traceDirs, trace_note);
        renderWaterfall(out, std::move(spans), trace_note);

        std::vector<const HistoryRecord *> series;
        for (const HistoryRecord &rec : inputs.history) {
            if (rec.tool == latest.tool)
                series.push_back(&rec);
        }
        renderStageTable(out, latest, series);
        renderScoreMatrix(out, inputs.history);

        out << "<h2>Counters (newest run)</h2>\n";
        if (latest.counters.empty()) {
            out << "<p class=\"muted\">no counters recorded.</p>\n";
        } else {
            out << "<table><tr><th>counter</th><th class=\"num\">value"
                   "</th></tr>\n";
            for (const auto &[name, value] : latest.counters) {
                out << "<tr><td>" << htmlEscape(name)
                    << "</td><td class=\"num\">" << value
                    << "</td></tr>\n";
            }
            out << "</table>\n";
        }
    }

    std::set<std::string> schemas, revs;
    for (const HistoryRecord &rec : inputs.history) {
        schemas.insert(rec.schema);
        revs.insert(rec.gitRev);
    }
    out << "<hr><p class=\"muted\">store health: "
        << inputs.history.size() << " records";
    if (!schemas.empty()) {
        out << " (schemas:";
        for (const std::string &s : schemas)
            out << " " << htmlEscape(s);
        out << "; " << revs.size() << " git revision"
            << (revs.size() == 1 ? "" : "s") << ")";
    }
    if (inputs.skippedLines > 0)
        out << "; " << inputs.skippedLines
            << " unparseable line(s) skipped on load";
    out << ".</p>\n</body>\n</html>\n";
    return out.str();
}

std::string
renderMergedChromeTrace(const std::vector<std::string> &traceDirs,
                        std::string &note)
{
    std::vector<TraceSpan> spans =
        loadMultiProcessSpans(traceDirs, note);
    // Group by trace id first, so every request's spans — whichever
    // process emitted them — sit contiguously; within a trace the
    // order is the per-process waterfall order. Everything here is
    // derived from span data, never from load order or clocks, which
    // is what makes the merged file reproducible.
    std::sort(spans.begin(), spans.end(),
              [](const TraceSpan &a, const TraceSpan &b) {
                  if (a.traceId != b.traceId)
                      return a.traceId < b.traceId;
                  if (a.process != b.process)
                      return a.process < b.process;
                  if (a.tsUs != b.tsUs)
                      return a.tsUs < b.tsUs;
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  return a.durUs > b.durUs;
              });
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(3);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const TraceSpan &s = spans[i];
        if (i)
            out << ",";
        out << "\n{\"name\":\"" << obs::escapeJson(s.name)
            << "\",\"cat\":\"smq\",\"ph\":\"X\",\"ts\":" << s.tsUs
            << ",\"dur\":" << s.durUs << ",\"pid\":" << (s.process + 1)
            << ",\"tid\":" << s.tid;
        if (!s.traceId.empty())
            out << ",\"args\":{\"trace.id\":\""
                << obs::escapeJson(s.traceId) << "\"}";
        out << "}";
    }
    out << "\n]}\n";
    return out.str();
}

} // namespace smq::report
