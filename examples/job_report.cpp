/**
 * @file
 * The fault-tolerant job layer in action: run the quick suite across
 * three device classes under a seeded fault schedule and a suite
 * deadline, and print the structured report.
 *
 * Expected output mixes every degradation mode:
 *   - Ok cells with scores and error bars,
 *   - Partial cells (deadline/attempt-cap salvage, shot truncation)
 *     with widened error bars and their cause,
 *   - skip(no-mcm) for the error-correction proxies on the trapped-ion
 *     device (no mid-circuit measurement, as on the real service),
 *   - X for benchmarks that do not fit the 4-qubit AQT device.
 *
 * Re-running reproduces the report byte-for-byte; change --seed to see
 * a different (equally reproducible) fault schedule.
 */

#include <chrono>
#include <iostream>
#include <map>

#include "core/harness.hpp"
#include "core/suites.hpp"
#include "jobs/report.hpp"
#include "obs/metrics.hpp"
#include "report/history.hpp"
#include "util/cli.hpp"

using namespace smq;

int
main(int argc, char **argv)
{
    std::uint64_t seed = 7;
    std::string history_path;
    util::Flags flags;
    flags.add("--seed", seed).add("--history", history_path);
    const std::string error =
        flags.parse(std::vector<std::string>(argv + 1, argv + argc));
    if (!error.empty()) {
        std::cerr << "job_report: " << error << "\n";
        return 2;
    }
    obs::setMetricsEnabled(true);

    // A fault schedule in the regime of a bad day on the cloud queue.
    jobs::FaultInjector injector(seed);
    jobs::FaultProfile profile;
    profile.pTransient = 0.20;      // transient execution errors
    profile.pQueueTimeout = 0.10;   // jobs expiring in the queue
    profile.pShotTruncation = 0.15; // jobs returning partial shots
    profile.calibrationDrift = 0.08;
    injector.setDefaultProfile(profile);

    jobs::JobOptions options;
    options.harness.shots = 300;
    options.harness.repetitions = 3;
    options.retry.maxAttempts = 3;
    options.suiteBudgetUs = 3600.0e6; // one simulated hour

    std::vector<device::Device> devices = {
        device::ibmLagos(), device::ionqDevice(), device::aqtDevice()};

    const auto wall_start = std::chrono::steady_clock::now();
    jobs::SuiteReport report =
        jobs::runSweep(core::quickSuite(), devices, options, injector);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall_start)
            .count();

    std::cout << "Fault-tolerant sweep (seed " << seed
              << ", 1 simulated hour budget):\n\n"
              << jobs::renderReport(report);

    // Event trails. Only scoreable cells carry a salvage trail worth
    // reading shot counts from; for the rest the detail narrates why
    // nothing was salvaged, so report it under the failure cause
    // instead of presenting it as partial data.
    std::cout << "\nper-cell event trails (salvaged cells):\n";
    for (const jobs::ReportRow &row : report.rows) {
        for (const core::BenchmarkRun &run : row.runs) {
            if (run.detail.empty() || !core::scoreable(run.status))
                continue;
            std::cout << "  " << run.benchmark << " @ " << run.device
                      << " [" << core::toString(run.status) << "/"
                      << core::causeToken(run.cause)
                      << "]: " << run.detail << "\n";
        }
    }
    std::cout << "\nunsalvageable cells:\n";
    for (const jobs::ReportRow &row : report.rows) {
        for (const core::BenchmarkRun &run : row.runs) {
            if (run.detail.empty() || core::scoreable(run.status))
                continue;
            std::cout << "  " << run.benchmark << " @ " << run.device
                      << " [" << core::toString(run.status) << "/"
                      << core::causeToken(run.cause)
                      << "]: " << run.detail << "\n";
        }
    }

    // Provenance: write the manifest with a per-status tally, then read
    // it back through the parser — the footer below comes from the
    // file, proving the round trip the tooling relies on.
    obs::RunManifest manifest =
        core::makeRunManifest("job_report", options.harness);
    manifest.seed = seed;
    manifest.faultsEnabled = true;
    manifest.faultSeed = seed;
    std::map<std::string, std::size_t> tally;
    for (const jobs::ReportRow &row : report.rows) {
        for (const core::BenchmarkRun &run : row.runs)
            ++tally[core::toString(run.status)];
    }
    for (const auto &[status, count] : tally)
        manifest.extra["cells_" + status] = std::to_string(count);
    const std::string manifest_path = "job_report_manifest.json";
    if (!manifest.writeFile(manifest_path)) {
        std::cerr << "error: could not write " << manifest_path << "\n";
        return 1;
    }
    obs::RunManifest readback = obs::RunManifest::readFile(manifest_path);
    std::cout << "\nprovenance (read back from " << manifest_path
              << "): tool=" << readback.tool << ", git=" << readback.gitRev
              << ", devices=" << readback.deviceTableVersion
              << ", fault seed=" << readback.faultSeed << ", attempts="
              << readback.counters["jobs.retry.attempts"] << "\n";

    // Optional run-history hookup: one line comparing this run to the
    // previous run of the same configuration, then append this one.
    if (!history_path.empty()) {
        double score_sum = 0.0;
        std::size_t score_count = 0;
        for (const jobs::ReportRow &row : report.rows) {
            for (const core::BenchmarkRun &run : row.runs) {
                if (!core::scoreable(run.status) || run.scores.empty())
                    continue;
                score_sum += run.summary.mean;
                ++score_count;
            }
        }
        smq::report::HistoryRecord record =
            smq::report::HistoryRecord::fromManifest(manifest);
        record.values["score.mean"] =
            score_count > 0 ? score_sum /
                                  static_cast<double>(score_count)
                            : 0.0;
        record.values["wall_ms"] = wall_ms;

        smq::report::HistoryLoad load =
            smq::report::loadHistory(history_path);
        const smq::report::HistoryRecord *previous = nullptr;
        for (const smq::report::HistoryRecord &old : load.records) {
            if (old.sameConfig(record))
                previous = &old;
        }
        if (previous == nullptr) {
            std::cout << "history: first run of this config in "
                      << history_path << "\n";
        } else {
            auto value_of = [](const smq::report::HistoryRecord &r,
                               const char *key) {
                auto it = r.values.find(key);
                return it != r.values.end() ? it->second : 0.0;
            };
            const double prev_score = value_of(*previous, "score.mean");
            const double prev_wall = value_of(*previous, "wall_ms");
            std::cout << "history: vs previous same-config run (rev "
                      << previous->gitRev << "): score.mean "
                      << prev_score << " -> "
                      << record.values["score.mean"] << " ("
                      << (record.values["score.mean"] >= prev_score
                              ? "+"
                              : "")
                      << record.values["score.mean"] - prev_score
                      << "), wall " << prev_wall << " -> " << wall_ms
                      << " ms\n";
        }
        if (!smq::report::appendHistory(history_path, record)) {
            std::cerr << "error: could not append to " << history_path
                      << "\n";
            return 1;
        }
    }
    return 0;
}
