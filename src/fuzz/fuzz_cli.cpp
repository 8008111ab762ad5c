#include "fuzz/fuzz_cli.hpp"

#include "fuzz/harness.hpp"
#include "fuzz/planner_fuzz.hpp"
#include "fuzz/protocol_fuzz.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "report/history.hpp"
#include "util/cli.hpp"

namespace smq::fuzz {

namespace {

constexpr const char *kUsage =
    "usage: smq_fuzz [options]\n"
    "\n"
    "  --seed N        corpus seed (default 1); identical seeds give\n"
    "                  byte-identical reports at any --jobs\n"
    "  --cases N       number of random circuits (default 100)\n"
    "  --jobs N        worker threads (default 2; 0 = hardware); the\n"
    "                  corpus is re-run serially and compared when > 1\n"
    "  --clifford      Clifford-only gate alphabet\n"
    "  --min-qubits N  smallest register (default 2)\n"
    "  --max-qubits N  largest register (default 5)\n"
    "  --max-gates N   largest body length (default 30)\n"
    "  --no-mcm        no mid-circuit measurements or resets\n"
    "  --no-shrink     keep failing circuits unminimised\n"
    "  --out DIR       write repro .qasm + regression-test artifacts\n"
    "  --history FILE  append the run to a run-history store\n"
    "  --metrics       enable the fuzz.* metrics registry counters\n"
    "  --protocol      fuzz the smq-serve-v1 wire protocol instead of\n"
    "                  circuits (uses --seed / --cases only)\n"
    "  --planner       differential oracle for the backend planner:\n"
    "                  auto-vs-forced byte-identity and TVD against\n"
    "                  exact references (uses --seed / --cases only)\n";

int
usageError(std::ostream &err, const std::string &message)
{
    err << "smq_fuzz: " << message << "\n" << kUsage;
    return kFuzzUsage;
}

} // namespace

int
fuzzMain(const std::vector<std::string> &args, std::ostream &out,
         std::ostream &err)
{
    FuzzOptions options;
    options.jobs = 2;
    std::string history;
    bool metrics = false;
    bool protocol = false;
    bool planner = false;
    bool no_mcm = false;
    bool help = false;
    util::Flags flags;
    flags.add("--help", help)
        .add("--seed", options.seed)
        .add("--cases", options.cases)
        .add("--jobs", options.jobs)
        .add("--clifford", options.gen.cliffordOnly)
        .add("--min-qubits", options.gen.minQubits)
        .add("--max-qubits", options.gen.maxQubits)
        .add("--max-gates", options.gen.maxGates)
        .add("--no-mcm", no_mcm)
        .add("--no-shrink", options.shrinkFailures, false)
        .add("--out", options.artifactDir)
        .add("--history", history)
        .add("--metrics", metrics)
        .add("--protocol", protocol)
        .add("--planner", planner);
    const std::string error = flags.parse(args);
    if (!error.empty())
        return usageError(err, error);
    if (help) {
        out << kUsage;
        return kFuzzOk;
    }
    if (no_mcm) {
        options.gen.midCircuitMeasure = false;
        options.gen.resets = false;
    }
    if (options.gen.minQubits < 1 ||
        options.gen.minQubits > options.gen.maxQubits ||
        options.gen.maxQubits > 12) {
        return usageError(err, "qubit range must satisfy "
                               "1 <= min <= max <= 12");
    }
    if (options.gen.minGates > options.gen.maxGates)
        return usageError(err, "gate range must satisfy min <= max");

    if (metrics)
        obs::setMetricsEnabled(true);

    if (protocol) {
        ProtocolFuzzOptions protocol_options;
        protocol_options.seed = options.seed;
        protocol_options.cases = options.cases;
        ProtocolFuzzReport report = runProtocolFuzz(protocol_options);
        out << report.render();
        return report.clean() ? kFuzzOk : kFuzzDiscrepancy;
    }

    if (planner) {
        PlannerFuzzOptions planner_options;
        planner_options.seed = options.seed;
        planner_options.cases = options.cases;
        PlannerFuzzReport report = runPlannerFuzz(planner_options);
        out << report.render();
        return report.clean() ? kFuzzOk : kFuzzDiscrepancy;
    }

    FuzzReport report = runFuzz(options);
    out << report.render();

    std::string jobs_verdict;
    if (options.jobs != 1) {
        jobs_verdict = verifyJobsIdentity(report);
        out << "jobs identity: "
            << (jobs_verdict.empty() ? "ok (serial rerun byte-identical)"
                                     : jobs_verdict)
            << "\n";
    }

    if (!history.empty()) {
        report::HistoryRecord record;
        record.tool = "smq_fuzz";
        record.seed = options.seed;
        record.jobs = options.jobs;
        if (metrics) {
            for (const auto &[name, value] :
                 obs::snapshotMetrics().counters) {
                if (value > 0)
                    record.counters[name] = value;
            }
        }
        record.values["cases"] = static_cast<double>(report.casesRun);
        record.values["failures"] =
            static_cast<double>(report.failures.size());
        if (!report::appendHistory(history, record))
            err << "smq_fuzz: cannot append to " << history << "\n";
    }

    if (!report.clean() || !jobs_verdict.empty())
        return kFuzzDiscrepancy;
    return kFuzzOk;
}

} // namespace smq::fuzz
