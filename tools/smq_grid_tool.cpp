/**
 * @file
 * Minimal resilient-grid driver for the kill/resume and shard-union
 * tests: a configurable slice of the quick suite executed across a
 * configurable prefix of the device table, through exactly the same
 * computeGrid() machinery (sharding, checkpoint journal, cooperative
 * shutdown, crash hooks) the Fig. 2 regenerator uses — but small
 * enough that the tests can kill it at every journal boundary and
 * re-run the sweep dozens of times.
 *
 * Flags: the standard scale flags (--jobs, --shard i/N,
 * --checkpoint DIR, --resume DIR, ...) plus
 *     --out FILE       write the canonical grid text (fig2 cache
 *                      format) for byte-identity comparisons
 *     --benchmarks K   first K benchmarks of the quick suite
 *     --devices K      first K devices of the device table
 *     --shots N        shots per circuit per repetition (at least 1)
 *
 * Exit codes: 0 complete; 75 interrupted (resume me); 74 journal or
 * output write failure; 2 usage / foreign resume journal.
 */

#include <iostream>
#include <limits>

#include "device/device.hpp"
#include "fig_data.hpp"
#include "obs/fsio.hpp"
#include "report/checkpoint.hpp"

using namespace smq;

int
main(int argc, char **argv)
{
    std::uint64_t shots = 60;
    std::uint64_t n_bench = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t n_dev = std::numeric_limits<std::uint64_t>::max();
    std::string out_path;
    util::Flags flags;
    flags.add("--shots", shots)
        .add("--benchmarks", n_bench)
        .add("--devices", n_dev)
        .add("--out", out_path);
    bench::Scale scale = bench::scaleFromArgs(argc, argv, flags);
    if (shots == 0) {
        std::cerr << "smq_grid_tool: --shots must be at least 1\n";
        return report::kExitConfigMismatch;
    }
    scale.useCache = false;
    scale.defaultShots = shots;
    scale.repetitions = 2;

    std::vector<core::BenchmarkPtr> suite = core::quickSuite();
    if (n_bench < suite.size())
        suite.resize(n_bench);

    std::vector<device::Device> devices = device::allDevices();
    if (n_dev < devices.size())
        devices.resize(n_dev);

    bench::GridOutcome outcome =
        bench::computeGrid(scale, suite, devices);
    if (outcome.configMismatch) {
        std::cerr << "smq_grid_tool: " << outcome.mismatchDetail << "\n";
        return outcome.exitCode();
    }
    bench::printCellReport(std::cerr, outcome.grid);

    if (!out_path.empty()) {
        std::string error;
        if (!obs::atomicWriteFile(out_path,
                                  bench::serializeGrid(outcome.grid),
                                  &error)) {
            std::cerr << "smq_grid_tool: cannot write " << out_path
                      << (error.empty() ? "" : " (" + error + ")")
                      << "\n";
            return report::kExitStorageError;
        }
    }
    if (outcome.storageError) {
        std::cerr << "smq_grid_tool: journal write failed: "
                  << outcome.storageDetail << "\n";
    } else if (outcome.interrupted) {
        std::cerr << "smq_grid_tool: interrupted; rerun with --resume\n";
    }
    return outcome.exitCode();
}
