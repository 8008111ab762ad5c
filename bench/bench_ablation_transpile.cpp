/**
 * @file
 * Ablation: how much the Closed-Division compiler passes matter
 * (paper Sec. VII discusses compiler-induced variability). Compares
 * layout strategies and the optimisation passes by SWAP count, 2q
 * gate count, depth, and the resulting noisy score for the
 * connectivity-stressing Vanilla QAOA vs. the hardware-matched
 * ZZ-SWAP QAOA.
 */

#include <iostream>

#include "core/benchmarks/qaoa.hpp"
#include "core/harness.hpp"
#include "qc/schedule.hpp"
#include "stats/table.hpp"

#include "fig_data.hpp"

using namespace smq;

namespace {

void
addPipelineRows(const core::Benchmark &bench, const device::Device &dev,
                stats::TextTable &table)
{
    struct Config
    {
        const char *label;
        transpile::TranspileOptions options;
    };
    std::vector<Config> configs;
    {
        transpile::TranspileOptions o;
        o.layout = transpile::LayoutStrategy::Trivial;
        o.optimize = false;
        configs.push_back({"trivial, no-opt", o});
    }
    {
        transpile::TranspileOptions o;
        o.layout = transpile::LayoutStrategy::Trivial;
        configs.push_back({"trivial, opt", o});
    }
    {
        transpile::TranspileOptions o;
        o.layout = transpile::LayoutStrategy::Connectivity;
        configs.push_back({"connectivity, opt", o});
    }
    {
        transpile::TranspileOptions o;
        o.layout = transpile::LayoutStrategy::Connectivity;
        o.division = transpile::Division::Open;
        configs.push_back({"open division", o});
    }

    for (const Config &config : configs) {
        core::HarnessOptions options;
        options.shots = 1000;
        options.repetitions = 3;
        options.transpile = config.options;
        core::BenchmarkRun run =
            core::runBenchmark(bench, dev, options);
        if (run.tooLarge) {
            table.addRow({bench.name(), dev.name, config.label, "X", "X",
                          "X"});
            continue;
        }
        table.addRow({bench.name(), dev.name, config.label,
                      std::to_string(run.swapsInserted),
                      std::to_string(run.physicalTwoQubitGates),
                      stats::formatFixed(run.summary.mean, 3) + "+-" +
                          stats::formatFixed(run.summary.stddev, 3)});
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsSession obs_session("bench_ablation_transpile", argc, argv);
    std::cout << "Ablation: transpiler passes vs routing cost and score\n"
              << "(Vanilla QAOA needs all-to-all connectivity; ZZ-SWAP\n"
              << " QAOA is nearest-neighbour by construction)\n\n";

    stats::TextTable table({"benchmark", "device", "pipeline", "swaps",
                            "2q gates", "score"});

    core::QaoaVanillaBenchmark vanilla(6, 6);
    core::QaoaSwapBenchmark swap_net(6, 6);

    for (const device::Device &dev :
         {device::ibmCasablanca(), device::ibmGuadalupe(),
          device::ionqDevice()}) {
        addPipelineRows(vanilla, dev, table);
        addPipelineRows(swap_net, dev, table);
    }
    std::cout << table.render() << "\n";
    std::cout
        << "Shape checks: on sparse superconducting topologies the\n"
           "Vanilla ansatz pays a large SWAP overhead that the\n"
           "connectivity-aware layout and cancellation passes only\n"
           "partly recover, while the ZZ-SWAP ansatz routes for free;\n"
           "on the all-to-all trapped-ion model neither variant needs\n"
           "SWAPs, isolating ansatz depth as the remaining cost.\n";
    return 0;
}
