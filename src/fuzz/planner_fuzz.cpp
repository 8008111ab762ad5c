#include "fuzz/planner_fuzz.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <sstream>

#include "fuzz/generator.hpp"
#include "fuzz/oracles.hpp"
#include "sim/density_matrix.hpp"
#include "sim/planner.hpp"
#include "sim/runner.hpp"
#include "stats/counts.hpp"
#include "util/thread_pool.hpp"

namespace smq::fuzz {

namespace {

/** Total-variation distance of an empirical histogram from an exact
 *  reference distribution. */
double
tvd(const stats::Counts &counts, const stats::Distribution &ref)
{
    const double n = static_cast<double>(counts.shots());
    double sum = 0.0;
    for (const auto &[bits, c] : counts.map())
        sum += std::abs(static_cast<double>(c) / n -
                        ref.probability(bits));
    for (const auto &[bits, p] : ref.map()) {
        if (counts.at(bits) == 0)
            sum += p;
    }
    return sum / 2.0;
}

} // namespace

std::string
PlannerFuzzReport::render() const
{
    std::ostringstream out;
    out << "planner fuzz: " << casesRun << " cases, " << identityChecks
        << " identity checks, " << fidelityChecks
        << " fidelity checks (" << fidelitySkips
        << " without an exact reference)\n";
    out << "plans seen:";
    for (const std::string &token : planTokensSeen)
        out << " " << token;
    out << "\n";
    if (failures.empty()) {
        out << "all clean\n";
    } else {
        out << failures.size() << " failure(s):\n";
        for (const std::string &failure : failures)
            out << "  " << failure << "\n";
    }
    return out.str();
}

PlannerFuzzReport
runPlannerFuzz(const PlannerFuzzOptions &options)
{
    PlannerFuzzReport report;
    for (std::size_t i = 0; i < options.cases; ++i) {
        ++report.casesRun;
        const std::uint64_t case_seed =
            util::deriveTaskSeed(options.seed, i);
        stats::Rng gen_rng(case_seed);

        // Sweep the corpus across the planner's whole decision
        // surface: Clifford-only thirds (stabilizer-eligible), mid-
        // circuit halves (trajectory-forcing), noisy odd cases.
        GeneratorOptions gen;
        gen.cliffordOnly = (i % 3 == 0);
        gen.midCircuitMeasure = (i % 2 == 0);
        gen.resets = (i % 2 == 0);
        const qc::Circuit circuit = randomCircuit(gen, gen_rng);

        sim::NoiseModel noise;
        if (i % 2 == 1) {
            noise.enabled = true;
            noise.p1 = 0.002;
            noise.p2 = 0.01;
            noise.pMeas = 0.01;
        }

        const sim::Plan plan = sim::planCircuit(circuit, noise);
        const std::string token = plan.token();
        if (std::find(report.planTokensSeen.begin(),
                      report.planTokensSeen.end(),
                      token) == report.planTokensSeen.end())
            report.planTokensSeen.push_back(token);
        auto fail = [&](const std::string &why) {
            report.failures.push_back("case " + std::to_string(i) +
                                      " [" + token + "]: " + why);
        };

        // --- oracle 1: auto vs forced-same-backend byte-identity ----
        sim::RunOptions ro;
        ro.shots = options.shots;
        ro.noise = noise;
        stats::Counts auto_counts, forced_counts;
        try {
            stats::Rng auto_rng(util::deriveTaskSeed(case_seed, 1));
            auto_counts = sim::run(circuit, ro, auto_rng);
            sim::RunOptions forced = ro;
            forced.planner.force = plan.backend;
            stats::Rng forced_rng(util::deriveTaskSeed(case_seed, 1));
            forced_counts = sim::run(circuit, forced, forced_rng);
        } catch (const std::exception &e) {
            fail(std::string("run threw: ") + e.what());
            continue;
        }
        ++report.identityChecks;
        if (auto_counts.map() != forced_counts.map()) {
            fail("forcing the planner's own choice changed the "
                 "histogram");
            continue;
        }

        // --- oracle 2: TVD against an exact reference ---------------
        stats::Distribution reference;
        bool have_reference = false;
        try {
            if (!noise.enabled) {
                reference = exactDenseDistribution(circuit);
                have_reference = true;
            } else if (!sim::hasMidCircuitOperations(circuit) &&
                       circuit.numQubits() <=
                           sim::kDensityMatrixHardCap) {
                reference = sim::noisyDistribution(circuit, noise);
                have_reference = true;
            }
        } catch (const std::exception &) {
            // branch explosion / unsupported shape: no reference
            have_reference = false;
        }
        if (!have_reference) {
            ++report.fidelitySkips;
            continue;
        }
        ++report.fidelityChecks;
        const double distance = tvd(auto_counts, reference);
        if (distance > options.tvdBound) {
            std::ostringstream why;
            why << "TVD " << distance << " from the exact reference "
                << "exceeds the bound " << options.tvdBound;
            fail(why.str());
        }
    }
    return report;
}

} // namespace smq::fuzz
