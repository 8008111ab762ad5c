#include "core/suites.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <utility>

#include "core/coverage.hpp"

#include "core/benchmarks/error_correction.hpp"
#include "core/benchmarks/ghz.hpp"
#include "core/benchmarks/hamiltonian_simulation.hpp"
#include "core/benchmarks/mermin_bell.hpp"
#include "core/benchmarks/qaoa.hpp"
#include "core/benchmarks/vqe.hpp"
#include "qc/library.hpp"
#include "util/cli.hpp"
#include "util/seed.hpp"
#include "util/thread_pool.hpp"

namespace smq::core {

namespace {

/** Fixed base seed of the shard derivation (any constant works; it
 *  only has to be the same in every process of a sharded sweep). */
constexpr std::uint64_t kShardStream = 0x5351u; // "SQ"

} // namespace

std::optional<ShardSpec>
parseShardSpec(std::string_view text)
{
    const std::size_t slash = text.find('/');
    if (slash == std::string_view::npos)
        return std::nullopt;
    auto index = util::parseUnsigned(text.substr(0, slash));
    auto count = util::parseUnsigned(text.substr(slash + 1));
    if (!index || !count || *count == 0 || *index >= *count)
        return std::nullopt;
    return ShardSpec{*index, *count};
}

std::size_t
shardOfCell(std::string_view benchmark, std::string_view device,
            std::size_t shardCount)
{
    if (shardCount <= 1)
        return 0;
    return static_cast<std::size_t>(
        util::labelSeed(kShardStream, device, benchmark) % shardCount);
}

bool
shardOwnsCell(const ShardSpec &shard, std::string_view benchmark,
              std::string_view device)
{
    return shardOfCell(benchmark, device, shard.count) == shard.index;
}

namespace {

FeatureVector
featuresOfBenchmark(const Benchmark &benchmark)
{
    // The coverage study characterises each benchmark by its primary
    // circuit (VQE's two circuits share the ansatz structure).
    return computeFeatures(benchmark.circuits().front());
}

std::vector<std::uint8_t>
secretBits(std::size_t n, std::uint64_t pattern)
{
    std::vector<std::uint8_t> bits(n);
    for (std::size_t i = 0; i < n; ++i)
        bits[i] = static_cast<std::uint8_t>((pattern >> (i % 64)) & 1);
    return bits;
}

} // namespace

std::vector<BenchmarkPtr>
figure2Benchmarks(std::size_t jobs)
{
    /** One row: its constructor and how long that runs, in ms. */
    struct Row
    {
        double buildMs;
        std::function<BenchmarkPtr()> make;
    };
    std::vector<Row> rows;
    auto add = [&rows](double build_ms, std::function<BenchmarkPtr()> make) {
        rows.push_back({build_ms, std::move(make)});
    };
    // Only the QAOA and VQE constructors take time: each runs its
    // Nelder-Mead parameter search on a noiseless statevector. Their
    // costs are serial build times on a 4-vCPU host; they only order
    // the claims, never what a row holds.
    // GHZ: 3..16 qubits (27q devices cap at the simulator budget)
    for (std::size_t n : {3, 5, 7, 11, 16})
        add(0, [n] { return std::make_unique<GhzBenchmark>(n); });
    // Mermin-Bell: the hard, all-to-all benchmark stays small
    for (std::size_t n : {3, 4, 5})
        add(0, [n] { return std::make_unique<MerminBellBenchmark>(n); });
    // error-correction proxies: (data qubits, rounds)
    for (auto [d, r] : {std::pair<std::size_t, std::size_t>{3, 1},
                        {4, 2},
                        {6, 2}}) {
        add(0, [d, r] {
            return std::make_unique<BitCodeBenchmark>(
                BitCodeBenchmark::alternating(d, r));
        });
    }
    for (auto [d, r] : {std::pair<std::size_t, std::size_t>{3, 1},
                        {4, 2},
                        {6, 2}}) {
        add(0, [d, r] {
            return std::make_unique<PhaseCodeBenchmark>(
                PhaseCodeBenchmark::alternating(d, r));
        });
    }
    // QAOA on SK instances
    for (auto [n, ms] : {std::pair<std::size_t, double>{4, 1.9},
                         {6, 5.2},
                         {8, 16.1}})
        add(ms, [n] { return std::make_unique<QaoaVanillaBenchmark>(n, n); });
    for (auto [n, ms] : {std::pair<std::size_t, double>{4, 4.3},
                         {6, 11.8},
                         {8, 34.7}})
        add(ms, [n] { return std::make_unique<QaoaSwapBenchmark>(n, n); });
    // VQE on the TFIM chain
    for (auto [n, ms] : {std::pair<std::size_t, double>{4, 11.4},
                         {6, 22.6},
                         {8, 55.2}})
        add(ms, [n] { return std::make_unique<VqeBenchmark>(n, 1); });
    // Hamiltonian simulation: (qubits, Trotter steps)
    for (auto [n, s] : {std::pair<std::size_t, std::size_t>{4, 3},
                        {6, 4},
                        {8, 5}}) {
        add(0, [n, s] {
            return std::make_unique<HamiltonianSimulationBenchmark>(n, s);
        });
    }

    // The workers claim the longest builds first, so no long search
    // starts last while the other workers idle. Each row is built
    // alone into its own slot: the suite is the same at any jobs.
    std::vector<std::size_t> claims(rows.size());
    std::iota(claims.begin(), claims.end(), std::size_t{0});
    std::stable_sort(claims.begin(), claims.end(),
                     [&rows](std::size_t a, std::size_t b) {
                         return rows[a].buildMs > rows[b].buildMs;
                     });
    std::vector<BenchmarkPtr> suite(rows.size());
    util::parallelFor(jobs, claims.size(), [&](std::size_t k) {
        suite[claims[k]] = rows[claims[k]].make();
    });
    return suite;
}

std::vector<BenchmarkPtr>
quickSuite()
{
    std::vector<BenchmarkPtr> suite;
    suite.push_back(std::make_unique<GhzBenchmark>(4));
    suite.push_back(std::make_unique<MerminBellBenchmark>(3));
    suite.push_back(std::make_unique<BitCodeBenchmark>(
        BitCodeBenchmark::alternating(3, 1)));
    suite.push_back(std::make_unique<PhaseCodeBenchmark>(
        PhaseCodeBenchmark::alternating(3, 1)));
    suite.push_back(std::make_unique<QaoaVanillaBenchmark>(4, 3));
    suite.push_back(std::make_unique<QaoaSwapBenchmark>(4, 3));
    suite.push_back(std::make_unique<VqeBenchmark>(4, 1));
    suite.push_back(
        std::make_unique<HamiltonianSimulationBenchmark>(4, 2));
    return suite;
}

std::vector<FeatureVector>
supermarqFeaturePoints()
{
    std::vector<FeatureVector> points;

    // 52 instances across the eight applications, sizes 2..1000 and
    // varied round/step/layer parameters (matching the paper's count).
    for (std::size_t n : {2, 3, 5, 10, 50, 100, 500, 1000})
        points.push_back(featuresOfBenchmark(GhzBenchmark(n)));
    for (std::size_t n : {2, 3, 4, 5, 6, 8, 10, 12})
        points.push_back(featuresOfBenchmark(MerminBellBenchmark(n)));
    for (auto [d, r] : std::vector<std::pair<std::size_t, std::size_t>>{
             {2, 1}, {2, 8}, {3, 8}, {11, 2}, {251, 3}, {500, 4}}) {
        points.push_back(featuresOfBenchmark(
            BitCodeBenchmark::alternating(d, r)));
    }
    for (auto [d, r] : std::vector<std::pair<std::size_t, std::size_t>>{
             {2, 1}, {2, 8}, {3, 8}, {11, 2}, {251, 3}, {500, 4}}) {
        points.push_back(featuresOfBenchmark(
            PhaseCodeBenchmark::alternating(d, r)));
    }
    for (std::size_t n : {2, 4, 10, 30, 100})
        points.push_back(featuresOfBenchmark(
            QaoaVanillaBenchmark(n, n, /*optimize=*/false)));
    for (std::size_t n : {2, 4, 10, 30, 100})
        points.push_back(featuresOfBenchmark(
            QaoaSwapBenchmark(n, n, /*optimize=*/false)));
    for (std::size_t n : {4, 10, 100, 1000})
        points.push_back(featuresOfBenchmark(
            VqeBenchmark(n, 1, /*optimize=*/false)));
    for (std::size_t n : {4, 50})
        points.push_back(featuresOfBenchmark(
            VqeBenchmark(n, 4, /*optimize=*/false)));
    for (auto [n, s] : std::vector<std::pair<std::size_t, std::size_t>>{
             {4, 3},   {10, 4},   {30, 4}, {100, 5},
             {300, 5}, {1000, 6}, {6, 1},  {50, 12}}) {
        points.push_back(featuresOfBenchmark(
            HamiltonianSimulationBenchmark(n, s)));
    }
    return points; // 8 + 8 + 6 + 6 + 5 + 5 + 6 + 8 = 52 instances
}

std::vector<FeatureVector>
qasmbenchProxyFeaturePoints()
{
    namespace lib = qc::library;
    std::vector<qc::Circuit> circuits;
    stats::Rng rng(99);

    for (std::size_t n : {2, 3, 4, 5, 8, 12, 16, 24, 50, 100, 433, 1000})
        circuits.push_back(lib::ghzLadder(n));
    for (std::size_t n : {3, 4, 5, 8, 12, 16, 32, 64})
        circuits.push_back(lib::qft(n));
    for (std::size_t n : {3, 5, 8, 14, 19, 30})
        circuits.push_back(lib::bernsteinVazirani(secretBits(n, 0x5a5a5)));
    for (std::size_t n : {1, 2, 4, 8, 16, 32})
        circuits.push_back(lib::cuccaroAdder(n));
    circuits.push_back(lib::grover(3, {1, 0, 1}, 2));
    circuits.push_back(lib::grover(5, {1, 0, 1, 1, 0}, 3));
    circuits.push_back(lib::grover(8, {1, 0, 1, 1, 0, 0, 1, 0}, 4));
    for (std::size_t n : {3, 5, 10, 20, 60})
        circuits.push_back(lib::wState(n));
    for (std::size_t n : {4, 6, 10, 20})
        circuits.push_back(lib::hiddenShift(secretBits(n, 0x33c3)));
    for (std::size_t n : {3, 5, 9, 15})
        circuits.push_back(lib::toffoliChain(n));
    for (std::size_t n : {4, 8, 16})
        circuits.push_back(lib::randomLayered(n, n, rng));
    for (std::size_t n : {2, 5, 10})
        circuits.push_back(lib::swapTest(n));
    for (std::size_t r : {3, 6, 10})
        circuits.push_back(lib::iterativePhaseEstimation(r));
    for (std::size_t n : {3, 5})
        circuits.push_back(lib::quantumPhaseEstimation(n));
    circuits.push_back(lib::deutschJozsa(4, false));
    circuits.push_back(lib::deutschJozsa(6, true));
    circuits.push_back(lib::deutschJozsa(10, true));

    return featuresOfCircuits(circuits); // 62 kernels
}

std::vector<FeatureVector>
syntheticFeaturePoints()
{
    std::vector<FeatureVector> points;
    points.push_back(FeatureVector{}); // the trivial program
    for (std::size_t axis = 0; axis < 6; ++axis) {
        FeatureVector f;
        double *fields[6] = {&f.communication, &f.criticalDepth,
                             &f.entanglement,  &f.parallelism,
                             &f.liveness,      &f.measurement};
        *fields[axis] = 1.0;
        points.push_back(f);
    }
    return points;
}

std::vector<FeatureVector>
triqProxyFeaturePoints()
{
    namespace lib = qc::library;
    std::vector<qc::Circuit> circuits;
    // the small NISQ kernels evaluated by TriQ (bv, qft, toffoli,
    // fredkin, or/peres-style reversible logic, adders, hidden shift)
    circuits.push_back(lib::bernsteinVazirani(secretBits(3, 0b101)));
    circuits.push_back(lib::bernsteinVazirani(secretBits(4, 0b1101)));
    circuits.push_back(lib::qft(2));
    circuits.push_back(lib::qft(4));
    circuits.push_back(lib::toffoliChain(3));
    {
        qc::Circuit fredkin(3, 3, "fredkin");
        fredkin.x(0).x(1);
        fredkin.cswap(0, 1, 2);
        fredkin.measureAll();
        circuits.push_back(fredkin);
    }
    {
        qc::Circuit peres(3, 3, "peres");
        peres.ccx(0, 1, 2);
        peres.cx(0, 1);
        peres.measureAll();
        circuits.push_back(peres);
    }
    {
        qc::Circuit or_gate(3, 1, "or");
        or_gate.x(0);
        or_gate.x(1);
        or_gate.ccx(0, 1, 2);
        or_gate.x(0);
        or_gate.x(1);
        or_gate.x(2);
        or_gate.measure(2, 0);
        circuits.push_back(or_gate);
    }
    circuits.push_back(lib::cuccaroAdder(1));
    circuits.push_back(lib::cuccaroAdder(2));
    circuits.push_back(lib::hiddenShift(secretBits(2, 0b11)));
    circuits.push_back(lib::ghzLadder(4));
    return featuresOfCircuits(circuits);
}

std::vector<FeatureVector>
pplProxyFeaturePoints()
{
    namespace lib = qc::library;
    std::vector<qc::Circuit> circuits;
    circuits.push_back(lib::ghzLadder(3));
    circuits.push_back(lib::wState(3));
    circuits.push_back(lib::bernsteinVazirani(secretBits(3, 0b110)));
    circuits.push_back(lib::qft(3));
    circuits.push_back(lib::toffoliChain(3));
    circuits.push_back(lib::hiddenShift(secretBits(4, 0b1001)));
    circuits.push_back(lib::cuccaroAdder(1));
    circuits.push_back(lib::qft(5));
    circuits.push_back(lib::ghzLadder(5));
    return featuresOfCircuits(circuits);
}

std::vector<FeatureVector>
cbgProxyFeaturePoints(std::size_t count)
{
    // Shallow structured family: H layer + nearest-neighbour CZ brick
    // + RZ layer, repeated; instances sweep width and bricks. A small
    // fraction uses an ancilla measure+reset round, giving the family
    // a thin measurement extent (hence tiny but nonzero volume).
    std::vector<qc::Circuit> circuits;
    std::size_t idx = 0;
    for (std::size_t n = 2; circuits.size() < count; ++n) {
        if (n > 30)
            n = 2;
        for (std::size_t bricks = 1; bricks <= 4 && circuits.size() < count;
             ++bricks, ++idx) {
            qc::Circuit c(n, n, "cbg_" + std::to_string(idx));
            for (std::size_t q = 0; q < n; ++q)
                c.h(static_cast<qc::Qubit>(q));
            for (std::size_t b = 0; b < bricks; ++b) {
                for (std::size_t q = b % 2; q + 1 < n; q += 2)
                    c.cz(static_cast<qc::Qubit>(q),
                         static_cast<qc::Qubit>(q + 1));
                for (std::size_t q = 0; q < n; ++q)
                    c.rz(0.1 + 0.05 * static_cast<double>(b + q),
                         static_cast<qc::Qubit>(q));
            }
            if (idx % 17 == 0 && n >= 3) {
                c.measure(0, 0);
                c.reset(0);
                c.h(0);
            }
            c.measureAll();
            circuits.push_back(std::move(c));
        }
    }
    return featuresOfCircuits(circuits);
}

} // namespace smq::core
