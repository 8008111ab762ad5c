/**
 * @file
 * Benchmark suites: the SupermarQ instances evaluated in the paper's
 * figures plus the proxy suites of the Table I coverage comparison.
 *
 * Proxy composition follows DESIGN.md Sec. 5: the published circuit
 * counts and qubit ranges of QASMBench, TriQ, PPL+2020 and CBG2021
 * are regenerated from the circuit library, since only their feature
 * vectors enter the coverage computation.
 */

#ifndef SMQ_CORE_SUITES_HPP
#define SMQ_CORE_SUITES_HPP

#include <optional>
#include <string_view>
#include <vector>

#include "core/benchmark.hpp"
#include "core/features.hpp"

namespace smq::core {

/**
 * One shard of a partitioned (benchmark x device) grid: this process
 * owns shard `index` of `count`. The default 0/1 owns everything.
 */
struct ShardSpec
{
    std::size_t index = 0;
    std::size_t count = 1;

    /** Whether the grid is actually split (count > 1). */
    bool active() const { return count > 1; }

    /** "i/N" — the flag syntax, also used in journals/manifests. */
    std::string text() const
    {
        return std::to_string(index) + "/" + std::to_string(count);
    }
};

/**
 * Parse "i/N" (0 <= i < N, N >= 1). Returns nullopt on anything else
 * — including partial parses like "1/3x" — so a mistyped --shard
 * fails loudly instead of silently running the wrong slice.
 */
std::optional<ShardSpec> parseShardSpec(std::string_view text);

/**
 * Deterministic shard assignment of one grid cell, derived with the
 * same label-hash (util::labelSeed) that seeds the cell's simulation
 * streams. Depends only on the two labels — never on row order, grid
 * shape or execution order — so any shard reproduces in isolation
 * and the union over shards covers every cell exactly once.
 */
std::size_t shardOfCell(std::string_view benchmark,
                        std::string_view device,
                        std::size_t shardCount);

/** Whether @p shard owns the (benchmark, device) cell. */
bool shardOwnsCell(const ShardSpec &shard, std::string_view benchmark,
                   std::string_view device);

/**
 * The Fig. 2 benchmark instances: all eight applications at the sizes
 * evaluated in the paper (small enough for every device class).
 * @p jobs workers build them (0 = util::defaultJobs()), the QAOA and
 * VQE parameter searches side by side; the suite, its row order
 * included, is the same at any jobs.
 */
std::vector<BenchmarkPtr> figure2Benchmarks(std::size_t jobs = 1);

/**
 * The smallest instance of each of the eight applications: a fast,
 * representative sweep for smoke runs, job-layer demos and tests. It
 * deliberately includes the mid-circuit-measurement benchmarks (bit
 * and phase code) so capability gating has something to gate.
 */
std::vector<BenchmarkPtr> quickSuite();

/**
 * Feature vectors of the SupermarQ suite for the Table I coverage
 * computation: the eight applications swept from 3 to 1000 qubits
 * (52 instances; variational parameters fixed, as features do not
 * depend on them).
 */
std::vector<FeatureVector> supermarqFeaturePoints();

/** QASMBench proxy: 62 library kernels spanning 2..1000 qubits. */
std::vector<FeatureVector> qasmbenchProxyFeaturePoints();

/**
 * The synthetic suite: hypothetical proxy-benchmarks maximising one
 * feature each (the 6 axis unit vectors) plus the trivial program at
 * the origin. Hull volume is exactly 1/6! ~ 1.4e-3, matching Table I.
 */
std::vector<FeatureVector> syntheticFeaturePoints();

/** TriQ proxy: 12 small (<= 8 qubit) NISQ kernels. */
std::vector<FeatureVector> triqProxyFeaturePoints();

/** PPL+2020 proxy: 9 small (3-5 qubit) kernels. */
std::vector<FeatureVector> pplProxyFeaturePoints();

/**
 * CBG2021 proxy: a dense parametric family of shallow structured
 * circuits (subsampled from the published 10476 instances; hull
 * volume depends only on the extreme points).
 */
std::vector<FeatureVector> cbgProxyFeaturePoints(std::size_t count = 400);

} // namespace smq::core

#endif // SMQ_CORE_SUITES_HPP
