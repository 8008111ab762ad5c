/**
 * @file
 * Name-driven construction of benchmark instances and device lookup
 * for the serve layer.
 *
 * Batch tools iterate suites built in code; a daemon receives the
 * benchmark as a *string* and must reconstruct the instance. The
 * factory inverts the canonical Benchmark::name() grammar — the same
 * names the Fig. 2 grid, checkpoint journals and history records use:
 *
 *     ghz_<N>                        GhzBenchmark(N)
 *     mermin_bell_<N>                MerminBellBenchmark(N)
 *     bit_code_<D>d<R>r              BitCodeBenchmark::alternating(D, R)
 *     phase_code_<D>d<R>r            PhaseCodeBenchmark::alternating(D, R)
 *     qaoa_vanilla_<N>[_p<P>]        QaoaVanillaBenchmark(N, 1, true, P)
 *     qaoa_zzswap_<N>[_p<P>]         QaoaSwapBenchmark(N, 1, true, P)
 *     vqe_<N>                        VqeBenchmark(N, 1)
 *     hamiltonian_sim_<N>q<S>s       HamiltonianSimulationBenchmark(N, S)
 *
 * Variational benchmarks (QAOA, VQE) use their default problem seed,
 * so a name maps to exactly one instance and the cache key derived
 * from its circuits is stable across daemon restarts. For QAOA that
 * is not the batch tools' instance: the name carries no seed, and
 * figure2Benchmarks() builds SK seed N, quickSuite() seed 3, this
 * factory seed 1. So qaoa_vanilla_4 names three different instances,
 * and no submit reproduces a Fig. 2 QAOA cell. Every other name
 * builds the instance the batch tools build.
 */

#ifndef SMQ_SERVE_FACTORY_HPP
#define SMQ_SERVE_FACTORY_HPP

#include <string_view>
#include <vector>

#include "core/benchmark.hpp"
#include "device/device.hpp"

namespace smq::serve {

/**
 * Build the benchmark instance named by @p name under the canonical
 * grammar above. Returns nullptr for names outside the grammar or
 * with out-of-range sizes (the daemon maps that to unknown_benchmark).
 * Postcondition: makeBenchmark(n)->name() == n for accepted names.
 */
core::BenchmarkPtr makeBenchmark(std::string_view name);

/**
 * Find @p name in @p devices (exact match on Device::name). Returns
 * nullptr when absent (the daemon maps that to unknown_device).
 */
const device::Device *findDevice(std::string_view name,
                                 const std::vector<device::Device> &devices);

} // namespace smq::serve

#endif // SMQ_SERVE_FACTORY_HPP
