#include "sim/memory.hpp"

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/cli.hpp"

namespace smq::sim {

namespace {

constexpr std::size_t kDefaultBudget = std::size_t{4} << 30; // 4 GiB

/**
 * SMQ_SIM_MEM_MB, a whole number of MiB whose byte count fits a
 * size_t; anything else keeps the default, with one warning.
 */
std::size_t
defaultBudget()
{
    const char *env = std::getenv("SMQ_SIM_MEM_MB");
    if (env == nullptr)
        return kDefaultBudget;
    constexpr std::uint64_t kMaxMb =
        std::numeric_limits<std::size_t>::max() >> 20;
    const std::optional<std::uint64_t> mb = util::parseUnsigned(env);
    if (mb && *mb > 0 && *mb <= kMaxMb)
        return static_cast<std::size_t>(*mb) << 20;
    std::cerr << "warning: ignoring SMQ_SIM_MEM_MB='" << env
              << "' (want MiB from 1 to " << kMaxMb << "); keeping the "
              << (kDefaultBudget >> 20) << " MiB default\n";
    return kDefaultBudget;
}

/** 0 = use defaultBudget(); anything else is an explicit override. */
std::atomic<std::size_t> g_override{0};

} // namespace

std::size_t
memoryBudgetBytes()
{
    std::size_t override = g_override.load(std::memory_order_relaxed);
    if (override != 0)
        return override;
    static const std::size_t from_env = defaultBudget();
    return from_env;
}

void
setMemoryBudgetBytes(std::size_t bytes)
{
    g_override.store(bytes, std::memory_order_relaxed);
}

std::size_t
denseBytes(std::size_t numQubits, std::size_t bytesPerAmp, bool squared)
{
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    // Saturate before the bit count itself can wrap: 2 * numQubits
    // overflows for numQubits > SIZE_MAX / 2, long past any register
    // the planner will ever ask about but exactly the kind of width a
    // fuzzer feeds a budget check.
    if (numQubits >= 8 * sizeof(std::size_t))
        return kMax;
    const std::size_t bits = squared ? 2 * numQubits : numQubits;
    if (bits >= 8 * sizeof(std::size_t))
        return kMax;
#if defined(__SIZEOF_INT128__)
    // Checked 128-bit arithmetic: the product is computed exactly and
    // compared against SIZE_MAX, so a 40-qubit density matrix reports
    // its true (astronomical) cost as saturation, never as a silent
    // wrap to a small number that would pass the budget.
    const unsigned __int128 total =
        (static_cast<unsigned __int128>(1) << bits) *
        static_cast<unsigned __int128>(bytesPerAmp);
    if (total > static_cast<unsigned __int128>(kMax))
        return kMax;
    return static_cast<std::size_t>(total);
#else
    const std::size_t states = std::size_t{1} << bits;
    if (bytesPerAmp != 0 && states > kMax / bytesPerAmp)
        return kMax;
    return states * bytesPerAmp;
#endif
}

void
checkAllocationBudget(const std::string &what, std::size_t bytes)
{
    const std::size_t budget = memoryBudgetBytes();
    if (bytes <= budget) {
        // Every budget-checked simulator allocation is accounted here,
        // so per-job manifests can report how much state a run sized.
        static obs::Counter &alloc_bytes =
            obs::counter(obs::names::kSimAllocBytes);
        alloc_bytes.add(bytes);
        return;
    }
    throw ResourceExhausted(
        what + " needs " + std::to_string(bytes >> 20) +
            " MiB, over the simulator memory budget of " +
            std::to_string(budget >> 20) +
            " MiB (SMQ_SIM_MEM_MB raises it)",
        bytes, budget);
}

} // namespace smq::sim
