// smqbench_calibrate: a fixed reference workload that shares the
// program's CPU, so run.py can tell how fast that CPU was while it
// measured the program.
//
//   smqbench_calibrate [REPS]
//   smqbench_calibrate --sample PERIOD_MS
//
// Each repetition applies 8000 dense 2x2 gates to an 8-qubit state
// vector, asks std::thread::hardware_concurrency() once per gate and
// copies the state every 64 gates: the mix of arithmetic, system calls
// and allocation a simulator kernel dispatch makes. The first form
// prints the median of REPS repetition times in seconds. The second
// runs a 1/32 slice of a repetition every PERIOD_MS until its stdin
// closes, then prints the median slice time times 32: the speed of the
// CPU it is pinned to while the program runs there, at a duty cycle
// short slices keep small. It links nothing from the repository, so no
// change to the program can change it.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

namespace {

using Amp = std::complex<double>;

constexpr int kGates = 8000;
constexpr int kSlices = 32;

double
run(int gates)
{
    constexpr int kQubits = 8;
    const auto start = std::chrono::steady_clock::now();
    std::vector<Amp> psi(std::size_t(1) << kQubits, Amp(0.0625, 0.0));
    unsigned threads = 0;
    for (int g = 0; g < gates; ++g) {
        threads += std::thread::hardware_concurrency();
        const std::size_t bit = std::size_t(1) << (g % kQubits);
        const Amp a(0.8, 0.1 * (g & 3)), b(0.6, -0.05), c(-0.6, 0.05),
            d(0.8, -0.1 * (g & 3));
        for (std::size_t i = 0; i < psi.size(); ++i) {
            if (i & bit)
                continue;
            const Amp x = psi[i], y = psi[i | bit];
            psi[i] = a * x + b * y;
            psi[i | bit] = c * x + d * y;
        }
        if (g % 64 == 0) {
            std::vector<Amp> copy(psi);
            psi.swap(copy);
        }
    }
    const auto end = std::chrono::steady_clock::now();
    // Keep the result observable so the loop is not optimised away.
    if (threads == 0 || !std::isfinite(std::abs(psi[0])))
        std::puts("calibration state diverged");
    return std::chrono::duration<double>(end - start).count();
}

double
median(std::vector<double> times)
{
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<double> times;
    if (argc > 2 && std::strcmp(argv[1], "--sample") == 0) {
        const auto period =
            std::chrono::milliseconds(std::max(1, std::atoi(argv[2])));
        std::atomic<bool> done{false};
        std::thread watcher([&done] {
            while (std::fgetc(stdin) != EOF) {
            }
            done = true;
        });
        // Sleep first: the program starts alone, and a phase shorter
        // than a period still gets the one slice after it.
        do {
            std::this_thread::sleep_for(period);
            times.push_back(run(kGates / kSlices) * kSlices);
        } while (!done);
        watcher.join();
        std::printf("%.9f %zu\n", median(times), times.size());
        return 0;
    }
    const int reps = argc > 1 ? std::max(1, std::atoi(argv[1])) : 3;
    for (int r = 0; r < reps; ++r)
        times.push_back(run(kGates));
    std::printf("%.9f\n", median(times));
    return 0;
}
