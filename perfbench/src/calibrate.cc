/**
 * @file
 * Host-speed calibration. The host is shared, and the speed it gives
 * one thread drifts by tens of percent within minutes, so a raw host
 * time compares two moments of the host as much as two versions of
 * the simulator. A fixed kernel, written here and not taken from the
 * simulator sources, runs just before and just after each timed
 * section, on as many threads as the workload uses, and once after
 * the set-up. Its time is the
 * threads' mean CPU time, so a wait for a CPU does not count.
 * kNominalCalS over that time is the host's speed just then, and the
 * gated host-time metrics are scaled to the nominal speed with it.
 *
 * The kernel looks like the simulator's hot path: a 16-way LRU tag
 * array of 256 KB probed by a stream with some locality, and a
 * perceptron of four hashed weight tables trained on each probe's
 * outcome. Its inputs are fixed, so its checksum is the same on every
 * call. Changing the kernel or kNominalCalS rescales every scaled
 * figure, so neither may change without a new baseline.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench.hh"
#include "spans.hh"

namespace perfbench
{

namespace
{

constexpr std::size_t kSets = 2048;
constexpr std::size_t kWays = 16;
constexpr std::size_t kWeights = 1024;
constexpr std::uint64_t kProbes = 1'000'000;

/** One run of the kernel from a cold state; returns its checksum. */
std::uint64_t
kernel()
{
    std::vector<std::uint64_t> tags(kSets * kWays, ~std::uint64_t{0});
    std::vector<std::uint8_t> age(kSets * kWays, 0);
    std::array<std::array<std::int8_t, kWeights>, 4> w{};
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    std::uint64_t hits = 0;
    std::int64_t sum = 0;
    for (std::uint64_t i = 0; i < kProbes; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        // Three probes in four go to a 64K-line hot region.
        const std::uint64_t mask = (x >> 62) ? 0x3FFF : 0xFFFFFF;
        const std::uint64_t line = (x >> 24) & mask;
        const std::size_t set = line % kSets;
        const std::uint64_t tag = line / kSets;
        std::uint64_t *t = &tags[set * kWays];
        std::uint8_t *a = &age[set * kWays];
        std::size_t way = kWays;
        for (std::size_t k = 0; k < kWays; ++k)
            if (t[k] == tag) {
                way = k;
                break;
            }
        const bool hit = way != kWays;
        if (!hit) {
            way = static_cast<std::size_t>(
                std::max_element(a, a + kWays) - a);
            t[way] = tag;
        } else {
            ++hits;
        }
        for (std::size_t k = 0; k < kWays; ++k)
            a[k] = static_cast<std::uint8_t>(
                a[k] + (a[k] < 255 && k != way));
        a[way] = 0;

        int s = 0;
        std::array<std::size_t, 4> idx{};
        for (std::size_t j = 0; j < 4; ++j) {
            idx[j] = ((line >> (3 * j)) ^ (line * (j + 7))) % kWeights;
            s += w[j][idx[j]];
        }
        const bool miss = !hit;
        if ((s >= 0) != miss || (s < 8 && s > -8))
            for (std::size_t j = 0; j < 4; ++j) {
                std::int8_t &v = w[j][idx[j]];
                v = static_cast<std::int8_t>(
                    std::clamp(v + (miss ? 1 : -1), -32, 31));
            }
        sum += s;
    }
    return hits * 1'000'003 + static_cast<std::uint64_t>(sum);
}

} // namespace

double
calibrate(int threads)
{
    static std::uint64_t expected = 0;
    const auto n = static_cast<std::size_t>(threads);
    std::vector<std::uint64_t> sums(n);
    std::vector<std::int64_t> cpu_ns(n);
    auto run = [&sums, &cpu_ns](std::size_t i) {
        const std::int64_t t0 = threadCpuNs();
        sums[i] = kernel();
        cpu_ns[i] = threadCpuNs() - t0;
    };
    if (n == 1) {
        run(0);
    } else {
        std::vector<std::thread> pool;
        for (std::size_t i = 0; i < n; ++i)
            pool.emplace_back(run, i);
        for (auto &t : pool)
            t.join();
    }
    double s = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (expected == 0)
            expected = sums[i];
        if (sums[i] != expected)
            throw std::runtime_error("calibration kernel checksum changed");
        s += static_cast<double>(cpu_ns[i]) * 1e-9;
    }
    return s / static_cast<double>(n);
}

} // namespace perfbench
