#include "calibrate.hh"

#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace perf_e2e
{

CpuTimes
readCpuTimes()
{
    CpuTimes times;
    std::ifstream in("/proc/stat");
    std::string line;
    if (!std::getline(in, line))
        return times;
    std::istringstream fields(line);
    std::string label;
    fields >> label;
    if (label != "cpu")
        return times;
    // user nice system idle iowait irq softirq steal ...
    std::uint64_t value = 0;
    for (int i = 0; i < 8 && fields >> value; ++i) {
        times.total += value;
        if (i == 7) {
            times.steal = value;
            times.ok = true;
        }
    }
    return times;
}

double
stealShare(const CpuTimes &before, const CpuTimes &after)
{
    if (!before.ok || !after.ok || after.total <= before.total)
        return 0.0;
    return static_cast<double>(after.steal - before.steal) /
           static_cast<double>(after.total - before.total);
}

namespace
{

/** Million ALU loop iterations per second, summed over `threads`
 * spinning for `seconds`. */
double
spinRate(unsigned threads, double seconds)
{
    std::atomic<bool> stop{false};
    std::vector<std::uint64_t> iterations(threads, 0);
    std::vector<std::uint64_t> sinks(threads, 0);
    std::vector<std::thread> workers;
    const auto start = std::chrono::steady_clock::now();
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            std::uint64_t x = 0x9e3779b97f4a7c15ull + t;
            std::uint64_t n = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                for (int i = 0; i < 4096; ++i) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                }
                n += 4096;
            }
            iterations[t] = n;
            sinks[t] = x;
        });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop = true;
    for (auto &w : workers)
        w.join();
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    std::uint64_t total = 0;
    for (unsigned t = 0; t < threads; ++t)
        total += iterations[t] + (sinks[t] & 1);
    return static_cast<double>(total) / elapsed / 1e6;
}

} // namespace

lfm::support::Json
sampleSpin()
{
    const double one = spinRate(1, 0.1);
    const double three = spinRate(3, 0.1);
    lfm::support::Json doc;
    doc.set("spin_1t_mips", one)
        .set("spin_3t_mips", three)
        .set("scaling_3t", one > 0.0 ? three / one : 0.0);
    return doc;
}

} // namespace perf_e2e
