#include <sched.h>

#include <atomic>

#include "bench.hh"

namespace perf_e2e
{

namespace
{

/** Pin the calling thread to one CPU. A refusal only leaves the
 * placement to the scheduler, so it is not an error. */
void
pinTo(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    ::sched_setaffinity(0, sizeof set, &set);
}

} // namespace

CyclePacer::CyclePacer(std::size_t cycleLength, double seconds,
                       std::size_t minOps)
    : length_(cycleLength), seconds_(seconds), minOps_(minOps)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) != 0)
        return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &set))
            cpus_.push_back(cpu);
}

CyclePacer::~CyclePacer()
{
    if (cpus_.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus_)
        CPU_SET(cpu, &set);
    ::sched_setaffinity(0, sizeof set, &set);
}

bool
CyclePacer::next(std::size_t i, Pass &pass)
{
    if (i % length_ != 0)
        return true;
    if (i >= minOps_) {
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - start_).count();
        if (elapsed >= seconds_) {
            pass.wallSeconds = elapsed;
            return false;
        }
    }
    // The rotation carries on across passes, so short passes (the
    // traced run's) still visit every CPU.
    static std::atomic<std::size_t> cycle{0};
    if (!cpus_.empty())
        pinTo(cpus_[cycle++ % cpus_.size()]);
    return true;
}

} // namespace perf_e2e
