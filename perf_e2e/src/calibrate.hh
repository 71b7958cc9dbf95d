/**
 * @file
 * Same-run host calibration. The benchmark host may be a shared,
 * oversubscribed VM whose CPU ceiling drifts from run to run, so each
 * run records how fast a pure ALU loop spins on one and on three
 * threads, and how much CPU time the hypervisor stole, sampled before
 * and after the measurement. These are context for reading a result,
 * not end-to-end metrics.
 */

#ifndef PERF_E2E_CALIBRATE_HH
#define PERF_E2E_CALIBRATE_HH

#include <cstdint>

#include "support/json.hh"

namespace perf_e2e
{

/** Cumulative /proc/stat "cpu" jiffies. */
struct CpuTimes
{
    std::uint64_t total = 0;
    std::uint64_t steal = 0;
    bool ok = false;
};

CpuTimes readCpuTimes();

/** Share (0..1) of CPU time stolen between two samples. */
double stealShare(const CpuTimes &before, const CpuTimes &after);

/** {"spin_1t_mips", "spin_3t_mips", "scaling_3t"} sampled now. */
lfm::support::Json sampleSpin();

} // namespace perf_e2e

#endif // PERF_E2E_CALIBRATE_HH
