/**
 * @file
 * Sample statistics of the benchmark: medians, nearest-rank
 * percentiles, and the tail rule the benchmark reports latencies by —
 * a percentile counts only when at least ten samples lie beyond it.
 */

#ifndef PERF_E2E_STATS_HH
#define PERF_E2E_STATS_HH

#include <cstddef>
#include <vector>

namespace perf_e2e
{

/** Samples a reported tail percentile must leave beyond it. */
inline constexpr std::size_t kMinBeyond = 10;

/** Arithmetic mean; 0 when empty. */
double mean(const std::vector<double> &samples);

/** Median (mean of the middle two for an even count); 0 when empty. */
double median(std::vector<double> samples);

/** Nearest-rank p-th percentile (0 < p <= 100); 0 when empty. */
double percentile(std::vector<double> samples, double p);

/** Samples strictly beyond the nearest-rank p-th percentile of n. */
std::size_t samplesBeyond(std::size_t n, double p);

/** The fewest samples that leave minBeyond beyond the p-th percentile. */
std::size_t samplesNeeded(double p, std::size_t minBeyond = kMinBeyond);

/**
 * The highest of the percentiles 50, 75, 90, 95, 99 and 99.9 that has
 * at least minBeyond of n samples beyond it; 0 when not even the
 * median has.
 */
double highestPercentile(std::size_t n,
                         std::size_t minBeyond = kMinBeyond);

} // namespace perf_e2e

#endif // PERF_E2E_STATS_HH
