#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perf_e2e
{

namespace
{

/** 1-based nearest rank of the p-th percentile of n samples. The
 * epsilon keeps p*n/100 from rounding up past an exact integer. */
std::size_t
nearestRank(std::size_t n, double p)
{
    const double exact = p * static_cast<double>(n) / 100.0;
    const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    return std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t mid = samples.size() / 2;
    if (samples.size() % 2 == 1)
        return samples[mid];
    return (samples[mid - 1] + samples[mid]) / 2.0;
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    return samples[nearestRank(samples.size(), p) - 1];
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

std::size_t
samplesNeeded(double p, std::size_t minBeyond)
{
    std::size_t n = minBeyond;
    while (samplesBeyond(n, p) < minBeyond)
        ++n;
    return n;
}

double
highestPercentile(std::size_t n, std::size_t minBeyond)
{
    double best = 0.0;
    for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9})
        if (samplesBeyond(n, p) >= minBeyond)
            best = p;
    return best;
}

} // namespace perf_e2e
