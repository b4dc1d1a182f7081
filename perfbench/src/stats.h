/**
 * @file
 * Order statistics of the benchmark's timing samples.
 */
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace perfbench {

/** The @p q quantile (0..1) of @p samples, linearly interpolated between
 * order statistics; 0 for an empty sample. */
double quantile(std::vector<double> samples, double q);

inline double
median(std::vector<double> samples)
{
    return quantile(std::move(samples), 0.5);
}

/** A latency distribution reduced to what the benchmark reports. */
struct LatencySummary
{
    std::size_t count = 0;
    double p50 = 0.0;
    /** Highest of p99/p95/p90/p75 with at least ten samples above it
     * (tailQ = 0 when even p75 has fewer). */
    double tailQ = 0.0;
    double tail = 0.0;
};

LatencySummary summarize(const std::vector<double> &samples);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
