#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty()) {
        return 0.0;
    }
    std::sort(samples.begin(), samples.end());
    double pos = std::clamp(q, 0.0, 1.0) * (double)(samples.size() - 1);
    std::size_t lo = (std::size_t)std::floor(pos);
    std::size_t hi = std::min(lo + 1, samples.size() - 1);
    double frac = pos - (double)lo;
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

LatencySummary
summarize(const std::vector<double> &samples)
{
    LatencySummary s;
    s.count = samples.size();
    s.p50 = median(samples);
    for (double q : {0.99, 0.95, 0.90, 0.75}) {
        // The epsilon absorbs rounding in 1 - q (0.1 * 100 < 10).
        if ((1.0 - q) * (double)samples.size() + 1e-9 >= 10.0) {
            s.tailQ = q;
            s.tail = quantile(samples, q);
            break;
        }
    }
    return s;
}

} // namespace perfbench
