/**
 * @file
 * What one benchmark run reports: metrics, correctness tallies, the
 * machine it ran on, and the JSON forms of all three.
 */
#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The outcome of one workload run. */
struct RunResult
{
    /** Requests whose outputs the run checked: every timed request,
     * plus the warm-ups of optimize_d5. */
    std::size_t attempted = 0;
    /** Indices of requests that threw or failed a check. */
    std::set<std::size_t> failedRequests;
    /** One line per failed check. */
    std::vector<std::string> problems;

    /** End-to-end metrics (untraced runs) or per-layer metrics (traced
     * runs): exactly what the final JSON line carries. */
    std::vector<Metric> metrics;
    /** Further facts for the artifact and the human-readable table:
     * sample counts, tail latencies, workload settings. */
    std::vector<Metric> info;
    /** Spans of a traced run's replay (empty otherwise). */
    Tracer tracer;
    /** The "api.request" spans of a traced run's Engine requests. */
    Tracer requestSpans;

    /** Record a failed check against request @p request. */
    void fail(std::size_t request, const std::string &why);

    bool
    correct() const
    {
        return failedRequests.empty() && problems.empty();
    }
};

/** The machine and build a run measured. */
struct Machine
{
    unsigned nproc = 0;
    bool avx2 = false;
    bool avx512f = false;
    std::string buildType;
    std::string compiler;
    std::string commit;
};

Machine probeMachine(const std::string &commit);

/**
 * Every per-layer metric the benchmark defines, in a fixed order, from
 * a traced replay. Times come from the tracer's span totals and
 * counters from @p counts; both are divided by @p requests, the number
 * of requests replayed. A layer the workload never calls reads 0.
 */
std::vector<Metric>
perLayerMetrics(const Tracer &tracer, std::size_t requests,
                const std::map<std::string, double> &counts);

/** The last line of standard output: correct, attempted, failed and the
 * run's metrics. */
std::string resultLine(const RunResult &r);

/** The full artifact of a run: machine, workload, seed, every metric
 * and info fact, problems, and (traced runs) the replay and request
 * spans. */
std::string artifactJson(const Machine &m, const std::string &workload,
                         uint64_t seed, double seconds, bool trace,
                         const RunResult &r);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
