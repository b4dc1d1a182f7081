/**
 * @file
 * Pieces the three workloads share: the closed request loop, repeated
 * set-up, and the single-thread shard replay of one LER measurement.
 */
#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "decoder/decoder.h"
#include "decoder/logical_error.h"
#include "report.h"
#include "sim/dem.h"
#include "trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Named counters of a traced replay (totals over the replayed
 * requests; perLayerMetrics divides by the request count). */
using Counters = std::map<std::string, double>;

/**
 * Time @p reps calls of @p setup and return the median, in seconds.
 * Each call builds the workload's state from scratch; the caller keeps
 * the last one.
 */
double medianSetupSeconds(std::size_t reps,
                          const std::function<void(std::size_t)> &setup);

/** Latencies of one closed-loop pass. */
struct LoopTimes
{
    std::vector<double> latency;
    /** Parallel to latency: the request ran inside an "api.request"
     * span (traced runs alternate, starting untraced). */
    std::vector<bool> traced;
    double wallSeconds = 0.0;
};

/**
 * Issue request(i) for i = 0, 1, ... one at a time until @p seconds
 * have passed (at least one request). A request that throws is
 * recorded as failed in @p result. With @p tracer set, every second
 * request runs inside an "api.request" span.
 */
LoopTimes closedLoop(double seconds, Tracer *tracer, RunResult &result,
                     const std::function<void(std::size_t)> &request);

/** The loop's info facts: request count, median and tail latency,
 * timed wall time, and the pool's thread count. */
std::vector<Metric> loopInfo(const LoopTimes &loop);

/** Traced over untraced median latency, minus one. */
double overheadFrac(const LoopTimes &loop);

/**
 * The traced tail of a run. Replays requests 0, 1, ... of @p loop with
 * @p replay(i) on the calling thread: always request 0, then more until
 * @p seconds have passed. Derives api.parallel_efficiency (replay wall
 * over Engine wall of the same requests times the pool's threads) and
 * trace.overhead_frac, and sets result.metrics to the per-layer
 * metrics of the replay.
 */
void replayAndReport(RunResult &result, const LoopTimes &loop,
                     double seconds, Counters &counts,
                     const std::function<void(std::size_t)> &replay);

/** One basis of one LER measurement, tallied shard by shard. */
struct BasisTally
{
    std::size_t shots = 0;
    std::size_t failures = 0;
    prophunt::decoder::PackedDecodeStats packed;
};

/**
 * Sample and decode @p shots shots of @p dem on the calling thread,
 * shard by shard with the engine's shard plan and seeds
 * (sim::shardSeed(seed, shard)), so the tally equals the engine's bit
 * for bit. Spans: "sim.sample" and "decoder.decode" per shard; the
 * decode counters accumulate into @p counts.
 */
BasisTally replayShards(const prophunt::sim::Dem &dem,
                        prophunt::decoder::Decoder &dec,
                        std::size_t shots, uint64_t seed,
                        std::size_t shard_shots, Tracer *tracer,
                        uint64_t request, Counters &counts);

/** True iff a replayed tally equals the engine's result exactly. */
bool sameTally(const BasisTally &replay,
               const prophunt::decoder::LerResult &engine);

/** "z 2048/581 osd 190" style summary of a mismatch. */
std::string describeTally(const BasisTally &replay,
                          const prophunt::decoder::LerResult &engine);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
