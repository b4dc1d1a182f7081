/**
 * @file
 * The benchmark's three closed-loop workloads over prophunt::api::Engine.
 *
 * Every workload runs from one client that sends its next request only
 * after the previous one returned, against an Engine with its default
 * pool (hardware concurrency). A run has three phases:
 *
 *  1. set-up, repeated setupReps times (once in traced runs): build the
 *     code and schedule, construct an Engine, and serve one warm-up
 *     request; the last Engine is kept. setup_s is the median.
 *  2. the timed loop: requests for RunOptions::seconds (at least one).
 *     Untraced runs report the end-to-end metrics; traced runs
 *     alternate traced and untraced requests for trace.overhead_frac.
 *  3. checks, and in traced runs the single-thread replay of the same
 *     requests through the layers' public functions, which yields the
 *     per-layer metrics.
 *
 * Per-request seeds derive from the run's seed (requestSeed), so two
 * runs with one seed issue identical requests.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "report.h"

namespace perfbench {

struct RunOptions
{
    uint64_t seed = 1;
    /** Length of the timed loop; at least one request always runs. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
};

/** Seed of request @p index of a run seeded with @p run_seed. Distinct
 * per index, and a pure function of both arguments. */
uint64_t requestSeed(uint64_t run_seed, uint64_t index);

/** Index space of warm-up requests, disjoint from any timed index. */
inline constexpr uint64_t kWarmupIndex = uint64_t(1) << 62;

/** Seed of the warm-up request of set-up @p rep. Independent of the run
 * seed, so every run's set-up does identical work. */
inline uint64_t
warmupSeed(std::size_t rep)
{
    return requestSeed(0, kWarmupIndex + rep);
}

/** ler_rqt54: warm LerRequests on the rqt54 coloration schedule. */
struct LerConfig
{
    std::size_t rounds = 4;
    double p = 1e-3;
    /** Shots per memory basis. */
    std::size_t shots = 2048;
    /** Shard size: 16 shards per basis, several per pool thread, so a
     * thread slowed by a busy core does not hold up the request. */
    std::size_t shardShots = 128;
    std::size_t setupReps = 9;
};

/** sweep_lp39: SPRT SweepRequests on the lp39 coloration schedule, each
 * on a cleared artifact cache. */
struct SweepConfig
{
    std::size_t rounds = 3;
    std::vector<double> ps{5e-4, 1e-3, 1.5e-3, 2e-3, 3e-3, 4e-3};
    double decisionLer = 5e-3;
    std::size_t shotsPerPoint = 20000;
    /** Shard size: one 1024-shot SPRT chunk is eight shards. */
    std::size_t shardShots = 128;
    std::size_t setupReps = 9;
};

/** optimize_d5: portfolio OptimizeRequests on poorSurfaceSchedule. */
struct OptimizeConfig
{
    std::size_t distance = 5;
    std::size_t rounds = 5;
    uint64_t beamExpansions = 4000;
    uint64_t bnbExpansions = 8000;
    std::size_t iterations = 4;
    std::size_t samplesPerIteration = 200;
    /** Fixed: the request, and so its objective, is bit-deterministic. */
    uint64_t seed = 29;
    /** Far above any solve of this workload, so it never fires. */
    double satTimeoutSeconds = 600.0;
    std::size_t setupReps = 3;
};

RunResult runLer(const RunOptions &opts, const LerConfig &cfg = {});
RunResult runSweep(const RunOptions &opts, const SweepConfig &cfg = {});
RunResult runOptimize(const RunOptions &opts,
                      const OptimizeConfig &cfg = {});

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
