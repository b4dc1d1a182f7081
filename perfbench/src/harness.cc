#include "harness.h"

#include <algorithm>
#include <exception>

#include "sim/frame_sampler.h"
#include "sim/parallel_sampler.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using namespace prophunt;

uint64_t
requestSeed(uint64_t run_seed, uint64_t index)
{
    // Random access into the SplitMix64 stream of the salted run seed.
    return sim::shardSeed(run_seed ^ 0x7f4a7c159e3779b9ULL, index);
}

double
medianSetupSeconds(std::size_t reps,
                   const std::function<void(std::size_t)> &setup)
{
    std::vector<double> times;
    for (std::size_t r = 0; r < std::max<std::size_t>(reps, 1); ++r) {
        Clock::time_point t0 = Clock::now();
        setup(r);
        times.push_back(secondsSince(t0));
    }
    return median(times);
}

LoopTimes
closedLoop(double seconds, Tracer *tracer, RunResult &result,
           const std::function<void(std::size_t)> &request)
{
    LoopTimes loop;
    Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i == 0 || secondsSince(start) < seconds; ++i) {
        bool traced = tracer != nullptr && i % 2 == 1;
        Clock::time_point t0 = Clock::now();
        ++result.attempted;
        try {
            Tracer::Scope span(traced ? tracer : nullptr, "api.request", i);
            request(i);
        } catch (const std::exception &e) {
            result.fail(i, "request " + std::to_string(i) +
                               " threw: " + e.what());
        }
        loop.latency.push_back(secondsSince(t0));
        loop.traced.push_back(traced);
    }
    loop.wallSeconds = secondsSince(start);
    return loop;
}

std::vector<Metric>
loopInfo(const LoopTimes &loop)
{
    const LatencySummary lat = summarize(loop.latency);
    return {
        {"requests", (double)lat.count, "count"},
        {"request_p50_s", lat.p50, "s"},
        {"request_tail_q", lat.tailQ, "frac"},
        {"request_tail_s", lat.tail, "s"},
        {"timed_wall_s", loop.wallSeconds, "s"},
        {"threads", (double)sim::resolveThreads(0), "count"},
    };
}

double
overheadFrac(const LoopTimes &loop)
{
    std::vector<double> on, off;
    for (std::size_t i = 0; i < loop.latency.size(); ++i) {
        (loop.traced[i] ? on : off).push_back(loop.latency[i]);
    }
    if (on.empty() || off.empty()) {
        return 0.0;
    }
    return median(on) / median(off) - 1.0;
}

void
replayAndReport(RunResult &result, const LoopTimes &loop, double seconds,
                Counters &counts,
                const std::function<void(std::size_t)> &replay)
{
    double serial = 0.0, engine_wall = 0.0;
    std::size_t replayed = 0;
    Clock::time_point start = Clock::now();
    while (replayed < loop.latency.size() &&
           (replayed == 0 || secondsSince(start) < seconds)) {
        Clock::time_point t0 = Clock::now();
        replay(replayed);
        serial += secondsSince(t0);
        engine_wall += loop.latency[replayed];
        ++replayed;
    }
    counts["api.parallel_efficiency"] =
        engine_wall == 0.0
            ? 0.0
            : serial / (engine_wall * (double)sim::resolveThreads(0));
    counts["trace.overhead_frac"] = overheadFrac(loop);
    result.info.push_back({"replayed_requests", (double)replayed, "count"});
    result.metrics = perLayerMetrics(result.tracer, replayed, counts);
}

BasisTally
replayShards(const sim::Dem &dem, decoder::Decoder &dec, std::size_t shots,
             uint64_t seed, std::size_t shard_shots, Tracer *tracer,
             uint64_t request, Counters &counts)
{
    BasisTally tally;
    if (shots == 0) {
        return tally;
    }
    // The plan decoder::measureDemLer (and so the decode service) uses.
    sim::ShardPlan plan{
        shots, std::min(std::max<std::size_t>(shard_shots, 1), shots)};
    sim::FrameBatch frames;
    std::vector<uint64_t> predicted;
    std::vector<uint64_t> expected;
    for (std::size_t shard = 0; shard < plan.numShards(); ++shard) {
        const std::size_t n = plan.shotsOf(shard);
        {
            Tracer::Scope span(tracer, "sim.sample", request);
            sim::sampleDemFramesInto(dem, n, sim::shardSeed(seed, shard),
                                     frames);
        }
        predicted.assign(n, 0);
        decoder::PackedDecodeStats stats;
        {
            Tracer::Scope span(tracer, "decoder.decode", request);
            dec.decodePacked(frames.view(), predicted.data(), &stats);
        }
        frames.obsMasks(expected);
        for (std::size_t s = 0; s < n; ++s) {
            tally.failures += predicted[s] != expected[s] ? 1 : 0;
        }
        tally.shots += n;
        tally.packed += stats;
    }
    counts["decoder.shots"] += (double)tally.shots;
    counts["decoder.osd_shots"] += (double)tally.packed.osdShots;
    counts["decoder.osd_us"] += (double)tally.packed.osdUs;
    counts["decoder.lane_busy"] += (double)tally.packed.laneSlotsBusy;
    counts["decoder.lane_total"] += (double)tally.packed.laneSlotsTotal;
    return tally;
}

bool
sameTally(const BasisTally &replay, const decoder::LerResult &engine)
{
    // Every packed counter except the wall-clock osdUs is part of the
    // engine's bit-identity contract.
    const decoder::PackedDecodeStats &a = replay.packed;
    const decoder::PackedDecodeStats &b = engine.packed;
    return replay.shots == engine.shots &&
           replay.failures == engine.failures &&
           a.packedShots == b.packedShots &&
           a.adapterShots == b.adapterShots &&
           a.laneSlotsBusy == b.laneSlotsBusy &&
           a.laneSlotsTotal == b.laneSlotsTotal &&
           a.osdShots == b.osdShots;
}

std::string
describeTally(const BasisTally &replay, const decoder::LerResult &engine)
{
    return "replay " + std::to_string(replay.failures) + "/" +
           std::to_string(replay.shots) + " (osd " +
           std::to_string(replay.packed.osdShots) + ") vs engine " +
           std::to_string(engine.failures) + "/" +
           std::to_string(engine.shots) + " (osd " +
           std::to_string(engine.packed.osdShots) + ")";
}

} // namespace perfbench
