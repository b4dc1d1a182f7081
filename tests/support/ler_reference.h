/**
 * @file
 * Serial Monte-Carlo LER reference: the test oracle for
 * api::DecodeService and api::Engine's LER paths.
 *
 * One decoder, shards in index order: shard i samples
 * plan.shotsOf(i) shots with sim::sampleDemFramesInto(shardSeed(seed, i))
 * and is decoded by decoder::decodeFrameShard; the run stops after the
 * first shard whose cumulative failures reach maxFailures. No threads,
 * no clones, no shared state — the production service must reproduce
 * this loop bit for bit at every thread count, coalescing state and tally
 * cache state. LerOptions::threads is ignored.
 *
 * serviceDemLer is the production side of that comparison for tests that
 * hold a bare DEM and decoder rather than a schedule.
 */
#ifndef PROPHUNT_TESTS_SUPPORT_LER_REFERENCE_H
#define PROPHUNT_TESTS_SUPPORT_LER_REFERENCE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "api/decode_service.h"
#include "circuit/sm_circuit.h"
#include "decoder/logical_error.h"
#include "sim/dem_builder.h"
#include "sim/frame_sampler.h"
#include "sim/parallel_sampler.h"

namespace prophunt::testsupport {

/** Serial sharded LER of @p dem decoded by @p dec. */
inline decoder::LerResult
referenceDemLer(const sim::Dem &dem, decoder::Decoder &dec, std::size_t shots,
                uint64_t seed, const decoder::LerOptions &opts = {})
{
    decoder::LerResult result;
    if (shots == 0) {
        return result;
    }
    // A shard larger than the run is one shard.
    sim::ShardPlan plan{
        shots, std::min(std::max<std::size_t>(opts.shardShots, 1), shots)};
    sim::FrameBatch frames;
    decoder::FrameShardScratch scratch;
    for (std::size_t shard = 0; shard < plan.numShards(); ++shard) {
        sim::sampleDemFramesInto(dem, plan.shotsOf(shard),
                                 sim::shardSeed(seed, shard), frames);
        result.failures += decoder::decodeFrameShard(dec, frames, scratch);
        result.shots += plan.shotsOf(shard);
        result.packed += scratch.stats;
        if (opts.maxFailures != 0 && result.failures >= opts.maxFailures) {
            result.earlyStopped = shard + 1 < plan.numShards();
            break;
        }
    }
    return result;
}

/** Both memory bases of @p schedule, seeded as api::Engine seeds them. */
inline decoder::MemoryLer
referenceMemoryLer(const circuit::SmSchedule &schedule, std::size_t rounds,
                   const sim::NoiseModel &noise,
                   const decoder::DecoderSpec &spec, std::size_t shots,
                   uint64_t seed, const decoder::LerOptions &opts = {})
{
    decoder::MemoryLer out;
    for (auto basis : {circuit::MemoryBasis::Z, circuit::MemoryBasis::X}) {
        circuit::SmCircuit circ =
            circuit::buildMemoryCircuit(schedule, rounds, basis);
        sim::Dem dem = sim::buildDem(circ, noise);
        auto dec = decoder::makeDecoder(dem, circ, spec);
        (basis == circuit::MemoryBasis::Z ? out.z : out.x) = referenceDemLer(
            dem, *dec, shots, decoder::memoryBasisSeed(seed, basis), opts);
    }
    return out;
}

/**
 * One api::DecodeService run of @p prototype on @p dem. The service owns
 * a dedicated three-worker pool, so up to opts.threads = 4 slots decode
 * concurrently whatever the machine's core count.
 */
inline decoder::LerResult
serviceDemLer(const sim::Dem &dem, const decoder::Decoder &prototype,
              std::size_t shots, uint64_t seed,
              const decoder::LerOptions &opts)
{
    api::DecodeServiceOptions pool;
    pool.threads = 3;
    api::DecodeService service(pool);
    api::DecodeJob job;
    job.key = "dem";
    job.dem = &dem;
    job.prototype = &prototype;
    job.shots = shots;
    job.seed = seed;
    job.ler = opts;
    return service.measure(job).result;
}

} // namespace prophunt::testsupport

#endif // PROPHUNT_TESTS_SUPPORT_LER_REFERENCE_H
