/**
 * @file
 * Determinism guarantees of the shard plan and the production LER path.
 *
 * The contract under test: at a fixed master seed, a sharded LER run is
 * defined as the concatenation of independent per-shard serial runs (the
 * reference loop in tests/support/ler_reference.h), so api::DecodeService
 * and api::Engine must reproduce it for every thread count — including
 * when early stopping truncates the run.
 */
#include <gtest/gtest.h>

#include <memory>

#include "api/engine.h"
#include "circuit/coloration.h"
#include "code/surface.h"
#include "decoder/logical_error.h"
#include "sim/dem_builder.h"
#include "sim/parallel_sampler.h"
#include "sim/sampler.h"
#include "support/ler_reference.h"

using namespace prophunt;
using namespace prophunt::sim;

namespace {

Dem
d3Dem(double p)
{
    code::SurfaceCode s(3);
    auto cp = std::make_shared<const code::CssCode>(s.code());
    auto circ = circuit::buildMemoryCircuit(circuit::colorationSchedule(cp),
                                            3, circuit::MemoryBasis::Z);
    return buildDem(circ, NoiseModel::uniform(p));
}

std::unique_ptr<decoder::Decoder>
d3Decoder(const Dem &dem)
{
    code::SurfaceCode s(3);
    auto cp = std::make_shared<const code::CssCode>(s.code());
    auto circ = circuit::buildMemoryCircuit(circuit::colorationSchedule(cp),
                                            3, circuit::MemoryBasis::Z);
    return decoder::makeDecoder(dem, circ, "union_find");
}

/** Every LerResult field except the wall-clock osdUs. */
void
expectSameResult(const decoder::LerResult &got, const decoder::LerResult &want)
{
    EXPECT_EQ(got.shots, want.shots);
    EXPECT_EQ(got.failures, want.failures);
    EXPECT_EQ(got.earlyStopped, want.earlyStopped);
    EXPECT_EQ(got.packed.packedShots, want.packed.packedShots);
    EXPECT_EQ(got.packed.adapterShots, want.packed.adapterShots);
    EXPECT_EQ(got.packed.laneSlotsBusy, want.packed.laneSlotsBusy);
    EXPECT_EQ(got.packed.osdShots, want.packed.osdShots);
}

} // namespace

TEST(ShardPlan, CoversShotsExactlyOnce)
{
    ShardPlan plan{10000, 4096};
    EXPECT_EQ(plan.numShards(), 3u);
    EXPECT_EQ(plan.shotsOf(0), 4096u);
    EXPECT_EQ(plan.shotsOf(1), 4096u);
    EXPECT_EQ(plan.shotsOf(2), 10000u - 2 * 4096u);
    EXPECT_EQ(plan.offsetOf(2), 8192u);
    std::size_t total = 0;
    for (std::size_t i = 0; i < plan.numShards(); ++i) {
        total += plan.shotsOf(i);
    }
    EXPECT_EQ(total, plan.shots);

    EXPECT_EQ((ShardPlan{0, 4096}).numShards(), 0u);
    EXPECT_EQ((ShardPlan{4096, 4096}).numShards(), 1u);
    EXPECT_EQ((ShardPlan{1, 4096}).shotsOf(0), 1u);
}

TEST(ShardSeed, MatchesSplitMix64Sequence)
{
    uint64_t state = 12345;
    for (std::size_t shard = 0; shard < 8; ++shard) {
        EXPECT_EQ(splitMix64(state), shardSeed(12345, shard)) << shard;
    }
    // Distinct shards get distinct streams.
    EXPECT_NE(shardSeed(1, 0), shardSeed(1, 1));
    EXPECT_NE(shardSeed(1, 0), shardSeed(2, 0));
}

TEST(ParallelLer, ThreadCountDoesNotChangeFailuresOrShots)
{
    Dem dem = d3Dem(3e-3);
    auto dec = d3Decoder(dem);
    decoder::LerOptions opts;
    opts.shardShots = 256; // Many shards so threads genuinely interleave.
    decoder::LerResult serial =
        testsupport::referenceDemLer(dem, *dec, 8000, 77, opts);
    EXPECT_EQ(serial.shots, 8000u);
    for (std::size_t threads : {1u, 2u, 4u}) {
        opts.threads = threads;
        SCOPED_TRACE(std::to_string(threads) + " threads");
        expectSameResult(
            testsupport::serviceDemLer(dem, *dec, 8000, 77, opts), serial);
    }
}

TEST(ParallelLer, EarlyStoppingIsThreadCountIndependent)
{
    // High p: failures are frequent, so a small target cuts the run early.
    Dem dem = d3Dem(1e-2);
    auto dec = d3Decoder(dem);
    decoder::LerOptions opts;
    opts.shardShots = 128;
    opts.maxFailures = 20;
    decoder::LerResult serial =
        testsupport::referenceDemLer(dem, *dec, 50000, 5, opts);
    EXPECT_TRUE(serial.earlyStopped);
    EXPECT_LT(serial.shots, 50000u);
    EXPECT_GE(serial.failures, 20u);
    for (std::size_t threads : {1u, 2u, 4u}) {
        opts.threads = threads;
        SCOPED_TRACE(std::to_string(threads) + " threads");
        expectSameResult(
            testsupport::serviceDemLer(dem, *dec, 50000, 5, opts), serial);
    }
}

TEST(ParallelLer, ClonedDecoderAgreesWithOriginal)
{
    Dem dem = d3Dem(5e-3);
    auto dec = d3Decoder(dem);
    auto copy = dec->clone();
    SampleBatch batch = sampleDem(dem, 500, 21);
    for (std::size_t s = 0; s < batch.shots; ++s) {
        auto flipped = batch.flippedDetectors(s);
        EXPECT_EQ(dec->decode(flipped), copy->decode(flipped));
    }
}

TEST(ParallelLer, MemoryLerThreadCountIndependent)
{
    code::SurfaceCode s(3);
    auto cp = std::make_shared<const code::CssCode>(s.code());
    api::LerRequest req(circuit::colorationSchedule(cp));
    req.rounds = 3;
    req.noise = NoiseModel::uniform(3e-3);
    req.decoder = "union_find";
    req.shots = 4000;
    req.seed = 11;
    req.ler.shardShots = 256;
    decoder::MemoryLer serial = testsupport::referenceMemoryLer(
        req.schedule, 3, req.noise, "union_find", 4000, 11, req.ler);
    for (std::size_t threads : {1u, 2u, 4u}) {
        req.ler.threads = threads;
        SCOPED_TRACE(std::to_string(threads) + " threads");
        api::LerResult got = api::Engine().run(req);
        expectSameResult(got.memory.z, serial.z);
        expectSameResult(got.memory.x, serial.x);
        EXPECT_EQ(got.ler(), serial.combined());
    }
}
