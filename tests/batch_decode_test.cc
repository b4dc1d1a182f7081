/**
 * @file
 * decodeBatch contracts: the batched path must equal per-shot decode bit
 * for bit for every decoder; the BP+OSD hot path must reproduce the
 * seed-faithful reference decoder (tests/support/bp_osd_reference.h)
 * exactly in exact mode (stagnationWindow = 0) and keep equal
 * statistical quality in the default stagnation-window mode.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "circuit/coloration.h"
#include "code/codes.h"
#include "code/surface.h"
#include "decoder/bp_osd.h"
#include "decoder/logical_error.h"
#include "decoder/mle.h"
#include "sim/dem_builder.h"
#include "sim/frame_sampler.h"
#include "sim/rng.h"
#include "sim/sampler.h"
#include "support/bp_osd_reference.h"
#include "support/ler_reference.h"

using namespace prophunt;
using namespace prophunt::sim;

namespace {

/** Random sparse DEM: ne mechanisms over nd detectors. */
Dem
randomDem(uint64_t seed, std::size_t nd, std::size_t ne, double max_p)
{
    Rng rng(seed);
    Dem dem;
    dem.numDetectors = nd;
    dem.numObservables = 2;
    for (std::size_t e = 0; e < ne; ++e) {
        ErrorMechanism mech;
        mech.p = 1e-4 + rng.uniform() * max_p;
        std::size_t weight = 1 + rng.below(3);
        for (std::size_t k = 0; k < weight; ++k) {
            uint32_t d = (uint32_t)rng.below(nd);
            bool dup = false;
            for (uint32_t prev : mech.detectors) {
                if (prev == d) {
                    dup = true;
                }
            }
            if (!dup) {
                mech.detectors.push_back(d);
            }
        }
        std::sort(mech.detectors.begin(), mech.detectors.end());
        if (rng.below(3) == 0) {
            mech.observables.push_back((uint32_t)rng.below(2));
        }
        dem.errors.push_back(std::move(mech));
    }
    return dem;
}

Dem
ldpcDem(double p)
{
    auto code = code::benchmarkLp39();
    auto cp = std::make_shared<const code::CssCode>(code);
    auto circ = circuit::buildMemoryCircuit(circuit::colorationSchedule(cp),
                                            3, circuit::MemoryBasis::Z);
    return buildDem(circ, NoiseModel::uniform(p));
}

/** decodeBatch(first, count) must equal a per-shot decode() loop. */
void
expectBatchEqualsLoop(decoder::Decoder &dec, const SampleBatch &batch)
{
    std::vector<uint64_t> batched(batch.shots);
    dec.decodeBatch(batch, 0, batch.shots, batched.data());
    for (std::size_t s = 0; s < batch.shots; ++s) {
        EXPECT_EQ(batched[s], dec.decode(batch.flippedDetectors(s)))
            << "shot " << s;
    }
    // An offset sub-range must address the same shots.
    if (batch.shots > 10) {
        std::vector<uint64_t> sub(5);
        dec.decodeBatch(batch, 7, 5, sub.data());
        for (std::size_t i = 0; i < 5; ++i) {
            EXPECT_EQ(sub[i], batched[7 + i]) << "offset shot " << i;
        }
    }
}

} // namespace

TEST(BatchDecode, BpOsdBatchEqualsDecodeOnRandomDems)
{
    for (uint64_t seed : {1u, 2u, 3u}) {
        Dem dem = randomDem(seed, 40, 120, 0.03);
        decoder::BpOsdDecoder dec(dem);
        SampleBatch batch = sampleDem(dem, 400, seed * 7 + 1);
        expectBatchEqualsLoop(dec, batch);
    }
}

TEST(BatchDecode, MleBatchEqualsDecode)
{
    Dem dem = randomDem(5, 10, 18, 0.05);
    decoder::MleDecoder dec(dem, 4);
    SampleBatch batch = sampleDem(dem, 150, 9);
    expectBatchEqualsLoop(dec, batch);
}

TEST(BatchDecode, UnionFindBatchEqualsDecode)
{
    code::SurfaceCode s(3);
    auto cp = std::make_shared<const code::CssCode>(s.code());
    auto circ = circuit::buildMemoryCircuit(circuit::colorationSchedule(cp),
                                            3, circuit::MemoryBasis::Z);
    Dem dem = buildDem(circ, NoiseModel::uniform(5e-3));
    auto dec = decoder::makeDecoder(dem, circ,
                                    "union_find");
    SampleBatch batch = sampleDem(dem, 600, 23);
    expectBatchEqualsLoop(*dec, batch);
}

TEST(BatchDecode, ExactModeMatchesReferenceOnRandomDems)
{
    // stagnationWindow = 0 must reproduce the seed per-region
    // implementation bit for bit — the global-Tanner rewrite may not
    // change a single prediction.
    decoder::BpOsdOptions exact;
    exact.stagnationWindow = 0;
    for (uint64_t seed : {11u, 12u, 13u, 14u}) {
        Dem dem = randomDem(seed, 50, 160, 0.04);
        decoder::BpOsdDecoder dec(dem, exact);
        auto tanner = decoder::BpOsdDecoder::buildTanner(dem);
        SampleBatch batch = sampleDem(dem, 500, seed + 100);
        std::vector<uint32_t> scratch;
        for (std::size_t s = 0; s < batch.shots; ++s) {
            batch.flippedDetectors(s, scratch);
            EXPECT_EQ(dec.decode(scratch),
                      testsupport::referenceDecode(*tanner, exact, scratch))
                << "seed " << seed << " shot " << s;
        }
    }
}

TEST(BatchDecode, ExactModeMatchesReferenceOnLdpcCircuit)
{
    decoder::BpOsdOptions exact;
    exact.stagnationWindow = 0;
    for (double p : {1e-3, 4e-3}) {
        Dem dem = ldpcDem(p);
        decoder::BpOsdDecoder dec(dem, exact);
        auto tanner = decoder::BpOsdDecoder::buildTanner(dem);
        SampleBatch batch = sampleDem(dem, 800, 201);
        std::vector<uint32_t> scratch;
        for (std::size_t s = 0; s < batch.shots; ++s) {
            batch.flippedDetectors(s, scratch);
            EXPECT_EQ(dec.decode(scratch),
                      testsupport::referenceDecode(*tanner, exact, scratch))
                << "p " << p << " shot " << s;
        }
    }
}

TEST(BatchDecode, StagnationWindowKeepsStatisticalQuality)
{
    // The default stagnation window may change individual hard-shot
    // predictions but must not degrade the logical error rate beyond
    // statistical noise (empirically it slightly improves it).
    Dem dem = ldpcDem(2e-3);
    decoder::BpOsdOptions exact;
    exact.stagnationWindow = 0;
    decoder::BpOsdDecoder dexact(dem, exact);
    decoder::BpOsdDecoder dfast(dem); // default window
    SampleBatch batch = sampleDem(dem, 6000, 77);
    std::vector<uint64_t> a(batch.shots), b(batch.shots);
    dexact.decodeBatch(batch, 0, batch.shots, a.data());
    dfast.decodeBatch(batch, 0, batch.shots, b.data());
    std::size_t failExact = 0, failFast = 0;
    for (std::size_t s = 0; s < batch.shots; ++s) {
        failExact += a[s] != batch.obsMask(s);
        failFast += b[s] != batch.obsMask(s);
    }
    // ~5 sigma of slack on top of the exact-mode failure count.
    double sigma = std::sqrt((double)failExact + 1.0);
    EXPECT_LE((double)failFast, (double)failExact + 5.0 * sigma)
        << "exact=" << failExact << " fast=" << failFast;
}

TEST(BatchDecode, LerEngineThreadInvariantThroughPackedPipeline)
{
    // api::DecodeService samples packed and decodes each shard through
    // decodePacked; failures must equal the serial reference loop at every
    // thread count with the BP+OSD decoder in the loop.
    Dem dem = ldpcDem(4e-3);
    decoder::BpOsdDecoder dec(dem);
    decoder::LerOptions opts;
    opts.shardShots = 128;
    decoder::LerResult serial =
        testsupport::referenceDemLer(dem, dec, 1500, 31, opts);
    EXPECT_EQ(serial.shots, 1500u);
    for (std::size_t threads : {1u, 2u, 4u}) {
        opts.threads = threads;
        decoder::LerResult par =
            testsupport::serviceDemLer(dem, dec, 1500, 31, opts);
        EXPECT_EQ(serial.failures, par.failures) << threads << " threads";
        EXPECT_EQ(serial.shots, par.shots) << threads << " threads";
    }
}
