/**
 * @file
 * Packed-decode contracts of the lane engine.
 *
 * decodePacked must equal the base-class decodeBatch must equal per-shot
 * decode(), observable for observable, and in exact mode
 * (stagnationWindow = 0) it must equal the seed-faithful reference
 * decoder (tests/support/bp_osd_reference.h) — across random DEMs and
 * lp39/rqt54 circuit DEMs, including odd shot counts that leave a partial
 * final 64-shot word. Also pins down the engine's shot-order/thread-count
 * invariance through api::DecodeService against the serial reference loop
 * (tests/support/ler_reference.h) and the AVX-512 / AVX2 / generic
 * kernel cross-check, including partial regions at small radii grown by
 * both the reach bitmaps and the BFS.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "circuit/coloration.h"
#include "circuit/surface_schedules.h"
#include "code/codes.h"
#include "code/surface.h"
#include "decoder/bp_osd.h"
#include "decoder/logical_error.h"
#include "decoder/union_find.h"
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

/**
 * A @p width x @p rounds detector grid with one mechanism per horizontal
 * and per vertical grid edge plus one boundary mechanism at each end of
 * every row (a phenomenological repetition code; the square cycles make
 * BP loopy). Every mechanism flips a pseudo-random subset of 64
 * observables, so the observable mask fingerprints the whole correction:
 * two decoders that pick different corrections disagree on it almost
 * surely, not only when they differ by a logical operator.
 */
Dem
gridDem(uint32_t width, uint32_t rounds, double p, uint64_t seed)
{
    Rng rng(seed);
    Dem dem;
    dem.numDetectors = (std::size_t)width * rounds;
    dem.numObservables = 64;
    auto add = [&](std::vector<uint32_t> dets) {
        ErrorMechanism mech;
        mech.p = p;
        mech.detectors = std::move(dets);
        for (uint32_t o = 0; o < 64; ++o) {
            if (rng.below(2) != 0) {
                mech.observables.push_back(o);
            }
        }
        dem.errors.push_back(std::move(mech));
    };
    for (uint32_t t = 0; t < rounds; ++t) {
        uint32_t row = t * width;
        add({row});
        for (uint32_t i = 0; i + 1 < width; ++i) {
            add({row + i, row + i + 1});
        }
        add({row + width - 1});
        if (t + 1 < rounds) {
            for (uint32_t i = 0; i < width; ++i) {
                add({row + i, row + width + i});
            }
        }
    }
    return dem;
}

Dem
circuitDem(code::CssCode (*build)(), std::size_t rounds, double p)
{
    auto cp = std::make_shared<const code::CssCode>(build());
    auto circ = circuit::buildMemoryCircuit(circuit::colorationSchedule(cp),
                                            rounds, circuit::MemoryBasis::Z);
    return buildDem(circ, NoiseModel::uniform(p));
}

/**
 * Sets the environment variable @p name to "1" for its lifetime and then
 * restores the prior value: the CI matrix legs set the kernel-tier
 * variables job-wide, and later tests in this binary must keep running
 * the tier that leg selected.
 */
class ScopedEnvFlag
{
  public:
    explicit ScopedEnvFlag(const char *name) : name_(name)
    {
        const char *prev = getenv(name);
        hadValue_ = prev != nullptr;
        saved_ = hadValue_ ? prev : "";
        setenv(name, "1", 1);
    }

    ~ScopedEnvFlag()
    {
        if (hadValue_) {
            setenv(name_, saved_.c_str(), 1);
        } else {
            unsetenv(name_);
        }
    }

    ScopedEnvFlag(const ScopedEnvFlag &) = delete;
    ScopedEnvFlag &operator=(const ScopedEnvFlag &) = delete;

  private:
    const char *name_;
    bool hadValue_;
    std::string saved_;
};

/** The variable that steps the lane kernels down to each tier (nullptr:
 * the native tier). PROPHUNT_NO_AVX512 selects AVX2, PROPHUNT_NO_AVX2 the
 * generic lanes. */
constexpr const char *kTierFlags[] = {nullptr, "PROPHUNT_NO_AVX512",
                                      "PROPHUNT_NO_AVX2"};

/**
 * decodePacked == decodeBatch == decode under @p opts, and decodePacked
 * under @p opts in exact mode == the reference decoder. Returns the
 * lane-engine stats of the @p opts run.
 */
decoder::PackedDecodeStats
expectPackedMatrixEquals(const Dem &dem, const FrameBatch &frames,
                         decoder::BpOsdOptions opts = {})
{
    SampleBatch rows;
    transposeFrames(frames, rows);
    decoder::BpOsdDecoder dec(dem, opts);
    std::vector<uint64_t> batched(frames.shots);
    dec.decodeBatch(rows, 0, frames.shots, batched.data());

    std::vector<uint64_t> lane(frames.shots, ~uint64_t{0});
    decoder::PackedDecodeStats st;
    dec.decodePacked(frames.view(), lane.data(), &st);
    EXPECT_EQ(st.packedShots, frames.shots);
    EXPECT_EQ(st.adapterShots, 0u);
    for (std::size_t s = 0; s < frames.shots; ++s) {
        EXPECT_EQ(lane[s], batched[s]) << "shot " << s;
    }
    // Spot-check per-shot decode() on the same decoder instance: the
    // scalar entry point must agree after the lane engine ran (the
    // shared scratch invariants survived).
    std::vector<uint32_t> scratch;
    for (std::size_t s = 0; s < std::min<std::size_t>(frames.shots, 64);
         ++s) {
        rows.flippedDetectors(s, scratch);
        EXPECT_EQ(dec.decode(scratch), batched[s]) << "decode() shot " << s;
    }

    // Exact mode: the lane engine itself against the reference decoder.
    decoder::BpOsdOptions exact = opts;
    exact.stagnationWindow = 0;
    decoder::BpOsdDecoder exactDec(dem, exact);
    auto tanner = decoder::BpOsdDecoder::buildTanner(dem);
    std::vector<uint64_t> exactLane(frames.shots, ~uint64_t{0});
    exactDec.decodePacked(frames.view(), exactLane.data());
    for (std::size_t s = 0; s < frames.shots; ++s) {
        rows.flippedDetectors(s, scratch);
        EXPECT_EQ(exactLane[s],
                  testsupport::referenceDecode(*tanner, exact, scratch))
            << "exact-mode shot " << s;
    }
    return st;
}

} // namespace

TEST(LaneDecode, MatrixOnRandomDems)
{
    for (uint64_t seed : {21u, 22u, 23u}) {
        Dem dem = randomDem(seed, 40, 120, 0.03);
        // 451 shots: a partial final word (451 = 7*64 + 3).
        FrameBatch frames = sampleDemFrames(dem, 451, seed * 5 + 3);
        expectPackedMatrixEquals(dem, frames);
    }
}

TEST(LaneDecode, MatrixOnLp39CircuitDem)
{
    Dem dem = circuitDem(code::benchmarkLp39, 3, 2e-3);
    FrameBatch frames = sampleDemFrames(dem, 333, 77);
    expectPackedMatrixEquals(dem, frames);
}

TEST(LaneDecode, MatrixOnRqt54CircuitDem)
{
    Dem dem = circuitDem(code::benchmarkRqt54, 4, 2e-3);
    FrameBatch frames = sampleDemFrames(dem, 129, 901);
    expectPackedMatrixEquals(dem, frames);
}

TEST(LaneDecode, OsdHeavyRegimeMatrix)
{
    // High noise plus a tiny iteration budget: most lanes retire without
    // BP convergence and flow through the batched OSD work queue. The
    // lane engine must still reproduce per-shot decode() (immediate OSD)
    // and, in exact mode, the reference decoder observable for
    // observable, across odd shot counts that leave a partial final
    // 64-shot word and force several queue flushes.
    for (std::size_t shots : {37u, 451u}) {
        Dem dem = randomDem(91, 48, 160, 0.12);
        FrameBatch frames = sampleDemFrames(dem, shots, 17);
        decoder::BpOsdOptions opts;
        opts.maxIterations = 3;
        decoder::PackedDecodeStats st =
            expectPackedMatrixEquals(dem, frames, opts);
        // The regime must actually exercise the batched OSD queue.
        EXPECT_GT(st.osdShots, shots / 4);
    }
}

TEST(LaneDecode, OsdHeavyCircuitDemAcrossThreads)
{
    // The packed pipeline end to end in an OSD-dominated regime:
    // failures and the osdShots counter must be thread- and
    // shard-invariant (the batched queue is per decodePacked call, and a
    // shot's OSD solve is independent of its queue companions).
    Dem dem = circuitDem(code::benchmarkLp39, 3, 6e-3);
    decoder::BpOsdOptions opts;
    opts.maxIterations = 4;
    decoder::BpOsdDecoder dec(dem, opts);
    decoder::LerOptions ler;
    ler.shardShots = 101; // odd shard size: ragged lane queues
    decoder::LerResult serial =
        testsupport::referenceDemLer(dem, dec, 707, 29, ler);
    EXPECT_EQ(serial.shots, 707u);
    EXPECT_GT(serial.packed.osdShots, 0u);
    for (std::size_t threads : {1u, 2u, 4u}) {
        ler.threads = threads;
        decoder::LerResult r =
            testsupport::serviceDemLer(dem, dec, 707, 29, ler);
        EXPECT_EQ(serial.failures, r.failures) << threads << " threads";
        EXPECT_EQ(serial.packed.osdShots, r.packed.osdShots)
            << threads << " threads";
    }
    // decodeBatch (per-shot decode(), immediate OSD) must agree shot for
    // shot with decodePacked (batched OSD queue) on the same frames.
    FrameBatch frames = sampleDemFrames(dem, 707, shardSeed(29, 0));
    SampleBatch rows;
    transposeFrames(frames, rows);
    std::vector<uint64_t> viaBatch(707), viaPacked(707);
    dec.decodeBatch(rows, 0, 707, viaBatch.data());
    dec.decodePacked(frames.view(), viaPacked.data());
    EXPECT_EQ(viaPacked, viaBatch);
}

TEST(LaneDecode, GenericKernelMatchesAvx2)
{
    // PROPHUNT_NO_AVX512 steps down to the AVX2 kernels and
    // PROPHUNT_NO_AVX2 forces the scalar-lane kernels; predictions must
    // not change across any tier (on machines without the respective
    // extension a step compares a tier to itself, which still pins the
    // env-var plumbing).
    Dem dem = circuitDem(code::benchmarkLp39, 3, 2e-3);
    FrameBatch frames = sampleDemFrames(dem, 200, 5);
    decoder::BpOsdOptions opts;
    decoder::BpOsdDecoder dec(dem, opts);
    std::vector<uint64_t> vec(frames.shots), avx2(frames.shots),
        gen(frames.shots);
    dec.decodePacked(frames.view(), vec.data());
    {
        ScopedEnvFlag tier("PROPHUNT_NO_AVX512");
        decoder::BpOsdDecoder dec3(dem, opts);
        dec3.decodePacked(frames.view(), avx2.data());
    }
    {
        ScopedEnvFlag tier("PROPHUNT_NO_AVX2");
        decoder::BpOsdDecoder dec2(dem, opts);
        dec2.decodePacked(frames.view(), gen.data());
    }
    EXPECT_EQ(vec, avx2);
    EXPECT_EQ(vec, gen);
}

TEST(LaneDecode, PartialRegionsMatchScalarAcrossRadii)
{
    // Small radii keep regions partial, so neighbouring lanes hold
    // different column and detector sets: the lane membership read from
    // the per-column masks and the region detectors that region growth
    // hands the install must reproduce per-shot decode() shot for shot,
    // in every kernel tier. The surface and lp39 DEMs take their regions
    // from the reach bitmaps; the grid DEM (16384 detectors, 32768
    // columns) exceeds the reach-bitmap size cap, so its regions come
    // from the BFS.
    code::SurfaceCode surface(5);
    std::vector<std::pair<std::string, Dem>> dems;
    for (bool nz : {false, true}) {
        auto circ = circuit::buildMemoryCircuit(
            nz ? circuit::nzSchedule(surface)
               : circuit::poorSurfaceSchedule(surface),
            5, circuit::MemoryBasis::Z);
        dems.emplace_back(nz ? "surface5 nz" : "surface5 poor",
                          buildDem(circ, NoiseModel::uniform(4e-3)));
    }
    dems.emplace_back("lp39", circuitDem(code::benchmarkLp39, 3, 2e-3));
    dems.emplace_back("grid 128x128", gridDem(128, 128, 4e-3, 8));
    for (std::size_t k = 0; k < dems.size(); ++k) {
        const Dem &dem = dems[k].second;
        FrameBatch frames = sampleDemFrames(dem, 203, 41 + k);
        SampleBatch rows;
        transposeFrames(frames, rows);
        for (std::size_t radius : {1u, 2u, 3u}) {
            decoder::BpOsdOptions opts;
            opts.regionRadius = radius;
            decoder::BpOsdDecoder scalar(dem, opts);
            std::vector<uint64_t> expected(frames.shots);
            std::vector<uint32_t> flipped;
            for (std::size_t s = 0; s < frames.shots; ++s) {
                rows.flippedDetectors(s, flipped);
                expected[s] = scalar.decode(flipped);
            }
            for (const char *flag : kTierFlags) {
                std::optional<ScopedEnvFlag> tier;
                if (flag != nullptr) {
                    tier.emplace(flag);
                }
                decoder::BpOsdDecoder dec(dem, opts);
                std::vector<uint64_t> lane(frames.shots, ~uint64_t{0});
                dec.decodePacked(frames.view(), lane.data());
                for (std::size_t s = 0; s < frames.shots; ++s) {
                    EXPECT_EQ(lane[s], expected[s])
                        << dems[k].first << " radius " << radius << " tier "
                        << (flag != nullptr ? flag : "native") << " shot "
                        << s;
                }
            }
        }
    }
}

TEST(LaneDecode, DefaultAdapterServesRowDecoders)
{
    // A decoder without a native packed path goes through the transpose
    // adapter and must equal its own decodeBatch.
    code::SurfaceCode surface(3);
    auto cs = std::make_shared<const code::CssCode>(surface.code());
    auto circ = circuit::buildMemoryCircuit(
        circuit::colorationSchedule(cs), 3, circuit::MemoryBasis::Z);
    Dem dem = buildDem(circ, NoiseModel::uniform(5e-3));
    auto dec = decoder::makeDecoder(dem, circ, "union_find");
    FrameBatch frames = sampleDemFrames(dem, 259, 11);
    SampleBatch rows;
    transposeFrames(frames, rows);
    std::vector<uint64_t> batched(frames.shots), packed(frames.shots);
    dec->decodeBatch(rows, 0, frames.shots, batched.data());
    decoder::PackedDecodeStats stats;
    dec->decodePacked(frames.view(), packed.data(), &stats);
    EXPECT_EQ(packed, batched);
    EXPECT_EQ(stats.adapterShots, frames.shots);
    EXPECT_EQ(stats.packedShots, 0u);
}

TEST(LaneDecode, LerEngineThreadAndShardInvariantWithLanes)
{
    // The packed pipeline end to end: failures and packed-path telemetry
    // must not depend on thread count or shard size at a fixed seed (the
    // lane engine decodes shard-local queues, and a shot's result never
    // depends on which shots share its lanes).
    Dem dem = circuitDem(code::benchmarkLp39, 3, 4e-3);
    decoder::BpOsdDecoder dec(dem);
    decoder::LerOptions ler;
    ler.shardShots = 128;
    decoder::LerResult serial =
        testsupport::referenceDemLer(dem, dec, 1500, 31, ler);
    EXPECT_EQ(serial.shots, 1500u);
    EXPECT_EQ(serial.packed.packedShots, 1500u);
    EXPECT_GT(serial.packed.laneSlotsTotal, 0u);
    for (std::size_t threads : {1u, 2u, 4u}) {
        ler.threads = threads;
        decoder::LerResult par =
            testsupport::serviceDemLer(dem, dec, 1500, 31, ler);
        EXPECT_EQ(serial.failures, par.failures) << threads << " threads";
        EXPECT_EQ(serial.packed.laneSlotsBusy, par.packed.laneSlotsBusy)
            << threads << " threads";
    }
    // Different shard sizes change the lane co-residency completely; the
    // failure count must not move (shot-order invariance).
    ler.shardShots = 1500;
    decoder::LerResult one =
        testsupport::serviceDemLer(dem, dec, 1500, 31, ler);
    // Shard seeds differ between plans, so compare against a direct
    // whole-batch decode at the single-shard seed instead.
    FrameBatch frames = sampleDemFrames(dem, 1500, shardSeed(31, 0));
    std::vector<uint64_t> pred(frames.shots);
    dec.decodePacked(frames.view(), pred.data());
    std::vector<uint64_t> masks;
    frames.obsMasks(masks);
    std::size_t failures = 0;
    for (std::size_t s = 0; s < frames.shots; ++s) {
        failures += pred[s] != masks[s];
    }
    EXPECT_EQ(one.failures, failures);
}
