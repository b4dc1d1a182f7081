/**
 * @file
 * Tests for the prophunt::api engine surface: decoder registry
 * round-trips, artifact-cache determinism and bounds, concurrent
 * std::async callers, the api::Config layer, and SPRT adaptive sweeps.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <thread>

#include "api/config.h"
#include "api/engine.h"
#include "api/sprt.h"
#include "circuit/surface_schedules.h"
#include "code/surface.h"
#include "decoder/logical_error.h"
#include "decoder/registry.h"
#include "sim/dem_builder.h"
#include "support/ler_reference.h"

using namespace prophunt;

namespace {

circuit::SmSchedule
d3Schedule()
{
    code::SurfaceCode s(3);
    return circuit::nzSchedule(s);
}

struct SmallModel
{
    circuit::SmCircuit circuit;
    sim::Dem dem;
};

SmallModel
smallModel()
{
    SmallModel m;
    m.circuit = circuit::buildMemoryCircuit(d3Schedule(), 3,
                                            circuit::MemoryBasis::Z);
    m.dem = sim::buildDem(m.circuit, sim::NoiseModel::uniform(1e-3));
    return m;
}

} // namespace

// --- registry ---------------------------------------------------------------

TEST(Registry, EveryRegisteredNameConstructs)
{
    SmallModel m = smallModel();
    auto names = decoder::Registry::instance().names();
    ASSERT_GE(names.size(), 3u);
    for (const std::string &name : names) {
        auto dec = decoder::Registry::make(name, m.dem, m.circuit);
        ASSERT_NE(dec, nullptr) << name;
        // Empty syndrome decodes to the trivial correction everywhere.
        EXPECT_EQ(dec->decode({}), 0u) << name;
        // Clones are independent and construct from every backend.
        EXPECT_NE(dec->clone(), nullptr) << name;
    }
}

TEST(Registry, KnownNamesPresent)
{
    auto &reg = decoder::Registry::instance();
    EXPECT_TRUE(reg.has("union_find"));
    EXPECT_TRUE(reg.has("matching"));
    EXPECT_TRUE(reg.has("bp_osd"));
    EXPECT_TRUE(reg.has("mle"));
    EXPECT_FALSE(reg.has("no_such_decoder"));
}

TEST(Registry, UnknownNameErrorsCleanly)
{
    SmallModel m = smallModel();
    try {
        decoder::Registry::make("no_such_decoder", m.dem, m.circuit);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("no_such_decoder"), std::string::npos);
        EXPECT_NE(msg.find("bp_osd"), std::string::npos)
            << "error should list the registered names";
    }
}

TEST(Registry, MismatchedOptionsThrow)
{
    SmallModel m = smallModel();
    decoder::DecoderSpec spec{"union_find",
                              decoder::BpOsdOptions{}};
    EXPECT_THROW(decoder::Registry::make(spec, m.dem, m.circuit),
                 std::invalid_argument);
}

TEST(Registry, PerDecoderOptionsApply)
{
    SmallModel m = smallModel();
    decoder::BpOsdOptions bp;
    bp.stagnationWindow = 0;
    EXPECT_NE(decoder::Registry::make({"bp_osd", bp}, m.dem, m.circuit),
              nullptr);
    decoder::MleOptions mle;
    mle.maxWeight = 2;
    EXPECT_NE(decoder::Registry::make({"mle", mle}, m.dem, m.circuit),
              nullptr);
}

TEST(Registry, SpecDescribeDistinguishesOptions)
{
    decoder::BpOsdOptions a, b;
    b.stagnationWindow = 0;
    EXPECT_NE(decoder::DecoderSpec("bp_osd", a).describe(),
              decoder::DecoderSpec("bp_osd", b).describe());
    EXPECT_EQ(decoder::DecoderSpec("bp_osd", a).describe(),
              decoder::DecoderSpec("bp_osd", a).describe());
}

// --- schedule hashing -------------------------------------------------------

TEST(ScheduleHash, EqualSchedulesHashEqual)
{
    EXPECT_EQ(api::hashSchedule(d3Schedule()),
              api::hashSchedule(d3Schedule()));
}

TEST(ScheduleHash, DifferentSchedulesHashDifferent)
{
    code::SurfaceCode s(3);
    EXPECT_NE(api::hashSchedule(circuit::nzSchedule(s)),
              api::hashSchedule(circuit::poorSurfaceSchedule(s)));
}

// --- engine -----------------------------------------------------------------

namespace {

api::LerRequest
d3Request(std::size_t threads)
{
    api::LerRequest req(d3Schedule());
    req.rounds = 3;
    req.noise = sim::NoiseModel::uniform(3e-3);
    req.decoder = "union_find";
    req.shots = 4000;
    req.seed = 77;
    req.ler.threads = threads;
    return req;
}

} // namespace

TEST(Engine, MatchesMemoryLerReferenceBitForBit)
{
    // Both bases against the serial two-basis reference, with and without
    // an early-stop target, at every thread count.
    api::LerRequest plain = d3Request(1);
    api::LerRequest hot = d3Request(1);
    hot.noise = sim::NoiseModel::uniform(1e-2);
    hot.ler.shardShots = 128;
    hot.ler.maxFailures = 5;
    for (const api::LerRequest *base : {&plain, &hot}) {
        decoder::MemoryLer want = testsupport::referenceMemoryLer(
            base->schedule, base->rounds, base->noise, base->decoder,
            base->shots, base->seed, base->ler);
        for (std::size_t threads : {1u, 2u, 4u}) {
            SCOPED_TRACE("maxFailures=" +
                         std::to_string(base->ler.maxFailures) +
                         " threads=" + std::to_string(threads));
            api::LerRequest req = *base;
            req.ler.threads = threads;
            api::LerResult got = api::Engine().run(req);
            for (auto [g, w] : {std::pair{&got.memory.z, &want.z},
                                std::pair{&got.memory.x, &want.x}}) {
                EXPECT_EQ(g->failures, w->failures);
                EXPECT_EQ(g->shots, w->shots);
                EXPECT_EQ(g->earlyStopped, w->earlyStopped);
            }
            EXPECT_EQ(got.telemetry.shots, want.z.shots + want.x.shots);
        }
        if (base == &hot) {
            EXPECT_TRUE(want.z.earlyStopped && want.x.earlyStopped)
                << "test needs a regime where early stopping triggers";
        }
    }
}

TEST(Engine, ZeroShotRequestReturnsEmptyWellFormedResult)
{
    // shots == 0 must not go through the generic shard math (or even the
    // artifact build): an empty result with zeroed telemetry.
    api::Engine engine;
    api::LerRequest req = d3Request(1);
    req.shots = 0;
    api::LerResult r = engine.run(req);
    EXPECT_EQ(r.memory.z.shots, 0u);
    EXPECT_EQ(r.memory.x.shots, 0u);
    EXPECT_EQ(r.memory.z.failures, 0u);
    EXPECT_EQ(r.memory.x.failures, 0u);
    EXPECT_FALSE(r.memory.z.earlyStopped);
    EXPECT_EQ(r.ler(), 0.0);
    EXPECT_EQ(r.telemetry.shots, 0u);
    EXPECT_EQ(r.telemetry.buildUs, 0u);
    EXPECT_EQ(r.telemetry.decodeUs, 0u);
    EXPECT_EQ(r.telemetry.cacheHits, 0u);
    EXPECT_EQ(r.telemetry.cacheMisses, 0u);
    EXPECT_EQ(r.telemetry.packed.packedShots, 0u);
    EXPECT_EQ(r.telemetry.packed.adapterShots, 0u);
    EXPECT_EQ(r.telemetry.reusedShots, 0u);
    EXPECT_EQ(r.telemetry.coalescedRequests, 0u);
    EXPECT_EQ(r.telemetry.workSteals, 0u);
    EXPECT_EQ(r.telemetry.queueDepth, 0u);
    api::Engine::CacheStats stats = engine.cacheStats();
    EXPECT_EQ(stats.circuitEntries, 0u);
    EXPECT_EQ(stats.demEntries, 0u);

    // Zero shots per point in a sweep: well-formed empty points.
    api::SweepRequest sweep(d3Schedule());
    sweep.rounds = 3;
    sweep.ps = {1e-3, 3e-3};
    sweep.decoder = "union_find";
    sweep.shotsPerPoint = 0;
    api::SweepResult sr = engine.run(sweep);
    ASSERT_EQ(sr.points.size(), 2u);
    for (const api::SweepPointResult &pt : sr.points) {
        EXPECT_EQ(pt.memory.z.shots, 0u);
        EXPECT_EQ(pt.memory.x.shots, 0u);
        EXPECT_EQ(pt.decision, api::SprtDecision::None);
        EXPECT_EQ(pt.telemetry.shots, 0u);
        EXPECT_EQ(pt.telemetry.cacheMisses, 0u);
    }
    EXPECT_EQ(sr.telemetry.shots, 0u);
}

TEST(Engine, ShardLargerThanShotsClampsToOneShard)
{
    // shardShots > shots must behave exactly like a single exact-fit
    // shard, not fall into degenerate shard math.
    api::Engine engine;
    api::LerRequest big = d3Request(1);
    big.shots = 100;
    big.ler.shardShots = 4096;
    api::LerRequest exact = d3Request(1);
    exact.shots = 100;
    exact.ler.shardShots = 100;
    api::LerResult a = engine.run(big);
    api::LerResult b = engine.run(exact);
    EXPECT_EQ(a.memory.z.shots, 100u);
    EXPECT_EQ(a.memory.x.shots, 100u);
    EXPECT_EQ(a.memory.z.failures, b.memory.z.failures);
    EXPECT_EQ(a.memory.x.failures, b.memory.x.failures);
    EXPECT_EQ(a.telemetry.shots, 200u);
}

TEST(Engine, WarmAndFreshEnginesBitIdenticalAcrossThreadCounts)
{
    api::Engine warmEngine;
    api::LerResult reference = warmEngine.run(d3Request(1));
    for (std::size_t threads : {1u, 2u, 3u}) {
        api::LerRequest req = d3Request(threads);
        api::LerResult a = warmEngine.run(req);
        api::Engine freshEngine;
        api::LerResult b = freshEngine.run(req);
        EXPECT_EQ(b.telemetry.cacheHits, 0u);
        EXPECT_EQ(b.telemetry.reusedShots, 0u);
        for (const api::LerResult *r : {&a, &b}) {
            EXPECT_EQ(r->memory.z.failures, reference.memory.z.failures)
                << "threads=" << threads;
            EXPECT_EQ(r->memory.x.failures, reference.memory.x.failures)
                << "threads=" << threads;
            EXPECT_EQ(r->memory.z.shots, reference.memory.z.shots);
            EXPECT_EQ(r->memory.x.shots, reference.memory.x.shots);
        }
    }
}

TEST(Engine, CacheHitsReported)
{
    api::Engine engine;
    api::LerResult first = engine.run(d3Request(1));
    EXPECT_EQ(first.telemetry.cacheHits, 0u);
    EXPECT_GT(first.telemetry.cacheMisses, 0u);
    EXPECT_GT(first.telemetry.buildUs, 0u);

    api::LerResult second = engine.run(d3Request(1));
    EXPECT_GT(second.telemetry.cacheHits, 0u);
    EXPECT_EQ(second.telemetry.cacheMisses, 0u);
    EXPECT_EQ(second.telemetry.buildUs, 0u)
        << "cache hits must not rebuild artifacts";

    auto stats = engine.cacheStats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.misses, 0u);
    EXPECT_GT(stats.demEntries, 0u);

    engine.clearCache();
    stats = engine.cacheStats();
    EXPECT_EQ(stats.demEntries, 0u);
    EXPECT_EQ(stats.circuitEntries, 0u);
}

TEST(Engine, ArtifactCacheFifoBoundRebuildsEvictedEntry)
{
    // Every LerRequest caches two DEM entries (memory-Z and memory-X),
    // so kMaxCacheEntries / 2 + 1 distinct p values overflow the DEM
    // layer by exactly the first p's two entries.
    const std::size_t bound = api::Engine::kMaxCacheEntries;
    const std::size_t points = bound / 2 + 1;
    auto at = [](std::size_t i, uint64_t seed) {
        api::LerRequest req = d3Request(1);
        req.noise = sim::NoiseModel::uniform(1e-3 + 1e-5 * (double)i);
        req.shots = 128;
        req.seed = seed;
        return req;
    };
    api::Engine engine;
    for (std::size_t i = 0; i + 1 < points; ++i) {
        engine.run(at(i, 1));
    }
    // While p_0 is still cached, record a tally stream on it (seed 2)
    // that is recent enough to survive the decode service's tally FIFO.
    api::LerResult recorded = engine.run(at(0, 2));
    EXPECT_EQ(recorded.telemetry.cacheMisses, 0u);
    EXPECT_EQ(engine.run(at(0, 2)).telemetry.reusedShots, 256u);

    engine.run(at(points - 1, 1)); // evicts p_0's DEM entries
    api::Engine::CacheStats stats = engine.cacheStats();
    EXPECT_EQ(stats.demEntries, bound);
    EXPECT_EQ(stats.circuitEntries, 2u);

    // p_0 rebuilds its DEMs (the circuits are still cached). The
    // rebuilt entry is a new owner, so the stale tallies recorded under
    // the same stream key are not reused — yet the answer is the same.
    api::LerResult rebuilt = engine.run(at(0, 2));
    EXPECT_EQ(rebuilt.telemetry.cacheMisses, 2u);
    EXPECT_EQ(rebuilt.telemetry.cacheHits, 2u);
    EXPECT_GT(rebuilt.telemetry.buildUs, 0u);
    EXPECT_EQ(rebuilt.telemetry.reusedShots, 0u);
    EXPECT_EQ(rebuilt.memory.z.failures, recorded.memory.z.failures);
    EXPECT_EQ(rebuilt.memory.x.failures, recorded.memory.x.failures);
    EXPECT_EQ(rebuilt.memory.z.shots, recorded.memory.z.shots);
    EXPECT_EQ(rebuilt.memory.x.shots, recorded.memory.x.shots);
    EXPECT_EQ(engine.cacheStats().demEntries, bound);
}

TEST(Engine, ClearCacheRebuildsAndRedecodesBitIdentically)
{
    api::Engine engine;
    api::LerResult first = engine.run(d3Request(1));
    engine.clearCache();
    api::LerResult second = engine.run(d3Request(1));
    EXPECT_EQ(second.telemetry.cacheHits, 0u);
    EXPECT_GT(second.telemetry.cacheMisses, 0u);
    EXPECT_EQ(second.telemetry.reusedShots, 0u)
        << "clearCache must drop the recorded shard tallies too";
    EXPECT_EQ(second.memory.z.failures, first.memory.z.failures);
    EXPECT_EQ(second.memory.x.failures, first.memory.x.failures);
    EXPECT_EQ(engine.serviceStats().reusedShots, 0u);
}

TEST(Engine, CrossRequestShotReuseIsExactAndMonotone)
{
    // An identical re-run must be satisfied from the decode service's
    // recorded shard tallies: bit-identical counts, every shot reused,
    // and the service-lifetime reuse counter grows monotonically.
    api::Engine engine;
    api::LerResult first = engine.run(d3Request(1));
    EXPECT_EQ(first.telemetry.reusedShots, 0u);
    EXPECT_EQ(engine.serviceStats().reusedShots, 0u);

    api::LerResult second = engine.run(d3Request(1));
    EXPECT_EQ(second.memory.z.failures, first.memory.z.failures);
    EXPECT_EQ(second.memory.x.failures, first.memory.x.failures);
    EXPECT_EQ(second.memory.z.shots, first.memory.z.shots);
    EXPECT_EQ(second.memory.x.shots, first.memory.x.shots);
    EXPECT_EQ(second.telemetry.shots, 8000u);
    EXPECT_EQ(second.telemetry.reusedShots, 8000u)
        << "both bases of an identical request must reuse recorded shots";
    EXPECT_EQ(engine.serviceStats().reusedShots, 8000u);

    api::LerResult third = engine.run(d3Request(1));
    EXPECT_EQ(third.telemetry.reusedShots, 8000u);
    EXPECT_EQ(engine.serviceStats().reusedShots, 16000u);

    // A different seed is a different sample stream: no reuse, and the
    // lifetime counter must not move.
    api::LerRequest fresh = d3Request(1);
    fresh.seed = 78;
    api::LerResult other = engine.run(fresh);
    EXPECT_EQ(other.telemetry.reusedShots, 0u);
    EXPECT_EQ(engine.serviceStats().reusedShots, 16000u);
}

TEST(Engine, ShotReuseEvictionUnderFifoTallyBound)
{
    // Each basis records its own tally stream (two keys per request).
    // The reference request plus fillers at other seeds fill the
    // decode service's bound exactly: the reference is still reused.
    // One more filler evicts both of its streams.
    const std::size_t bound = api::DecodeService::kMaxTallyKeys;
    auto filler = [](std::size_t i) {
        api::LerRequest req = d3Request(1);
        req.shots = 256;
        req.seed = 1000 + i;
        return req;
    };
    const std::size_t fillers = bound / 2 - 1;
    api::Engine engine;
    api::LerResult ref = engine.run(d3Request(1));
    for (std::size_t i = 0; i < fillers; ++i) {
        engine.run(filler(i));
    }
    EXPECT_EQ(engine.serviceStats().tallyKeys, bound);
    api::LerResult kept = engine.run(d3Request(1));
    EXPECT_EQ(kept.telemetry.reusedShots, 8000u);
    EXPECT_EQ(kept.memory.z.failures, ref.memory.z.failures);
    EXPECT_EQ(kept.memory.x.failures, ref.memory.x.failures);

    engine.run(filler(fillers));
    api::LerResult rerun = engine.run(d3Request(1));
    EXPECT_EQ(rerun.telemetry.reusedShots, 0u);
    EXPECT_EQ(rerun.memory.z.failures, ref.memory.z.failures);
    EXPECT_EQ(rerun.memory.x.failures, ref.memory.x.failures);
}

TEST(Engine, FlaggedCircuitsCachedSeparately)
{
    api::Engine engine;
    engine.run(d3Request(1));
    api::LerRequest flagged = d3Request(1);
    flagged.shots = 500;
    flagged.flagWeight = 4;
    api::LerResult f = engine.run(flagged);
    EXPECT_EQ(f.telemetry.cacheHits, 0u)
        << "a flagged request must not reuse the plain circuit";
    EXPECT_GT(f.telemetry.cacheMisses, 0u);
    EXPECT_EQ(f.telemetry.shots, 1000u);
}

TEST(Engine, SweepMatchesPointwiseRuns)
{
    api::Engine engine;
    api::SweepRequest sweep(d3Schedule());
    sweep.rounds = 3;
    sweep.ps = {1e-3, 3e-3};
    sweep.decoder = "union_find";
    sweep.shotsPerPoint = 2000;
    sweep.seed = 5;
    sweep.ler.threads = 1;
    api::SweepResult result = engine.run(sweep);
    ASSERT_EQ(result.points.size(), 2u);

    for (std::size_t i = 0; i < sweep.ps.size(); ++i) {
        api::LerRequest req(sweep.schedule);
        req.rounds = 3;
        req.noise = sim::NoiseModel::uniform(sweep.ps[i]);
        req.decoder = "union_find";
        req.shots = 2000;
        req.seed = 5;
        req.ler.threads = 1;
        api::LerResult point = engine.run(req);
        EXPECT_EQ(result.points[i].memory.z.failures,
                  point.memory.z.failures);
        EXPECT_EQ(result.points[i].memory.x.failures,
                  point.memory.x.failures);
        EXPECT_EQ(result.points[i].decision, api::SprtDecision::None);
    }
    EXPECT_EQ(result.totalShots(), 8000u);
}

TEST(Engine, SweepRejectsSprtWithoutDecisionLer)
{
    api::Engine engine;
    api::SweepRequest sweep(d3Schedule());
    sweep.rounds = 3;
    sweep.ps = {1e-3};
    sweep.decoder = "union_find";
    sweep.shotsPerPoint = 100;
    sweep.sprt.enabled = true; // decisionLer left at its 0.0 default
    try {
        engine.run(sweep);
        FAIL() << "expected std::invalid_argument at admission";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("decisionLer"),
                  std::string::npos)
            << "error should say which field to set: " << e.what();
    }
}

TEST(Engine, SweepRejectsShardIndexOutsideCount)
{
    api::Engine engine;
    api::SweepRequest sweep(d3Schedule());
    sweep.rounds = 3;
    sweep.ps = {1e-3};
    sweep.decoder = "union_find";
    sweep.shotsPerPoint = 100;
    sweep.shard.index = 3;
    sweep.shard.count = 2;
    EXPECT_THROW(engine.run(sweep), std::invalid_argument);
}

TEST(Engine, SweepCancelledBeforeStartReturnsEmptyResult)
{
    api::Engine engine;
    api::SweepRequest sweep(d3Schedule());
    sweep.rounds = 3;
    sweep.ps = {1e-3, 3e-3};
    sweep.decoder = "union_find";
    sweep.shotsPerPoint = 2000;
    std::atomic<bool> cancel{true};
    sweep.cancel = &cancel;
    api::SweepResult result = engine.run(sweep);
    EXPECT_TRUE(result.points.empty())
        << "a pre-cancelled sweep does no work";
    EXPECT_EQ(result.totalShots(), 0u);
}

TEST(Engine, SweepCancelMidRunReturnsCompletedPrefix)
{
    api::Engine engine;
    api::SweepRequest sweep(d3Schedule());
    sweep.rounds = 3;
    sweep.ps = {1e-3, 2e-3, 3e-3, 4e-3};
    sweep.decoder = "union_find";
    sweep.shotsPerPoint = 4000;
    sweep.seed = 5;
    sweep.ler.threads = 1;
    api::SweepResult oracle = engine.run(sweep);

    std::atomic<bool> cancel{false};
    sweep.cancel = &cancel;
    std::thread flipper([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        cancel.store(true);
    });
    api::SweepResult truncated = engine.run(sweep);
    flipper.join();

    // Whatever prefix completed must match the uninterrupted run point
    // for point — cancellation truncates, it never perturbs.
    ASSERT_LE(truncated.points.size(), oracle.points.size());
    for (std::size_t i = 0; i < truncated.points.size(); ++i) {
        EXPECT_EQ(truncated.points[i].p, oracle.points[i].p);
        EXPECT_EQ(truncated.points[i].memory.z.shots,
                  oracle.points[i].memory.z.shots);
        EXPECT_EQ(truncated.points[i].memory.z.failures,
                  oracle.points[i].memory.z.failures);
        EXPECT_EQ(truncated.points[i].memory.x.shots,
                  oracle.points[i].memory.x.shots);
        EXPECT_EQ(truncated.points[i].memory.x.failures,
                  oracle.points[i].memory.x.failures);
    }
}

TEST(Engine, SweepCancelWithSprtKeepsContiguousChunkPrefix)
{
    api::Engine engine;
    api::SweepRequest sweep(d3Schedule());
    sweep.rounds = 3;
    sweep.ps = {1.6e-2};
    sweep.decoder = "union_find";
    sweep.shotsPerPoint = 8000;
    sweep.seed = 29;
    sweep.ler.threads = 1;
    sweep.sprt.enabled = true;
    sweep.sprt.decisionLer = 0.02;
    sweep.sprt.chunkShots = 512;
    api::SweepResult oracle = engine.run(sweep);

    std::atomic<bool> cancel{false};
    sweep.cancel = &cancel;
    std::thread flipper([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        cancel.store(true);
    });
    api::SweepResult truncated = engine.run(sweep);
    flipper.join();

    // An in-progress SPRT point keeps a contiguous chunk prefix: its
    // accounted shots are a prefix of the oracle's shot count.
    for (const api::SweepPointResult &pt : truncated.points) {
        EXPECT_LE(pt.memory.z.shots, oracle.points[0].memory.z.shots);
        EXPECT_LE(pt.memory.x.shots, oracle.points[0].memory.x.shots);
        EXPECT_LE(pt.memory.z.failures, oracle.points[0].memory.z.failures);
        EXPECT_LE(pt.memory.x.failures, oracle.points[0].memory.x.failures);
    }
}

namespace {

/** A bp_osd SPRT sweep with several chunks per point, so concurrent
 * points overlap and every packed counter moves. */
api::SweepRequest
fanOutSweep(std::size_t threads)
{
    api::SweepRequest sweep(d3Schedule());
    sweep.rounds = 3;
    sweep.ps = {1e-3, 4e-3, 8e-3, 1.6e-2};
    sweep.decoder = "bp_osd";
    sweep.shotsPerPoint = 2048;
    sweep.seed = 41;
    sweep.ler.threads = threads;
    sweep.ler.shardShots = 128;
    sweep.sprt.enabled = true;
    sweep.sprt.decisionLer = 0.02;
    sweep.sprt.chunkShots = 256;
    return sweep;
}

void
expectSamePacked(const decoder::PackedDecodeStats &a,
                 const decoder::PackedDecodeStats &b)
{
    // osdUs is a timing, not a count.
    EXPECT_EQ(a.packedShots, b.packedShots);
    EXPECT_EQ(a.adapterShots, b.adapterShots);
    EXPECT_EQ(a.laneSlotsBusy, b.laneSlotsBusy);
    EXPECT_EQ(a.laneSlotsTotal, b.laneSlotsTotal);
    EXPECT_EQ(a.osdShots, b.osdShots);
}

void
expectSameBasis(const decoder::LerResult &a, const decoder::LerResult &b)
{
    EXPECT_EQ(a.shots, b.shots);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.earlyStopped, b.earlyStopped);
    expectSamePacked(a.packed, b.packed);
}

/** A unique per-test path under the test temp dir, removed on exit. */
struct TempPath
{
    std::string path;
    explicit TempPath(const std::string &name)
        : path(::testing::TempDir() + "engine_api_test_" + name + ".json")
    {
        std::remove(path.c_str());
    }
    ~TempPath()
    {
        std::remove(path.c_str());
        std::remove((path + ".tmp").c_str());
    }
};

} // namespace

TEST(Engine, SweepPointFanOutBitIdenticalAcrossThreadCounts)
{
    // Fresh engines: every run builds its artifacts and decodes every
    // shot, so the cache counters and packed stats compare like for like.
    const api::SweepResult one = api::Engine().run(fanOutSweep(1));
    ASSERT_EQ(one.points.size(), 4u);
    EXPECT_GT(one.points[0].memory.z.packed.laneSlotsTotal, 0u);
    for (std::size_t threads : {2u, 4u}) {
        SCOPED_TRACE("ler.threads=" + std::to_string(threads));
        const api::SweepResult many = api::Engine().run(fanOutSweep(threads));
        ASSERT_EQ(many.points.size(), one.points.size());
        for (std::size_t i = 0; i < one.points.size(); ++i) {
            SCOPED_TRACE("point " + std::to_string(i));
            const api::SweepPointResult &a = one.points[i];
            const api::SweepPointResult &b = many.points[i];
            EXPECT_EQ(b.p, a.p);
            expectSameBasis(b.memory.z, a.memory.z);
            expectSameBasis(b.memory.x, a.memory.x);
            EXPECT_EQ(b.decision, a.decision);
            EXPECT_EQ(b.telemetry.shots, a.telemetry.shots);
            EXPECT_EQ(b.telemetry.cacheHits, a.telemetry.cacheHits);
            EXPECT_EQ(b.telemetry.cacheMisses, a.telemetry.cacheMisses);
        }
        EXPECT_EQ(many.telemetry.shots, one.telemetry.shots);
        EXPECT_EQ(many.telemetry.cacheHits, one.telemetry.cacheHits);
        EXPECT_EQ(many.telemetry.cacheMisses, one.telemetry.cacheMisses);
    }
}

TEST(Engine, SweepCancelMidRunAtDefaultThreadsReturnsPointPrefix)
{
    // Points near the 0.02 decision threshold, under a tight margin,
    // need many chunks, so a cancel lands while several points run.
    api::SweepRequest sweep(d3Schedule());
    sweep.rounds = 3;
    sweep.ps = {4e-3, 4.5e-3, 5e-3, 5.5e-3};
    sweep.decoder = "union_find";
    sweep.shotsPerPoint = 8000;
    sweep.seed = 5;
    sweep.sprt.enabled = true;
    sweep.sprt.decisionLer = 0.02;
    sweep.sprt.margin = 1.2;
    sweep.sprt.chunkShots = 250;
    sweep.checkpointEveryChunks = 1;

    TempPath oracle_path("cancel_oracle");
    sweep.checkpointPath = oracle_path.path;
    const api::SweepResult oracle = api::Engine().run(sweep);
    const api::SweepCheckpoint oracle_cp =
        api::SweepCheckpoint::load(oracle_path.path);

    TempPath cut_path("cancel_cut");
    sweep.checkpointPath = cut_path.path;
    std::atomic<bool> cancel{false};
    sweep.cancel = &cancel;
    std::thread flipper([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        cancel.store(true);
    });
    const api::SweepResult truncated = api::Engine().run(sweep);
    flipper.join();
    const api::SweepCheckpoint cut_cp =
        api::SweepCheckpoint::load(cut_path.path);

    // Every finished cell, kept in the result or not, is the oracle's.
    for (std::size_t i = 0; i < cut_cp.points.size(); ++i) {
        for (std::size_t c = 0; c < cut_cp.points[i].chunks.size(); ++c) {
            if (cut_cp.points[i].chunks[c].done) {
                EXPECT_TRUE(cut_cp.points[i].chunks[c] ==
                            oracle_cp.points[i].chunks[c])
                    << "point " << i << " chunk " << c;
            }
        }
    }
    // The result is a point prefix: complete points equal to the
    // oracle's, then at most one point cut to its done-chunk prefix.
    ASSERT_LE(truncated.points.size(), oracle.points.size());
    for (std::size_t i = 0; i < truncated.points.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        const api::SweepPointResult &got = truncated.points[i];
        const api::SweepPointResult want = i + 1 < truncated.points.size()
                                               ? oracle.points[i]
                                               : api::finalizePoint(cut_cp, i);
        EXPECT_EQ(got.p, oracle.points[i].p);
        EXPECT_EQ(got.memory.z.shots, want.memory.z.shots);
        EXPECT_EQ(got.memory.z.failures, want.memory.z.failures);
        EXPECT_EQ(got.memory.x.shots, want.memory.x.shots);
        EXPECT_EQ(got.memory.x.failures, want.memory.x.failures);
        EXPECT_EQ(got.decision, want.decision);
        EXPECT_GT(got.memory.z.shots, 0u);
        EXPECT_LE(got.memory.z.shots, oracle.points[i].memory.z.shots);
    }
}

TEST(Engine, SubmitReturnsSameResultAsRun)
{
    // run() is thread-safe, so std::async is the engine's async API.
    api::Engine engine;
    api::LerResult sync = engine.run(d3Request(1));
    auto runAsync = [&](api::LerRequest req) {
        return std::async(std::launch::async,
                          [&engine, req] { return engine.run(req); });
    };
    std::future<api::LerResult> f1 = runAsync(d3Request(1));
    std::future<api::LerResult> f2 = runAsync(d3Request(2));
    api::LerResult r1 = f1.get();
    api::LerResult r2 = f2.get();
    EXPECT_EQ(r1.memory.z.failures, sync.memory.z.failures);
    EXPECT_EQ(r1.memory.x.failures, sync.memory.x.failures);
    EXPECT_EQ(r2.memory.z.failures, sync.memory.z.failures);
    EXPECT_EQ(r2.memory.x.failures, sync.memory.x.failures);
}

// --- OptimizeRequest admission -----------------------------------------------

namespace {

api::OptimizeRequest
d3Optimize()
{
    api::OptimizeRequest req(d3Schedule());
    req.rounds = 3;
    req.options.iterations = 1;
    req.options.samplesPerIteration = 20;
    return req;
}

/**
 * The d=3 NZ schedule with one relative swap of an X and a Z check on a
 * single shared qubit: that pair then crosses oddly. Still schedulable,
 * so only the commutation check can reject it.
 */
circuit::SmSchedule
commutationBrokenD3()
{
    circuit::SmSchedule nz = d3Schedule();
    for (std::size_t q = 0; q < nz.code().n(); ++q) {
        const auto &order = nz.qubitOrder(q);
        for (std::size_t i = 0; i + 1 < order.size(); ++i) {
            circuit::SmSchedule bad =
                nz.withRelativeSwap(q, order[i], order[i + 1]);
            if (!bad.commutationValid() && bad.schedulable()) {
                return bad;
            }
        }
    }
    ADD_FAILURE() << "no single swap broke commutation";
    return nz;
}

/** Engine::run(req) throws std::invalid_argument naming @p field. */
template <class Request>
void
expectRejected(const Request &req, const std::string &field)
{
    api::Engine engine;
    try {
        engine.run(req);
        FAIL() << "expected std::invalid_argument naming " << field;
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << "error should name " << field << ": " << e.what();
    }
}

} // namespace

TEST(OptimizeAdmission, RejectsZeroRounds)
{
    api::OptimizeRequest req = d3Optimize();
    req.rounds = 0;
    expectRejected(req, "rounds");
}

TEST(OptimizeAdmission, RejectsPOutsideOpenInterval)
{
    for (double p : {0.0, -1e-3, 0.5, 0.7, std::nan("")}) {
        api::OptimizeRequest req = d3Optimize();
        req.options.p = p;
        expectRejected(req, "options.p");
    }
}

TEST(OptimizeAdmission, RejectsFewerThanTwoSamples)
{
    // samplesPerIteration / 2 == 0 subgraphs per basis would report
    // "no ambiguity, converged" without sampling anything.
    for (std::size_t samples : {0, 1}) {
        api::OptimizeRequest req = d3Optimize();
        req.options.samplesPerIteration = samples;
        expectRejected(req, "options.samplesPerIteration");
    }
}

TEST(OptimizeAdmission, RejectsZeroSubgraphBudget)
{
    api::OptimizeRequest req = d3Optimize();
    req.options.maxSubgraphErrors = 0;
    expectRejected(req, "options.maxSubgraphErrors");
}

TEST(OptimizeAdmission, RejectsZeroAmbiguousPerIteration)
{
    api::OptimizeRequest req = d3Optimize();
    req.options.maxAmbiguousPerIteration = 0;
    expectRejected(req, "options.maxAmbiguousPerIteration");
}

TEST(OptimizeAdmission, RejectsNonPositiveSatTimeout)
{
    for (double t : {0.0, -1.0, std::nan("")}) {
        api::OptimizeRequest req = d3Optimize();
        req.options.satTimeoutSeconds = t;
        expectRejected(req, "options.satTimeoutSeconds");
    }
}

TEST(OptimizeAdmission, RejectsCommutationInvalidStart)
{
    api::OptimizeRequest req = d3Optimize();
    req.start = commutationBrokenD3();
    expectRejected(req, "commutation-valid");
}

TEST(OptimizeAdmission, RejectsUnschedulableStart)
{
    // Three Z checks on a triangle of qubits whose check and qubit orders
    // close a precedence cycle (see circuit_test's CycleDetection).
    gf2::Matrix hz =
        gf2::Matrix::fromRows({{1, 1, 0}, {0, 1, 1}, {1, 0, 1}});
    auto cp = std::make_shared<const code::CssCode>(
        code::CssCode(gf2::Matrix(0, 3), hz, "triangle"));
    circuit::SmSchedule cyc(cp, {{0, 1}, {1, 2}, {2, 0}},
                            {{2, 0}, {0, 1}, {1, 2}});
    ASSERT_TRUE(cyc.commutationValid());
    api::OptimizeRequest req = d3Optimize();
    req.start = cyc;
    expectRejected(req, "schedulable");
}

namespace {

api::SweepRequest
d3Sweep()
{
    api::SweepRequest sweep(d3Schedule());
    sweep.rounds = 3;
    sweep.ps = {1e-3, 3e-3};
    sweep.decoder = "union_find";
    sweep.shotsPerPoint = 200;
    sweep.ler.threads = 1;
    return sweep;
}

const double kBadRates[] = {-0.1, 0.5, 0.9, std::nan(""), INFINITY};

} // namespace

TEST(LerAdmission, RejectsZeroRounds)
{
    api::LerRequest req = d3Request(1);
    req.rounds = 0;
    expectRejected(req, "rounds");
}

TEST(LerAdmission, RejectsCommutationInvalidSchedule)
{
    api::LerRequest req = d3Request(1);
    req.schedule = commutationBrokenD3();
    expectRejected(req, "commutation-valid");
}

TEST(LerAdmission, RejectsBadP1)
{
    for (double p : kBadRates) {
        api::LerRequest req = d3Request(1);
        req.noise.p1 = p;
        expectRejected(req, "noise.p1");
    }
}

TEST(LerAdmission, RejectsBadP2)
{
    for (double p : kBadRates) {
        api::LerRequest req = d3Request(1);
        req.noise.p2 = p;
        expectRejected(req, "noise.p2");
    }
}

TEST(LerAdmission, RejectsBadPIdle)
{
    for (double p : kBadRates) {
        api::LerRequest req = d3Request(1);
        req.noise.pIdle = p;
        expectRejected(req, "noise.pIdle");
    }
}

TEST(LerAdmission, RejectsUnregisteredDecoder)
{
    api::LerRequest req = d3Request(1);
    req.decoder = "no_such_decoder";
    expectRejected(req, "decoder.name");
}

TEST(LerAdmission, AcceptsZeroRates)
{
    api::LerRequest req = d3Request(1);
    req.noise = sim::NoiseModel{};
    req.shots = 64;
    EXPECT_EQ(api::Engine().run(req).ler(), 0.0);
}

TEST(SweepAdmission, RejectsZeroRounds)
{
    api::SweepRequest sweep = d3Sweep();
    sweep.rounds = 0;
    expectRejected(sweep, "rounds");
}

TEST(SweepAdmission, RejectsCommutationInvalidSchedule)
{
    api::SweepRequest sweep = d3Sweep();
    sweep.schedule = commutationBrokenD3();
    expectRejected(sweep, "commutation-valid");
}

TEST(SweepAdmission, RejectsBadPsEntry)
{
    for (double p : kBadRates) {
        api::SweepRequest sweep = d3Sweep();
        sweep.ps[1] = p;
        expectRejected(sweep, "ps[1]");
    }
}

TEST(SweepAdmission, RejectsBadPIdle)
{
    for (double p : kBadRates) {
        api::SweepRequest sweep = d3Sweep();
        sweep.pIdle = p;
        expectRejected(sweep, "pIdle");
    }
}

TEST(SweepAdmission, RejectsUnregisteredDecoder)
{
    api::SweepRequest sweep = d3Sweep();
    sweep.decoder = "no_such_decoder";
    expectRejected(sweep, "decoder.name");
}

// --- SPRT -------------------------------------------------------------------

TEST(Sprt, InvalidOptionsThrow)
{
    api::SprtOptions opts;
    opts.decisionLer = 0.02;
    opts.margin = 1.0;
    EXPECT_THROW(api::SprtTest{opts}, std::invalid_argument);
    opts.margin = 2.0;
    opts.decisionLer = 0.0;
    EXPECT_THROW(api::SprtTest{opts}, std::invalid_argument);
    opts.decisionLer = 0.02;
    opts.alpha = 0.0;
    EXPECT_THROW(api::SprtTest{opts}, std::invalid_argument);
}

TEST(Sprt, DecidesObviousRates)
{
    api::SprtOptions opts;
    opts.decisionLer = 0.02;
    opts.minShots = 100;
    api::SprtTest test(opts);
    // 30% failures over 2000 trials: far above the 4% upper hypothesis.
    EXPECT_EQ(test.evaluate(2000, 600), api::SprtDecision::Above);
    // Zero failures over 2000 trials: far below the 1% lower hypothesis.
    EXPECT_EQ(test.evaluate(2000, 0), api::SprtDecision::Below);
    // Right at the threshold: still inside the indifference zone.
    EXPECT_EQ(test.evaluate(2000, 40), api::SprtDecision::Undecided);
    // Before minShots nothing is decided.
    EXPECT_EQ(test.evaluate(50, 0), api::SprtDecision::Undecided);
}

TEST(Sprt, FixedDecisionRule)
{
    api::SprtOptions opts;
    opts.decisionLer = 0.02;
    EXPECT_EQ(api::SprtTest::fixedDecision(0.5, opts),
              api::SprtDecision::Above);
    EXPECT_EQ(api::SprtTest::fixedDecision(0.001, opts),
              api::SprtDecision::Below);
    opts.decisionLer = 0.0;
    EXPECT_EQ(api::SprtTest::fixedDecision(0.5, opts),
              api::SprtDecision::None);
}

TEST(Sprt, AdaptiveSweepSameDecisionsFewerShots)
{
    api::Engine engine;
    api::SweepRequest sweep(d3Schedule());
    sweep.rounds = 3;
    // LER(d=3 N-Z) is ~1e-3 at p=1e-3 and ~0.2 at p=1.6e-2 — both far
    // outside the [0.01, 0.04] indifference zone of the 0.02 threshold.
    sweep.ps = {1e-3, 1.6e-2};
    sweep.decoder = "union_find";
    sweep.shotsPerPoint = 20000;
    sweep.seed = 13;
    sweep.ler.threads = 1;
    sweep.sprt.decisionLer = 0.02;

    sweep.sprt.enabled = false;
    api::SweepResult fixed = engine.run(sweep);
    sweep.sprt.enabled = true;
    api::SweepResult adaptive = engine.run(sweep);

    ASSERT_EQ(fixed.points.size(), adaptive.points.size());
    for (std::size_t i = 0; i < fixed.points.size(); ++i) {
        EXPECT_NE(fixed.points[i].decision, api::SprtDecision::None);
        EXPECT_EQ(fixed.points[i].decision, adaptive.points[i].decision)
            << "p=" << fixed.points[i].p;
    }
    EXPECT_EQ(fixed.points[0].decision, api::SprtDecision::Below);
    EXPECT_EQ(fixed.points[1].decision, api::SprtDecision::Above);
    EXPECT_LT(adaptive.totalShots(), fixed.totalShots())
        << "SPRT must save shots on well-separated points";
}

TEST(Sprt, AdaptiveSweepDeterministicAcrossThreadCounts)
{
    api::Engine engine;
    api::SweepRequest sweep(d3Schedule());
    sweep.rounds = 3;
    sweep.ps = {1.6e-2};
    sweep.decoder = "union_find";
    sweep.shotsPerPoint = 8000;
    sweep.seed = 29;
    sweep.sprt.enabled = true;
    sweep.sprt.decisionLer = 0.02;

    sweep.ler.threads = 1;
    api::SweepResult one = engine.run(sweep);
    for (std::size_t threads : {2u, 3u}) {
        sweep.ler.threads = threads;
        api::SweepResult many = engine.run(sweep);
        EXPECT_EQ(many.points[0].memory.z.failures,
                  one.points[0].memory.z.failures);
        EXPECT_EQ(many.points[0].memory.x.failures,
                  one.points[0].memory.x.failures);
        EXPECT_EQ(many.totalShots(), one.totalShots());
        EXPECT_EQ(many.points[0].decision, one.points[0].decision);
    }
}

// --- config -----------------------------------------------------------------

TEST(Config, EnvOverridesDefaults)
{
    ::setenv("PROPHUNT_SHOTS", "123", 1);
    ::setenv("PROPHUNT_THREADS", "2", 1);
    ::setenv("PROPHUNT_MAX_FAILURES", "7", 1);
    api::Config cfg = api::Config::fromEnv();
    ::unsetenv("PROPHUNT_SHOTS");
    ::unsetenv("PROPHUNT_THREADS");
    ::unsetenv("PROPHUNT_MAX_FAILURES");
    EXPECT_EQ(cfg.shots, 123u);
    EXPECT_EQ(cfg.threads, 2u);
    EXPECT_EQ(cfg.maxFailures, 7u);
    EXPECT_EQ(cfg.lerOptions().threads, 2u);
    EXPECT_EQ(cfg.lerOptions().maxFailures, 7u);
    EXPECT_EQ(cfg.propHuntOptions(9).seed, 9u);
    EXPECT_EQ(cfg.propHuntOptions(9).ler.threads, 2u);
}

TEST(Config, DefaultThreadsMeanHardwareConcurrency)
{
    api::Config cfg;
    EXPECT_EQ(cfg.threads, 0u);
    EXPECT_EQ(decoder::LerOptions{}.threads, 0u)
        << "0 = hardware concurrency is the single default";
}

TEST(Config, ApplyArgsStripsRecognizedFlags)
{
    const char *argv_in[] = {"prog",      "--threads", "3",  "keep",
                             "--shots",   "999",       "--max-failures",
                             "11",        "tail"};
    char *argv[9];
    for (int i = 0; i < 9; ++i) {
        argv[i] = const_cast<char *>(argv_in[i]);
    }
    int argc = 9;
    api::Config cfg;
    cfg.applyArgs(argc, argv);
    EXPECT_EQ(cfg.threads, 3u);
    EXPECT_EQ(cfg.shots, 999u);
    EXPECT_EQ(cfg.maxFailures, 11u);
    ASSERT_EQ(argc, 3);
    EXPECT_STREQ(argv[0], "prog");
    EXPECT_STREQ(argv[1], "keep");
    EXPECT_STREQ(argv[2], "tail");
}
