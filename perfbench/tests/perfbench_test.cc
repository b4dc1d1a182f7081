/**
 * @file
 * Tests of the benchmark itself: its statistics, seed derivation,
 * tracer, report format, and a tiny-budget smoke of all three
 * workloads, traced and untraced, that runs every correctness check.
 */
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>

#include "harness.h"
#include "report.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(Stats, MedianOfOddAndEvenCounts)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, QuantileInterpolatesBetweenOrderStatistics)
{
    EXPECT_DOUBLE_EQ(quantile({0.0, 10.0}, 0.25), 2.5);
    EXPECT_DOUBLE_EQ(quantile({5.0, 0.0, 10.0}, 1.0), 10.0);
    EXPECT_DOUBLE_EQ(quantile({5.0, 0.0, 10.0}, 0.0), 0.0);
}

TEST(Stats, SummaryReportsCountAndTheDeepestTailWithTenSamplesAbove)
{
    auto ramp = [](std::size_t n) {
        std::vector<double> v;
        for (std::size_t i = 0; i < n; ++i) {
            v.push_back((double)i);
        }
        return v;
    };
    LatencySummary s = summarize(ramp(100));
    EXPECT_EQ(s.count, 100u);
    EXPECT_DOUBLE_EQ(s.p50, 49.5);
    EXPECT_DOUBLE_EQ(s.tailQ, 0.90);
    EXPECT_EQ(summarize(ramp(1000)).tailQ, 0.99);
    EXPECT_EQ(summarize(ramp(200)).tailQ, 0.95);
    EXPECT_EQ(summarize(ramp(40)).tailQ, 0.75);
    // Fewer than ten samples beyond p75: no tail is reported.
    LatencySummary small = summarize(ramp(20));
    EXPECT_EQ(small.count, 20u);
    EXPECT_EQ(small.tailQ, 0.0);
}

TEST(Seeds, RequestSeedsAreDeterministicAndDistinct)
{
    std::set<uint64_t> seen;
    for (uint64_t i = 0; i < 10000; ++i) {
        EXPECT_EQ(requestSeed(7, i), requestSeed(7, i));
        EXPECT_TRUE(seen.insert(requestSeed(7, i)).second) << i;
    }
    // Warm-up indices never collide with timed ones.
    for (uint64_t k = 0; k < 16; ++k) {
        EXPECT_EQ(seen.count(requestSeed(7, kWarmupIndex + k)), 0u);
    }
    // Another run seed gives another request stream.
    std::size_t shared = 0;
    for (uint64_t i = 0; i < 1000; ++i) {
        shared += seen.count(requestSeed(8, i));
    }
    EXPECT_EQ(shared, 0u);
}

TEST(Tracer, RecordsParentsSelfTimeAndCoverage)
{
    Tracer t;
    {
        Tracer::Scope root(&t, "bench.replay", 3);
        {
            Tracer::Scope a(&t, "sim.sample", 3);
            std::this_thread::sleep_for(std::chrono::milliseconds(4));
        }
        {
            Tracer::Scope b(&t, "decoder.decode", 3);
            std::this_thread::sleep_for(std::chrono::milliseconds(6));
        }
    }
    ASSERT_EQ(t.spans().size(), 3u);
    EXPECT_EQ(t.spans()[0].parent, -1);
    EXPECT_EQ(t.spans()[1].parent, 0);
    EXPECT_EQ(t.spans()[2].parent, 0);
    EXPECT_EQ(t.spans()[2].request, 3u);
    for (const Span &s : t.spans()) {
        EXPECT_LE(s.startNs, s.endNs);
    }
    auto self = t.layerSelfSeconds();
    EXPECT_GE(self["sim"], 0.004);
    EXPECT_GE(self["decoder"], 0.006);
    // The root's self time is what its children leave uncovered.
    EXPECT_NEAR(self["bench"],
                t.spans()[0].seconds() - t.spans()[1].seconds() -
                    t.spans()[2].seconds(),
                1e-12);
    EXPECT_GT(t.coverage(), 0.9);
    EXPECT_LE(t.coverage(), 1.0);
    EXPECT_NE(t.toJson().find("\"name\": \"decoder.decode\""),
              std::string::npos);
}

TEST(Tracer, NullTracerScopeIsANoOp)
{
    Tracer::Scope s(nullptr, "sim.sample", 0);
    SUCCEED();
}

TEST(Report, PerLayerMetricsListEveryMetricEvenForUnusedLayers)
{
    Tracer t;
    {
        Tracer::Scope root(&t, "bench.replay", 0);
        Tracer::Scope leaf(&t, "decoder.decode", 0);
    }
    Counters counts{{"decoder.osd_shots", 3}, {"decoder.shots", 12}};
    std::vector<Metric> ms = perLayerMetrics(t, 1, counts);
    std::set<std::string> names;
    for (const Metric &m : ms) {
        EXPECT_TRUE(names.insert(m.name).second) << m.name;
        if (m.name == "decoder.osd_shot_frac") {
            EXPECT_DOUBLE_EQ(m.value, 0.25);
        }
        if (m.name == "sat.maxsat_s") {
            EXPECT_EQ(m.value, 0.0);
        }
    }
    for (const char *required :
         {"sim.sample_s", "decoder.bp_s", "decoder.osd_s",
          "api.parallel_efficiency", "sat.clauses", "prophunt.verify_s",
          "search.transposition_hit_frac", "trace.coverage_frac",
          "trace.overhead_frac", "search.self_s"}) {
        EXPECT_EQ(names.count(required), 1u) << required;
    }
}

TEST(Report, ResultLineCarriesExactlyTheFourKeys)
{
    RunResult r;
    r.attempted = 5;
    r.metrics = {{"setup_s", 0.125, "s"}};
    EXPECT_EQ(resultLine(r),
              "{\"correct\": true, \"attempted\": 5, \"failed\": 0, "
              "\"metrics\": {\"setup_s\": {\"value\": 0.125, \"unit\": "
              "\"s\"}}}");
    r.fail(2, "broken");
    r.fail(2, "broken twice");
    EXPECT_FALSE(r.correct());
    EXPECT_NE(resultLine(r).find("\"failed\": 1"), std::string::npos);
}

TEST(Checks, TallyComparisonCatchesEveryCountedField)
{
    BasisTally replay;
    replay.shots = 64;
    replay.failures = 5;
    replay.packed.osdShots = 7;
    prophunt::decoder::LerResult engine;
    engine.shots = 64;
    engine.failures = 5;
    engine.packed.osdShots = 7;
    // Wall-clock OSD time is not part of the identity contract.
    engine.packed.osdUs = 99;
    EXPECT_TRUE(sameTally(replay, engine));
    engine.failures = 6;
    EXPECT_FALSE(sameTally(replay, engine));
    engine.failures = 5;
    engine.packed.osdShots = 8;
    EXPECT_FALSE(sameTally(replay, engine));
}

std::set<std::string>
namesOf(const RunResult &r)
{
    std::set<std::string> names;
    for (const Metric &m : r.metrics) {
        names.insert(m.name);
    }
    return names;
}

const std::set<std::string> kEndToEnd = {"setup_s", "request_p50_s",
                                         "work_per_s", "objective"};

void
expectHealthy(const RunResult &r, bool traced)
{
    for (const std::string &p : r.problems) {
        ADD_FAILURE() << p;
    }
    EXPECT_TRUE(r.correct());
    EXPECT_GE(r.attempted, 1u);
    if (traced) {
        EXPECT_EQ(namesOf(r).count("trace.coverage_frac"), 1u);
        EXPECT_FALSE(r.tracer.spans().empty());
    } else {
        EXPECT_EQ(namesOf(r), kEndToEnd);
        for (const Metric &m : r.metrics) {
            EXPECT_GT(m.value, 0.0) << m.name;
        }
    }
}

double
metric(const RunResult &r, const std::string &name)
{
    for (const Metric &m : r.metrics) {
        if (m.name == name) {
            return m.value;
        }
    }
    ADD_FAILURE() << "no metric " << name;
    return 0.0;
}

TEST(Smoke, LerWorkloadAtTinyBudget)
{
    LerConfig cfg;
    cfg.shots = 256;
    cfg.shardShots = 64;
    cfg.setupReps = 1;
    for (bool traced : {false, true}) {
        RunOptions opts;
        opts.seed = 11;
        opts.seconds = 0.0;
        opts.trace = traced;
        RunResult r = runLer(opts, cfg);
        expectHealthy(r, traced);
        if (traced) {
            EXPECT_GT(metric(r, "decoder.decode_s"), 0.0);
            EXPECT_GT(metric(r, "sim.sample_s"), 0.0);
            EXPECT_GE(metric(r, "trace.coverage_frac"), 0.9);
        }
    }
}

TEST(Smoke, SweepWorkloadAtTinyBudget)
{
    SweepConfig cfg;
    cfg.ps = {2e-3, 4e-3};
    cfg.shotsPerPoint = 2048;
    cfg.setupReps = 1;
    for (bool traced : {false, true}) {
        RunOptions opts;
        opts.seed = 12;
        opts.seconds = 0.0;
        opts.trace = traced;
        RunResult r = runSweep(opts, cfg);
        expectHealthy(r, traced);
        if (traced) {
            EXPECT_GT(metric(r, "decoder.build_s"), 0.0);
            EXPECT_GT(metric(r, "api.sprt_chunks"), 0.0);
            EXPECT_GT(metric(r, "api.cache_misses"), 0.0);
        }
    }
}

TEST(Smoke, OptimizeWorkloadAtTinyBudget)
{
    OptimizeConfig cfg;
    cfg.distance = 3;
    cfg.rounds = 3;
    cfg.beamExpansions = 200;
    cfg.bnbExpansions = 200;
    cfg.iterations = 1;
    cfg.samplesPerIteration = 64;
    cfg.setupReps = 2;
    for (bool traced : {false, true}) {
        RunOptions opts;
        opts.seed = 13;
        opts.seconds = 0.0;
        opts.trace = traced;
        RunResult r = runOptimize(opts, cfg);
        expectHealthy(r, traced);
        if (traced) {
            EXPECT_GT(metric(r, "prophunt.subgraph_s"), 0.0);
            EXPECT_GT(metric(r, "search.beam_s"), 0.0);
            EXPECT_EQ(metric(r, "sat.timeouts"), 0.0);
        } else {
            EXPECT_LE(metric(r, "objective"), 1.0);
        }
    }
}

} // namespace
} // namespace perfbench
