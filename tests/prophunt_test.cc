/**
 * @file
 * Tests for the PropHunt core: subgraph finding, ambiguity, min-weight
 * MaxSAT solving, change enumeration, pruning, and the optimizer loop.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "circuit/coloration.h"
#include "circuit/surface_schedules.h"
#include "code/codes.h"
#include "code/surface.h"
#include "prophunt/optimizer.h"
#include "sim/dem_builder.h"
#include "support/removes_ambiguity_reference.h"

using namespace prophunt;
using namespace prophunt::core;

namespace {

struct Harness
{
    circuit::SmSchedule sched;
    circuit::SmCircuit circ;
    sim::Dem dem;
};

Harness
build(const circuit::SmSchedule &s, std::size_t rounds, double p,
      circuit::MemoryBasis basis)
{
    Harness out{s, circuit::buildMemoryCircuit(s, rounds, basis), {}};
    out.dem = sim::buildDem(out.circ, sim::NoiseModel::uniform(p));
    return out;
}

} // namespace

TEST(Subgraph, InteriorErrorsAreContained)
{
    code::SurfaceCode s(3);
    Harness st =
        build(circuit::nzSchedule(s), 3, 1e-3, circuit::MemoryBasis::Z);
    SubgraphFinder finder(st.dem);
    sim::Rng rng(1);
    for (int trial = 0; trial < 30; ++trial) {
        Subgraph sg = finder.sample(rng, 24);
        std::set<uint32_t> dets(sg.detectors.begin(), sg.detectors.end());
        for (uint32_t e : sg.errors) {
            for (uint32_t d : st.dem.errors[e].detectors) {
                EXPECT_TRUE(dets.count(d))
                    << "interior error leaks outside the subgraph";
            }
        }
    }
}

TEST(Subgraph, AmbiguityMatchesRowspaceDefinition)
{
    code::SurfaceCode s(3);
    Harness st = build(circuit::poorSurfaceSchedule(s), 3, 1e-3,
                     circuit::MemoryBasis::Z);
    SubgraphFinder finder(st.dem);
    sim::Rng rng(7);
    bool found_ambiguous = false;
    for (int trial = 0; trial < 50 && !found_ambiguous; ++trial) {
        Subgraph sg = finder.sample(rng, 32);
        // Re-check the returned flag against the definition.
        EXPECT_EQ(sg.ambiguous,
                  hasAmbiguity(st.dem, sg.detectors, sg.errors));
        found_ambiguous |= sg.ambiguous;
    }
    EXPECT_TRUE(found_ambiguous)
        << "poor d=3 schedule must contain ambiguity";
}

TEST(MinWeight, SubgraphSolutionIsUndetectedLogical)
{
    code::SurfaceCode s(3);
    Harness st = build(circuit::poorSurfaceSchedule(s), 3, 1e-3,
                     circuit::MemoryBasis::Z);
    SubgraphFinder finder(st.dem);
    sim::Rng rng(3);
    for (int trial = 0; trial < 60; ++trial) {
        Subgraph sg = finder.sample(rng, 32);
        if (!sg.ambiguous) {
            continue;
        }
        MinWeightResult mw = solveMinWeightLogical(st.dem, sg, 12, 10.0);
        ASSERT_TRUE(mw.found);
        EXPECT_EQ(mw.errors.size(), mw.weight);
        EXPECT_GE(mw.weight, 1u);
        // XOR of detector signatures is zero; observables flip.
        std::vector<int> det_par(st.dem.numDetectors, 0);
        std::vector<int> obs_par(st.dem.numObservables, 0);
        for (uint32_t e : mw.errors) {
            for (uint32_t d : st.dem.errors[e].detectors) {
                det_par[d] ^= 1;
            }
            for (uint32_t o : st.dem.errors[e].observables) {
                obs_par[o] ^= 1;
            }
        }
        for (int v : det_par) {
            EXPECT_EQ(v, 0);
        }
        int flipped = 0;
        for (int v : obs_par) {
            flipped += v;
        }
        EXPECT_GE(flipped, 1);
        return;
    }
    FAIL() << "no ambiguous subgraph found";
}

TEST(MinWeight, GlobalFindsEffectiveDistance)
{
    // d=3 with the good schedule: min undetected logical error needs 3
    // faults; the poor schedule drops this to 2.
    code::SurfaceCode s(3);
    Harness good =
        build(circuit::nzSchedule(s), 3, 1e-3, circuit::MemoryBasis::Z);
    MinWeightResult mg = solveGlobalMinWeight(good.dem, 6, 60.0);
    ASSERT_TRUE(mg.found);
    EXPECT_EQ(mg.weight, 3u);

    Harness poor = build(circuit::poorSurfaceSchedule(s), 3, 1e-3,
                       circuit::MemoryBasis::Z);
    MinWeightResult mp = solveGlobalMinWeight(poor.dem, 6, 60.0);
    ASSERT_TRUE(mp.found);
    EXPECT_EQ(mp.weight, 2u);
}

TEST(EffectiveDistance, SubgraphEstimateMatchesGlobal)
{
    code::SurfaceCode s(3);
    std::size_t good = estimateEffectiveDistance(circuit::nzSchedule(s), 3,
                                                 1e-3, 200, 5);
    std::size_t poor = estimateEffectiveDistance(
        circuit::poorSurfaceSchedule(s), 3, 1e-3, 200, 5);
    EXPECT_EQ(good, 3u);
    EXPECT_EQ(poor, 2u);
}

TEST(Changes, EnumerationProducesApplicableCandidates)
{
    code::SurfaceCode s(3);
    Harness st = build(circuit::poorSurfaceSchedule(s), 3, 1e-3,
                     circuit::MemoryBasis::Z);
    SubgraphFinder finder(st.dem);
    sim::Rng rng(11);
    for (int trial = 0; trial < 80; ++trial) {
        Subgraph sg = finder.sample(rng, 32);
        if (!sg.ambiguous) {
            continue;
        }
        MinWeightResult mw = solveMinWeightLogical(st.dem, sg, 12, 10.0);
        if (!mw.found) {
            continue;
        }
        auto changes =
            enumerateChanges(st.sched, st.dem, st.circ, mw.errors, rng);
        EXPECT_GT(changes.size(), 0u);
        for (const auto &ch : changes) {
            // Applying must not throw; validity may legitimately fail.
            circuit::SmSchedule modified = ch.apply(st.sched);
            (void)modified.commutationValid();
            EXPECT_FALSE(ch.key().empty());
        }
        return;
    }
    FAIL() << "no solvable ambiguous subgraph";
}

TEST(Changes, KeysAreUnique)
{
    code::SurfaceCode s(3);
    Harness st = build(circuit::poorSurfaceSchedule(s), 3, 1e-3,
                     circuit::MemoryBasis::Z);
    SubgraphFinder finder(st.dem);
    sim::Rng rng(13);
    for (int trial = 0; trial < 80; ++trial) {
        Subgraph sg = finder.sample(rng, 32);
        if (!sg.ambiguous) {
            continue;
        }
        MinWeightResult mw = solveMinWeightLogical(st.dem, sg, 12, 10.0);
        if (!mw.found) {
            continue;
        }
        auto changes =
            enumerateChanges(st.sched, st.dem, st.circ, mw.errors, rng);
        std::set<std::string> keys;
        for (const auto &ch : changes) {
            EXPECT_TRUE(keys.insert(ch.key()).second);
        }
        return;
    }
    FAIL() << "no solvable ambiguous subgraph";
}

TEST(Pruning, VerifiedChangeResolvesAmbiguity)
{
    code::SurfaceCode s(3);
    Harness st = build(circuit::poorSurfaceSchedule(s), 3, 1e-3,
                     circuit::MemoryBasis::Z);
    SubgraphFinder finder(st.dem);
    sim::Rng rng(17);
    sim::NoiseModel noise = sim::NoiseModel::uniform(1e-3);
    for (int trial = 0; trial < 120; ++trial) {
        Subgraph sg = finder.sample(rng, 32);
        if (!sg.ambiguous) {
            continue;
        }
        MinWeightResult mw = solveMinWeightLogical(st.dem, sg, 12, 10.0);
        if (!mw.found) {
            continue;
        }
        auto changes =
            enumerateChanges(st.sched, st.dem, st.circ, mw.errors, rng);
        for (const auto &ch : changes) {
            auto vc = verifyChange(st.sched, ch, sg.detectors, mw.errors,
                                   st.dem, 3, circuit::MemoryBasis::Z,
                                   noise);
            if (!vc) {
                continue;
            }
            // Verified change: re-check independently that ambiguity is
            // gone on the original detector set.
            circuit::SmCircuit circ2 = circuit::buildMemoryCircuit(
                vc->schedule, 3, circuit::MemoryBasis::Z);
            sim::Dem dem2 = sim::buildDem(circ2, noise);
            auto interior = interiorErrors(dem2, sg.detectors);
            EXPECT_FALSE(hasAmbiguity(dem2, sg.detectors, interior));
            EXPECT_TRUE(vc->schedule.commutationValid());
            EXPECT_TRUE(vc->schedule.schedulable());
            return;
        }
    }
    GTEST_SKIP() << "no verifiable change found in the budget";
}

TEST(Optimizer, ImprovesPoorD3Schedule)
{
    code::SurfaceCode s(3);
    PropHuntOptions opts;
    opts.iterations = 6;
    opts.samplesPerIteration = 150;
    opts.seed = 3;
    opts.threads = 1; // One sampling worker: machine-independent trajectory.
    PropHunt tool(opts);
    OptimizeResult res = tool.optimize(circuit::poorSurfaceSchedule(s), 3);
    ASSERT_FALSE(res.history.empty());
    // The effective distance must recover from 2 to 3.
    std::size_t final_deff =
        estimateEffectiveDistance(res.finalSchedule(), 3, 1e-3, 300, 9);
    EXPECT_EQ(final_deff, 3u);
    // Snapshots include the input and one per iteration.
    EXPECT_EQ(res.snapshots.size(), res.history.size() + 1);
    EXPECT_TRUE(res.finalSchedule().commutationValid());
    EXPECT_TRUE(res.finalSchedule().schedulable());
}

TEST(Optimizer, RecordsSolveTelemetry)
{
    code::SurfaceCode s(3);
    PropHuntOptions opts;
    opts.iterations = 2;
    opts.samplesPerIteration = 100;
    opts.seed = 5;
    opts.threads = 1; // One sampling worker: machine-independent trajectory.
    PropHunt tool(opts);
    OptimizeResult res =
        tool.optimize(circuit::poorSurfaceSchedule(s), 3);
    ASSERT_FALSE(res.history.empty());
    const auto &rec = res.history[0];
    EXPECT_GT(rec.ambiguousFound, 0u);
    EXPECT_FALSE(rec.solveStats.empty());
    for (const auto &st : rec.solveStats) {
        EXPECT_GT(st.variables, 0u);
        EXPECT_GT(st.hardClauses, 0u);
        EXPECT_GT(st.softClauses, 0u);
    }
}

TEST(Optimizer, ConvergesOnAlreadyGoodSchedule)
{
    // The N-Z schedule has d_eff = d; PropHunt should find little or no
    // low-weight ambiguity within a small expansion budget and terminate
    // without breaking the schedule.
    code::SurfaceCode s(3);
    PropHuntOptions opts;
    opts.iterations = 3;
    opts.samplesPerIteration = 100;
    opts.maxSubgraphErrors = 20;
    opts.seed = 11;
    opts.threads = 1; // One sampling worker: machine-independent trajectory.
    PropHunt tool(opts);
    OptimizeResult res = tool.optimize(circuit::nzSchedule(s), 3);
    std::size_t deff =
        estimateEffectiveDistance(res.finalSchedule(), 3, 1e-3, 300, 13);
    EXPECT_EQ(deff, 3u);
}

namespace {

/** The verification tasks of one replayed optimizer iteration. */
struct Replay
{
    struct Basis
    {
        circuit::MemoryBasis basis;
        Harness h;
        std::vector<Subgraph> subgraphs;
    };
    /** One enumerated (subgraph, candidate) pair. */
    struct Task
    {
        std::size_t basis;
        std::size_t subgraph;
        MinWeightResult mw;
        CircuitChange change;
    };
    std::vector<Basis> work;
    /** In the optimizer's task order. */
    std::vector<Task> tasks;
};

/**
 * Serial replay of one optimizer iteration from its snapshot: the same
 * subgraph seeds and RNG stream as PropHunt::optimize, up to candidate
 * enumeration.
 */
Replay
replayCandidates(const circuit::SmSchedule &current, std::size_t rounds,
                 std::size_t iter, const PropHuntOptions &opts, sim::Rng &rng)
{
    Replay out;
    for (auto basis : {circuit::MemoryBasis::Z, circuit::MemoryBasis::X}) {
        Replay::Basis w{basis, build(current, rounds, opts.p, basis), {}};
        const uint64_t seed =
            opts.seed ^ (iter * 2654435761u) ^
            (basis == circuit::MemoryBasis::X ? 0xabcdu : 0);
        SubgraphFinder finder(w.h.dem);
        std::set<std::vector<uint32_t>> seen;
        for (std::size_t i = 0; i < opts.samplesPerIteration / 2 &&
                                w.subgraphs.size() <
                                    opts.maxAmbiguousPerIteration;
             ++i) {
            sim::Rng sample_rng(seed ^ ((i + 1) * 0x517cc1b727220a95ULL));
            Subgraph sg = finder.sample(sample_rng, opts.maxSubgraphErrors);
            std::vector<uint32_t> key = sg.detectors;
            std::sort(key.begin(), key.end());
            if (sg.ambiguous && seen.insert(std::move(key)).second) {
                w.subgraphs.push_back(std::move(sg));
            }
        }
        out.work.push_back(std::move(w));
    }
    for (std::size_t b = 0; b < out.work.size(); ++b) {
        const Replay::Basis &w = out.work[b];
        for (std::size_t g = 0; g < w.subgraphs.size(); ++g) {
            MinWeightResult mw = solveMinWeightLogical(
                w.h.dem, w.subgraphs[g], opts.maxCost,
                opts.satTimeoutSeconds);
            if (!mw.found || mw.weight == 0) {
                continue;
            }
            for (CircuitChange &ch : enumerateChanges(
                     current, w.h.dem, w.h.circ, mw.errors, rng)) {
                out.tasks.push_back({b, g, mw, std::move(ch)});
            }
        }
    }
    return out;
}

/**
 * Replay one iteration with every enumerated candidate verified on its own
 * through verifyChange. Returns the (candidates, verified) counts.
 */
std::pair<std::size_t, std::size_t>
replayIteration(const circuit::SmSchedule &current, std::size_t rounds,
                std::size_t iter, const PropHuntOptions &opts, sim::Rng &rng)
{
    const sim::NoiseModel noise = sim::NoiseModel::uniform(opts.p);
    Replay replay = replayCandidates(current, rounds, iter, opts, rng);
    std::size_t verified = 0;
    for (const Replay::Task &t : replay.tasks) {
        const Replay::Basis &w = replay.work[t.basis];
        verified += verifyChange(current, t.change,
                                 w.subgraphs[t.subgraph].detectors,
                                 t.mw.errors, w.h.dem, rounds, w.basis, noise)
                        ? 1
                        : 0;
    }
    return {replay.tasks.size(), verified};
}

/**
 * Replay every iteration of @p res and check each enumerated (subgraph,
 * candidate) pair with a valid candidate: removesAmbiguity on the
 * candidate's fault table must return the verdict of the DEM-based
 * reference on sim::buildDem(candidate circuit). Both verdicts must occur.
 *
 * These circuits have circuit distance at least 2, so no fault flips an
 * observable without flipping a detector. Each pair is therefore checked
 * a second time with one such observable-only fault appended to the fault
 * table and the matching mechanism appended to the reference DEM, which
 * must count as interior in both.
 */
void
expectVerdictsMatchReference(const OptimizeResult &res, std::size_t rounds,
                             const PropHuntOptions &opts)
{
    const sim::NoiseModel noise = sim::NoiseModel::uniform(opts.p);
    sim::Rng rng(opts.seed);
    std::size_t checked = 0, removed = 0;
    for (std::size_t iter = 0; iter < res.history.size(); ++iter) {
        const circuit::SmSchedule &current = res.snapshots[iter];
        Replay replay = replayCandidates(current, rounds, iter, opts, rng);
        EXPECT_EQ(res.history[iter].candidatesEnumerated,
                  replay.tasks.size())
            << "iteration " << iter;

        // Tasks grouped by (basis, change) as in the optimizer: one model
        // per group, released before the next group is built.
        std::map<std::pair<std::size_t, std::string>,
                 std::vector<std::size_t>>
            groups;
        for (std::size_t i = 0; i < replay.tasks.size(); ++i) {
            const Replay::Task &t = replay.tasks[i];
            groups[{t.basis, t.change.key()}].push_back(i);
        }
        for (const auto &[group, members] : groups) {
            const Replay::Basis &w = replay.work[group.first];
            std::optional<CandidateModel> model = buildCandidateModel(
                current, replay.tasks[members.front()].change, rounds,
                w.basis, noise);
            if (!model) {
                continue;
            }
            sim::Dem dem = sim::buildDem(
                circuit::buildMemoryCircuit(model->schedule, rounds,
                                            w.basis),
                noise);
            CandidateModel observable_only = *model;
            sim::FaultTable &table = observable_only.faults;
            table.faults.emplace_back();
            table.p.push_back(opts.p);
            table.sigs.resize(table.sigs.size() + table.sigWords, 0);
            const std::size_t t = table.numDetectors;
            table.sigs[table.sigs.size() - table.sigWords + (t >> 6)] |=
                uint64_t{1} << (t & 63);
            sim::Dem observable_only_dem = dem;
            observable_only_dem.errors.push_back(
                {opts.p, {}, {0}, {sim::FaultLoc{}}});

            for (std::size_t i : members) {
                const Replay::Task &task = replay.tasks[i];
                const Subgraph &sg = w.subgraphs[task.subgraph];
                bool got = removesAmbiguity(*model, sg.detectors,
                                            task.mw.errors, w.h.dem);
                EXPECT_EQ(got, testsupport::referenceRemovesAmbiguity(
                                   dem, sg.detectors, task.mw.errors,
                                   w.h.dem))
                    << "iteration " << iter << " change " << group.second;
                EXPECT_EQ(removesAmbiguity(observable_only, sg.detectors,
                                           task.mw.errors, w.h.dem),
                          testsupport::referenceRemovesAmbiguity(
                              observable_only_dem, sg.detectors,
                              task.mw.errors, w.h.dem))
                    << "observable-only fault, iteration " << iter
                    << " change " << group.second;
                ++checked;
                removed += got ? 1 : 0;
            }
        }
    }
    EXPECT_GT(removed, 0u);
    EXPECT_LT(removed, checked);
}

void
expectSameHistory(const OptimizeResult &a, const OptimizeResult &b)
{
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t i = 0; i < a.history.size(); ++i) {
        const IterationRecord &x = a.history[i], &y = b.history[i];
        EXPECT_EQ(x.ambiguousFound, y.ambiguousFound) << "iteration " << i;
        EXPECT_EQ(x.candidatesEnumerated, y.candidatesEnumerated);
        EXPECT_EQ(x.candidateModels, y.candidateModels);
        EXPECT_EQ(x.changesVerified, y.changesVerified);
        EXPECT_EQ(x.changesApplied, y.changesApplied);
        EXPECT_EQ(x.depth, y.depth);
        EXPECT_EQ(x.minLogicalWeight, y.minLogicalWeight);
        EXPECT_EQ(x.solveWeights, y.solveWeights);
        ASSERT_EQ(x.solveStats.size(), y.solveStats.size());
        for (std::size_t k = 0; k < x.solveStats.size(); ++k) {
            EXPECT_EQ(x.solveStats[k].variables, y.solveStats[k].variables);
            EXPECT_EQ(x.solveStats[k].hardClauses,
                      y.solveStats[k].hardClauses);
            EXPECT_EQ(x.solveStats[k].softClauses,
                      y.solveStats[k].softClauses);
            EXPECT_EQ(x.solveStats[k].timedOut, y.solveStats[k].timedOut);
        }
    }
    ASSERT_EQ(a.snapshots.size(), b.snapshots.size());
    for (std::size_t i = 0; i < a.snapshots.size(); ++i) {
        EXPECT_TRUE(a.snapshots[i] == b.snapshots[i]) << "snapshot " << i;
    }
}

PropHuntOptions
equivalenceOptions(std::size_t threads)
{
    PropHuntOptions opts;
    opts.iterations = 3;
    opts.samplesPerIteration = 80;
    opts.maxAmbiguousPerIteration = 4;
    opts.seed = 7;
    opts.threads = threads;
    return opts;
}

} // namespace

TEST(Optimizer, SharedModelsMatchPerCandidateVerification)
{
    // Verification builds one candidate model per distinct (basis,
    // change) and checks every subgraph against it; the verdict count
    // must equal verifying each enumerated candidate on its own.
    for (std::size_t d : {3, 5}) {
        code::SurfaceCode s(d);
        const PropHuntOptions opts = equivalenceOptions(4);
        OptimizeResult res =
            PropHunt(opts).optimize(circuit::poorSurfaceSchedule(s), d);
        ASSERT_FALSE(res.history.empty());
        sim::Rng rng(opts.seed);
        std::size_t models = 0;
        for (std::size_t iter = 0; iter < res.history.size(); ++iter) {
            const IterationRecord &rec = res.history[iter];
            auto [candidates, verified] = replayIteration(
                res.snapshots[iter], d, iter, opts, rng);
            EXPECT_EQ(rec.candidatesEnumerated, candidates)
                << "d=" << d << " iteration " << iter;
            EXPECT_EQ(rec.changesVerified, verified)
                << "d=" << d << " iteration " << iter;
            EXPECT_LE(rec.candidateModels, rec.candidatesEnumerated);
            if (rec.changesVerified > 0) {
                EXPECT_GT(rec.candidateModels, 0u);
            }
            models += rec.candidateModels;
        }
        EXPECT_GT(models, 0u) << "d=" << d;
    }
}

TEST(Pruning, SignatureVerdictsMatchDemReferenceOnD5)
{
    // The poor d=5 surface schedule at the optimize_d5 benchmark's budgets:
    // 5 rounds, both bases, 4 iterations of 200 samples.
    code::SurfaceCode s(5);
    PropHuntOptions opts;
    opts.iterations = 4;
    opts.samplesPerIteration = 200;
    opts.seed = 29;
    opts.satTimeoutSeconds = 600.0;
    opts.threads = 4;
    OptimizeResult res =
        PropHunt(opts).optimize(circuit::poorSurfaceSchedule(s), 5);
    ASSERT_FALSE(res.history.empty());
    expectVerdictsMatchReference(res, 5, opts);
}

TEST(Pruning, SignatureVerdictsMatchDemReferenceOnLp39)
{
    auto lp39 = std::make_shared<const code::CssCode>(code::benchmarkLp39());
    PropHuntOptions opts;
    opts.iterations = 2;
    opts.samplesPerIteration = 100;
    opts.seed = 5;
    opts.satTimeoutSeconds = 600.0;
    opts.threads = 4;
    OptimizeResult res =
        PropHunt(opts).optimize(circuit::colorationSchedule(lp39), 3);
    ASSERT_FALSE(res.history.empty());
    expectVerdictsMatchReference(res, 3, opts);
}

TEST(Optimizer, HistoryAndSnapshotsIndependentOfThreadCount)
{
    for (std::size_t d : {3, 5}) {
        code::SurfaceCode s(d);
        const circuit::SmSchedule start = circuit::poorSurfaceSchedule(s);
        OptimizeResult one =
            PropHunt(equivalenceOptions(1)).optimize(start, d);
        OptimizeResult four =
            PropHunt(equivalenceOptions(4)).optimize(start, d);
        SCOPED_TRACE("d=" + std::to_string(d));
        expectSameHistory(one, four);
    }
}

TEST(Optimizer, AblatedVerificationBuildsNoModels)
{
    code::SurfaceCode s(3);
    PropHuntOptions opts = equivalenceOptions(2);
    opts.iterations = 1;
    opts.verifyAmbiguityRemoval = false;
    OptimizeResult res =
        PropHunt(opts).optimize(circuit::poorSurfaceSchedule(s), 3);
    ASSERT_EQ(res.history.size(), 1u);
    EXPECT_GT(res.history[0].candidatesEnumerated, 0u);
    EXPECT_EQ(res.history[0].candidateModels, 0u);
}
