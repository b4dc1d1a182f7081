/**
 * @file
 * Tests for the schedule-search subsystem: the propagation-weight
 * objective, beam search, branch-and-bound (bound admissibility against
 * exhaustive enumeration on toy codes), the portfolio driver, and the
 * engine-level determinism/cancellation contracts.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <future>
#include <memory>

#include "api/engine.h"
#include "circuit/coloration.h"
#include "circuit/surface_schedules.h"
#include "code/surface.h"
#include "search/beam.h"
#include "search/branch_bound.h"
#include "search/objective.h"
#include "search/portfolio.h"

using namespace prophunt;
using namespace prophunt::search;

namespace {

/** Single-stabilizer-pair toy code: every check-order assignment is
 * exhaustively enumerable (4!^2 = 576 leaves). */
std::shared_ptr<const code::CssCode>
toyCode4()
{
    return std::make_shared<const code::CssCode>(
        gf2::Matrix::fromRows({{1, 1, 1, 1}}),
        gf2::Matrix::fromRows({{1, 1, 1, 1}}), "toy4");
}

/** Weight-3 toy with partially overlapping checks (3!^2 = 36 leaves). */
std::shared_ptr<const code::CssCode>
toyCode3()
{
    return std::make_shared<const code::CssCode>(
        gf2::Matrix::fromRows({{1, 1, 1, 0}}),
        gf2::Matrix::fromRows({{0, 1, 1, 1}}), "toy3");
}

/** Natural start schedule: ascending check orders, X-before-Z on every
 * qubit (commutation-valid: full-overlap pairs cross evenly). */
circuit::SmSchedule
naturalSchedule(std::shared_ptr<const code::CssCode> code)
{
    std::vector<std::vector<std::size_t>> check_order;
    for (std::size_t c = 0; c < code->numChecks(); ++c) {
        check_order.push_back(code->checkSupport(c));
    }
    std::vector<std::vector<std::size_t>> qubit_order(code->n());
    for (std::size_t c = 0; c < code->numChecks(); ++c) {
        for (std::size_t q : code->checkSupport(c)) {
            qubit_order[q].push_back(c);
        }
    }
    return circuit::SmSchedule(std::move(code), std::move(check_order),
                               std::move(qubit_order));
}

/** Minimum objective over every check-order permutation assignment with
 * the start schedule's relative orders — B&B's exact search space. */
uint64_t
exhaustiveOptimum(const circuit::SmSchedule &start,
                  const ScheduleObjective &obj)
{
    const code::CssCode &code = start.code();
    std::vector<std::vector<std::size_t>> orders;
    std::vector<std::vector<std::size_t>> qubit_orders;
    for (std::size_t c = 0; c < code.numChecks(); ++c) {
        orders.push_back(start.checkOrder(c));
    }
    for (std::size_t q = 0; q < code.n(); ++q) {
        qubit_orders.push_back(start.qubitOrder(q));
    }
    for (auto &o : orders) {
        std::sort(o.begin(), o.end());
    }
    uint64_t best = obj.evaluate(start);
    std::size_t m = code.numChecks();
    // Odometer over per-check permutations.
    std::function<void(std::size_t)> walk = [&](std::size_t c) {
        if (c == m) {
            circuit::SmSchedule cand(start.codePtr(), orders,
                                     qubit_orders);
            best = std::min(best, obj.evaluate(cand));
            return;
        }
        std::vector<std::size_t> &o = orders[c];
        std::sort(o.begin(), o.end());
        do {
            walk(c + 1);
        } while (std::next_permutation(o.begin(), o.end()));
    };
    walk(0);
    return best;
}

core::PropHuntOptions
cheapMaxSatOptions(uint64_t seed)
{
    core::PropHuntOptions opts;
    opts.iterations = 2;
    opts.samplesPerIteration = 50;
    opts.maxAmbiguousPerIteration = 2;
    opts.maxCost = 8;
    opts.satTimeoutSeconds = 5.0;
    opts.seed = seed;
    return opts;
}

/** Deterministic SearchStats fields (wall-clock excluded). */
void
expectStatsEqual(const SearchStats &a, const SearchStats &b)
{
    EXPECT_EQ(a.expansions, b.expansions);
    EXPECT_EQ(a.prunedByBound, b.prunedByBound);
    EXPECT_EQ(a.deadEnds, b.deadEnds);
    EXPECT_EQ(a.bestObjective, b.bestObjective);
    EXPECT_EQ(a.firstImprovementExpansions, b.firstImprovementExpansions);
    EXPECT_EQ(a.transpositionHits, b.transpositionHits);
    EXPECT_EQ(a.transpositionMisses, b.transpositionMisses);
}

void
expectOutcomesEqual(const core::OptimizeResult &a,
                    const core::OptimizeResult &b)
{
    EXPECT_TRUE(a.finalSchedule() == b.finalSchedule());
    ASSERT_EQ(a.snapshots.size(), b.snapshots.size());
    for (std::size_t i = 0; i < a.snapshots.size(); ++i) {
        EXPECT_TRUE(a.snapshots[i] == b.snapshots[i]);
    }
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t i = 0; i < a.history.size(); ++i) {
        EXPECT_EQ(a.history[i].ambiguousFound, b.history[i].ambiguousFound);
        EXPECT_EQ(a.history[i].candidatesEnumerated,
                  b.history[i].candidatesEnumerated);
        EXPECT_EQ(a.history[i].changesVerified,
                  b.history[i].changesVerified);
        EXPECT_EQ(a.history[i].changesApplied, b.history[i].changesApplied);
        EXPECT_EQ(a.history[i].depth, b.history[i].depth);
        EXPECT_EQ(a.history[i].minLogicalWeight,
                  b.history[i].minLogicalWeight);
        EXPECT_EQ(a.history[i].solveWeights, b.history[i].solveWeights);
    }
    ASSERT_EQ(a.searchReports.size(), b.searchReports.size());
    for (std::size_t i = 0; i < a.searchReports.size(); ++i) {
        EXPECT_EQ(a.searchReports[i].name, b.searchReports[i].name);
        EXPECT_EQ(a.searchReports[i].verified, b.searchReports[i].verified);
        EXPECT_EQ(a.searchReports[i].winner, b.searchReports[i].winner);
        expectStatsEqual(a.searchReports[i].stats,
                         b.searchReports[i].stats);
    }
}

} // namespace

// --- objective ------------------------------------------------------------

TEST(Objective, RanksHandDesignedSchedulesCorrectly)
{
    for (std::size_t d : {3ul, 5ul}) {
        code::SurfaceCode s(d);
        auto cp = std::make_shared<const code::CssCode>(s.code());
        ScheduleObjective obj(cp);
        uint64_t nz = obj.evaluate(circuit::nzSchedule(s));
        uint64_t poor = obj.evaluate(circuit::poorSurfaceSchedule(s));
        EXPECT_LT(nz, poor)
            << "hook-aligned poor schedule must score worse at d=" << d;
        ObjectiveTerms tp =
            obj.evaluateTerms(circuit::poorSurfaceSchedule(s));
        ObjectiveTerms tn = obj.evaluateTerms(circuit::nzSchedule(s));
        EXPECT_TRUE(tp.valid);
        EXPECT_GT(tp.hookAlignment, tn.hookAlignment);
    }
}

TEST(Objective, InvalidSchedulesScoreInvalid)
{
    code::SurfaceCode s(3);
    auto cp = std::make_shared<const code::CssCode>(s.code());
    ScheduleObjective obj(cp);
    circuit::SmSchedule sched = circuit::nzSchedule(s);
    EXPECT_NE(obj.evaluate(sched), kInvalidObjective);
    ObjectiveTerms terms = obj.evaluateTerms(sched);
    EXPECT_TRUE(terms.valid);
    EXPECT_EQ(ScheduleObjective::pack(terms), obj.evaluate(sched));
    ObjectiveTerms invalid;
    EXPECT_EQ(ScheduleObjective::pack(invalid), kInvalidObjective);
}

TEST(Objective, DepthLoadBoundIsAdmissible)
{
    code::SurfaceCode s(5);
    auto cp = std::make_shared<const code::CssCode>(s.code());
    ScheduleObjective obj(cp);
    for (const circuit::SmSchedule &sched :
         {circuit::nzSchedule(s), circuit::poorSurfaceSchedule(s),
          circuit::colorationSchedule(cp)}) {
        EXPECT_GE(sched.depth(), obj.depthLoadBound());
    }
}

TEST(Objective, MinCheckDamageBoundsEveryPermutation)
{
    auto cp = toyCode4();
    ScheduleObjective obj(cp);
    for (std::size_t c = 0; c < cp->numChecks(); ++c) {
        std::vector<std::size_t> support = cp->checkSupport(c);
        std::sort(support.begin(), support.end());
        uint64_t lo = UINT64_MAX, hi = 0;
        do {
            uint64_t d = obj.checkDamage(c, support);
            lo = std::min(lo, d);
            hi = std::max(hi, d);
        } while (std::next_permutation(support.begin(), support.end()));
        EXPECT_EQ(obj.minCheckDamage(c), lo);
        EXPECT_EQ(obj.maxCheckDamage(c), hi);
    }
}

TEST(Objective, ScheduleKeyDistinguishesSchedules)
{
    code::SurfaceCode s(3);
    circuit::SmSchedule a = circuit::nzSchedule(s);
    circuit::SmSchedule b = circuit::poorSurfaceSchedule(s);
    EXPECT_EQ(scheduleKey(a), scheduleKey(circuit::nzSchedule(s)));
    EXPECT_NE(scheduleKey(a), scheduleKey(b));
}

// --- beam search ----------------------------------------------------------

TEST(BeamSearch, ImprovesPoorSchedule)
{
    code::SurfaceCode s(3);
    auto cp = std::make_shared<const code::CssCode>(s.code());
    ScheduleObjective obj(cp);
    circuit::SmSchedule start = circuit::poorSurfaceSchedule(s);
    SearchContext ctx{start, obj, SearchBudget{4000, 0.0}, 7, nullptr};
    SearchOutcome out = runBeamSearch(ctx, BeamOptions{});
    EXPECT_LT(out.stats.bestObjective, obj.evaluate(start));
    EXPECT_EQ(out.stats.bestObjective, obj.evaluate(out.schedule));
    EXPECT_TRUE(out.schedule.commutationValid());
    EXPECT_TRUE(out.schedule.schedulable());
    EXPECT_GT(out.stats.firstImprovementExpansions, 0u);
    EXPECT_LE(out.stats.firstImprovementExpansions, out.stats.expansions);
}

TEST(BeamSearch, DeterministicAcrossReruns)
{
    code::SurfaceCode s(3);
    auto cp = std::make_shared<const code::CssCode>(s.code());
    ScheduleObjective obj(cp);
    circuit::SmSchedule start = circuit::poorSurfaceSchedule(s);
    BeamOptions options;
    options.maxNeighborsPerState = 40; // exercise the seeded subsample
    SearchContext ctx{start, obj, SearchBudget{1500, 0.0}, 11, nullptr};
    SearchOutcome a = runBeamSearch(ctx, options);
    SearchOutcome b = runBeamSearch(ctx, options);
    EXPECT_TRUE(a.schedule == b.schedule);
    expectStatsEqual(a.stats, b.stats);
}

TEST(BeamSearch, BudgetExhaustionReturnsBestSoFar)
{
    code::SurfaceCode s(5);
    auto cp = std::make_shared<const code::CssCode>(s.code());
    ScheduleObjective obj(cp);
    circuit::SmSchedule start = circuit::poorSurfaceSchedule(s);
    SearchContext ctx{start, obj, SearchBudget{5, 0.0}, 3, nullptr};
    SearchOutcome out = runBeamSearch(ctx, BeamOptions{});
    EXPECT_LE(out.stats.expansions, 5u);
    EXPECT_LE(out.stats.bestObjective, obj.evaluate(start));
    EXPECT_EQ(out.stats.bestObjective, obj.evaluate(out.schedule));
}

TEST(BeamSearch, CancellationStopsImmediately)
{
    code::SurfaceCode s(3);
    auto cp = std::make_shared<const code::CssCode>(s.code());
    ScheduleObjective obj(cp);
    circuit::SmSchedule start = circuit::poorSurfaceSchedule(s);
    std::atomic<bool> cancel{true};
    SearchContext ctx{start, obj, SearchBudget{0, 0.0}, 3, &cancel};
    SearchOutcome out = runBeamSearch(ctx, BeamOptions{});
    EXPECT_EQ(out.stats.expansions, 0u);
    EXPECT_TRUE(out.schedule == start);
}

// --- branch and bound -----------------------------------------------------

TEST(BranchBound, MatchesExhaustiveSearchOnToyCodes)
{
    for (auto code : {toyCode4(), toyCode3()}) {
        circuit::SmSchedule start = naturalSchedule(code);
        ASSERT_TRUE(start.commutationValid());
        ASSERT_TRUE(start.schedulable());
        ScheduleObjective obj(code);
        uint64_t truth = exhaustiveOptimum(start, obj);
        SearchContext ctx{start, obj, SearchBudget{0, 0.0}, 1, nullptr};
        SearchOutcome out = runBranchBound(ctx, BnbOptions{});
        EXPECT_EQ(out.stats.bestObjective, truth)
            << "B&B pruned the optimum on " << code->name();
        EXPECT_EQ(obj.evaluate(out.schedule), truth);
    }
}

TEST(BranchBound, PruningEngagesAndStaysAdmissible)
{
    // The d=3 surface code is too large to enumerate, but admissibility
    // shows as: unlimited B&B's optimum is not changed by running it
    // twice (determinism) and never exceeds any leaf we can sample.
    auto code = toyCode4();
    circuit::SmSchedule start = naturalSchedule(code);
    ScheduleObjective obj(code);
    SearchContext ctx{start, obj, SearchBudget{0, 0.0}, 1, nullptr};
    SearchOutcome out = runBranchBound(ctx, BnbOptions{});
    SearchOutcome again = runBranchBound(ctx, BnbOptions{});
    expectStatsEqual(out.stats, again.stats);
    EXPECT_TRUE(out.schedule == again.schedule);
    // 2 checks x 24 permutations: pruning must have fired at least once
    // (the all-leaves tree would be 24 + 24*24 = 600 expansions).
    EXPECT_GT(out.stats.prunedByBound, 0u);
    EXPECT_LT(out.stats.expansions, 600u);
}

TEST(BranchBound, BudgetExhaustionReturnsBestSoFar)
{
    code::SurfaceCode s(3);
    auto cp = std::make_shared<const code::CssCode>(s.code());
    ScheduleObjective obj(cp);
    circuit::SmSchedule start = circuit::poorSurfaceSchedule(s);
    SearchContext ctx{start, obj, SearchBudget{10, 0.0}, 1, nullptr};
    SearchOutcome out = runBranchBound(ctx, BnbOptions{});
    EXPECT_LE(out.stats.expansions, 10u);
    EXPECT_LE(out.stats.bestObjective, obj.evaluate(start));
    EXPECT_EQ(out.stats.bestObjective, obj.evaluate(out.schedule));
    EXPECT_TRUE(out.schedule.commutationValid());
    EXPECT_TRUE(out.schedule.schedulable());
}

// --- portfolio ------------------------------------------------------------

TEST(Portfolio, EqualsBestStrategy)
{
    code::SurfaceCode s(3);
    auto cp = std::make_shared<const code::CssCode>(s.code());
    ScheduleObjective obj(cp);
    circuit::SmSchedule start = circuit::poorSurfaceSchedule(s);
    core::PropHuntOptions opts = cheapMaxSatOptions(21);

    auto soloBest = [&](bool beam, bool bnb, bool maxsat) {
        PortfolioOptions p;
        p.enabled = true;
        p.includeBeam = beam;
        p.includeBranchBound = bnb;
        p.includeMaxSat = maxsat;
        core::OptimizeResult r = runPortfolio(start, 3, opts, p);
        return obj.evaluate(r.finalSchedule());
    };
    uint64_t beam_obj = soloBest(true, false, false);
    uint64_t bnb_obj = soloBest(false, true, false);
    uint64_t maxsat_obj = soloBest(false, false, true);

    PortfolioOptions all;
    all.enabled = true;
    core::OptimizeResult combined = runPortfolio(start, 3, opts, all);
    uint64_t combined_obj = obj.evaluate(combined.finalSchedule());
    EXPECT_EQ(combined_obj,
              std::min({beam_obj, bnb_obj, maxsat_obj}));
    ASSERT_EQ(combined.searchReports.size(), 3u);
    EXPECT_EQ(combined.searchReports[0].name, "beam");
    EXPECT_EQ(combined.searchReports[1].name, "branch_bound");
    EXPECT_EQ(combined.searchReports[2].name, "maxsat");
    std::size_t winners = 0;
    for (const auto &rep : combined.searchReports) {
        winners += rep.winner ? 1 : 0;
    }
    EXPECT_LE(winners, 1u);
}

TEST(Portfolio, NeverWorseThanStart)
{
    // Start from the already-good nz schedule: whatever the strategies
    // do, the portfolio must not hand back anything objective-worse.
    code::SurfaceCode s(3);
    auto cp = std::make_shared<const code::CssCode>(s.code());
    ScheduleObjective obj(cp);
    circuit::SmSchedule start = circuit::nzSchedule(s);
    core::PropHuntOptions opts = cheapMaxSatOptions(5);
    PortfolioOptions p;
    p.enabled = true;
    p.beamBudget = {200, 0.0};
    p.bnbBudget = {200, 0.0};
    core::OptimizeResult r = runPortfolio(start, 3, opts, p);
    EXPECT_LE(obj.evaluate(r.finalSchedule()), obj.evaluate(start));
    EXPECT_TRUE(r.finalSchedule().commutationValid());
    EXPECT_TRUE(r.finalSchedule().schedulable());
}

// --- engine integration ---------------------------------------------------

TEST(EngineSearch, PortfolioRequestIsBitDeterministic)
{
    code::SurfaceCode s(3);
    api::Engine engine;
    auto makeReq = [&](std::size_t threads) {
        api::OptimizeRequest req(circuit::poorSurfaceSchedule(s));
        req.rounds = 3;
        req.options = cheapMaxSatOptions(33);
        req.options.threads = threads;
        req.portfolio.enabled = true;
        req.portfolio.beamBudget = {800, 0.0};
        req.portfolio.bnbBudget = {800, 0.0};
        return req;
    };
    api::OptimizeResult a = engine.run(makeReq(1));
    api::OptimizeResult b = engine.run(makeReq(1));
    expectOutcomesEqual(a.outcome, b.outcome);
    // Thread-count invariance: the MaxSAT strategy's sampling and
    // verification are index-ordered, beam/B&B are serial.
    api::OptimizeResult c = engine.run(makeReq(3));
    expectOutcomesEqual(a.outcome, c.outcome);
}

TEST(EngineSearch, TelemetryCarriesSearchStats)
{
    code::SurfaceCode s(3);
    api::Engine engine;
    api::OptimizeRequest req(circuit::poorSurfaceSchedule(s));
    req.rounds = 3;
    req.options = cheapMaxSatOptions(9);
    req.portfolio.enabled = true;
    api::OptimizeResult res = engine.run(req);
    ASSERT_EQ(res.telemetry.search.size(), 3u);
    EXPECT_EQ(res.telemetry.search[0].name, "beam");
    EXPECT_GT(res.telemetry.search[0].stats.expansions, 0u);
    EXPECT_NE(res.telemetry.search[0].stats.bestObjective,
              kInvalidObjective);
    EXPECT_EQ(res.telemetry.search[1].name, "branch_bound");
    EXPECT_GT(res.telemetry.search[1].stats.expansions, 0u);
    EXPECT_EQ(res.telemetry.search[2].name, "maxsat");
}

TEST(EngineSearch, ClassicPathUnchangedWithoutPortfolio)
{
    code::SurfaceCode s(3);
    api::Engine engine;
    api::OptimizeRequest req(circuit::poorSurfaceSchedule(s));
    req.rounds = 3;
    req.options = cheapMaxSatOptions(17);
    api::OptimizeResult viaEngine = engine.run(req);
    core::PropHunt tool(req.options);
    core::OptimizeResult direct =
        tool.optimize(req.start, req.rounds);
    EXPECT_TRUE(viaEngine.finalSchedule() == direct.finalSchedule());
    EXPECT_TRUE(viaEngine.telemetry.search.empty());
}

TEST(EngineSearch, CancellationReturnsStartSchedule)
{
    code::SurfaceCode s(3);
    api::Engine engine;
    std::atomic<bool> cancel{true};
    api::OptimizeRequest req(circuit::poorSurfaceSchedule(s));
    req.rounds = 3;
    req.options = cheapMaxSatOptions(3);
    req.portfolio.enabled = true;
    req.cancel = &cancel;
    api::OptimizeResult res = engine.run(req);
    EXPECT_TRUE(res.finalSchedule() == req.start);
    ASSERT_EQ(res.telemetry.search.size(), 3u);
    for (const auto &rep : res.telemetry.search) {
        EXPECT_EQ(rep.stats.expansions, 0u);
    }
    EXPECT_TRUE(res.outcome.history.empty());
}

TEST(EngineSearch, CancellationStopsClassicOptimize)
{
    // Parity with LerRequest::cancel for the MaxSAT-only path.
    code::SurfaceCode s(3);
    api::Engine engine;
    std::atomic<bool> cancel{true};
    api::OptimizeRequest req(circuit::poorSurfaceSchedule(s));
    req.rounds = 3;
    req.options = cheapMaxSatOptions(3);
    req.cancel = &cancel;
    api::OptimizeResult res = engine.run(req);
    EXPECT_TRUE(res.finalSchedule() == req.start);
    EXPECT_TRUE(res.outcome.history.empty());
}

TEST(EngineSearch, SubmitMatchesRun)
{
    code::SurfaceCode s(3);
    api::Engine engine;
    auto makeReq = [&]() {
        api::OptimizeRequest req(circuit::poorSurfaceSchedule(s));
        req.rounds = 3;
        req.options = cheapMaxSatOptions(13);
        req.portfolio.enabled = true;
        req.portfolio.includeMaxSat = false; // keep the async leg fast
        return req;
    };
    api::OptimizeResult sync = engine.run(makeReq());
    std::future<api::OptimizeResult> fut = std::async(
        std::launch::async, [&] { return engine.run(makeReq()); });
    api::OptimizeResult async = fut.get();
    expectOutcomesEqual(sync.outcome, async.outcome);
}
