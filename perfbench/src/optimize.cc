/**
 * @file
 * optimize_d5: portfolio OptimizeRequests on the poor d=5 surface
 * schedule.
 *
 * The optimizer pipeline: beam search and branch-and-bound raced
 * against the MaxSAT loop (ambiguity sampling -> subgraph -> MaxSAT ->
 * candidate enumeration -> verification). Decoder and decode service
 * do no work here. Expansion budgets and a fixed seed make every
 * request bit-identical, so its objective is checked for equality
 * across repeats.
 */
#include <algorithm>
#include <memory>
#include <optional>
#include <set>

#include "api/engine.h"
#include "circuit/sm_circuit.h"
#include "circuit/surface_schedules.h"
#include "code/surface.h"
#include "harness.h"
#include "prophunt/changes.h"
#include "prophunt/minweight.h"
#include "prophunt/pruning.h"
#include "prophunt/subgraph.h"
#include "search/incremental.h"
#include "search/transposition.h"
#include "sim/dem_builder.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using namespace prophunt;

namespace {

struct OptimizeState
{
    std::optional<circuit::SmSchedule> schedule;
    std::unique_ptr<api::Engine> engine;
    uint64_t startObjective = 0;
};

api::OptimizeRequest
makeRequest(const circuit::SmSchedule &start, const OptimizeConfig &cfg)
{
    api::OptimizeRequest req(start);
    req.rounds = cfg.rounds;
    req.options.iterations = cfg.iterations;
    req.options.samplesPerIteration = cfg.samplesPerIteration;
    req.options.seed = cfg.seed;
    req.options.satTimeoutSeconds = cfg.satTimeoutSeconds;
    req.portfolio.enabled = true;
    req.portfolio.beamBudget = {cfg.beamExpansions, 0.0};
    req.portfolio.bnbBudget = {cfg.bnbExpansions, 0.0};
    return req;
}

uint64_t
objectiveOf(const circuit::SmSchedule &schedule)
{
    search::ScheduleObjective objective(schedule.codePtr());
    return objective.evaluate(schedule);
}

/** MaxSAT solves of a result that hit their timeout. */
std::size_t
timeouts(const api::OptimizeResult &r)
{
    std::size_t n = 0;
    for (const core::IterationRecord &rec : r.outcome.history) {
        for (const sat::MaxSatStats &s : rec.solveStats) {
            n += s.timedOut ? 1 : 0;
        }
    }
    return n;
}

uint64_t
expansions(const api::OptimizeResult &r)
{
    uint64_t n = 0;
    for (const search::StrategyReport &rep : r.telemetry.search) {
        n += rep.stats.expansions;
    }
    return n;
}

/**
 * The optimizer's ambiguity sampling (core::PropHunt::optimize) on the
 * calling thread: blocks of 32 independently seeded samples, merged in
 * index order with deduplication, stopping at a block boundary once
 * max_keep subgraphs are kept.
 */
std::vector<core::Subgraph>
sampleAmbiguous(const sim::Dem &dem, const core::PropHuntOptions &o,
                uint64_t seed, Tracer *tracer, Counters &counts)
{
    constexpr std::size_t kSampleBlock = 32;
    const std::size_t samples = o.samplesPerIteration / 2;
    std::optional<core::SubgraphFinder> finder;
    {
        Tracer::Scope span(tracer, "prophunt.subgraph", 0);
        finder.emplace(dem);
    }
    std::vector<core::Subgraph> found;
    std::set<std::vector<uint32_t>> seen;
    for (std::size_t base = 0;
         base < samples && found.size() < o.maxAmbiguousPerIteration;
         base += kSampleBlock) {
        std::vector<core::Subgraph> block;
        for (std::size_t i = 0; i < std::min(kSampleBlock, samples - base);
             ++i) {
            sim::Rng rng(seed ^ ((base + i + 1) * 0x517cc1b727220a95ULL));
            Tracer::Scope span(tracer, "prophunt.subgraph", 0);
            block.push_back(finder->sample(rng, o.maxSubgraphErrors));
        }
        for (core::Subgraph &sg : block) {
            counts["prophunt.samples"] += 1;
            if (!sg.ambiguous) {
                continue;
            }
            counts["prophunt.ambiguous"] += 1;
            if (found.size() >= o.maxAmbiguousPerIteration) {
                continue;
            }
            std::vector<uint32_t> key = sg.detectors;
            std::sort(key.begin(), key.end());
            if (seen.insert(std::move(key)).second) {
                found.push_back(std::move(sg));
            }
        }
    }
    return found;
}

/**
 * Replay the engine's request single-threaded through the layers'
 * public functions: every MaxSAT-loop iteration from its recorded
 * snapshot (compile, DEM, sampling, MaxSAT, enumeration, verification
 * per basis), then beam search and branch-and-bound at the request's
 * budgets on a shared transposition cache, as the portfolio runs them.
 * Per-iteration counts and search statistics must equal the engine's.
 */
void
replayOptimize(const api::OptimizeRequest &req,
               const api::OptimizeResult &engine, Tracer *tracer,
               Counters &counts, RunResult &result)
{
    Tracer::Scope root(tracer, "bench.replay", 0);
    const core::PropHuntOptions &o = req.options;
    const sim::NoiseModel noise = sim::NoiseModel::uniform(o.p);
    const auto &history = engine.outcome.history;
    sim::Rng rng(o.seed);
    for (std::size_t iter = 0; iter < history.size(); ++iter) {
        const circuit::SmSchedule &current = engine.outcome.snapshots[iter];
        struct Basis
        {
            circuit::MemoryBasis basis;
            std::optional<circuit::SmCircuit> circ;
            std::optional<sim::Dem> dem;
            std::vector<core::Subgraph> subgraphs;
        };
        Basis work[2] = {{circuit::MemoryBasis::Z, {}, {}, {}},
                         {circuit::MemoryBasis::X, {}, {}, {}}};
        std::size_t ambiguous = 0;
        for (Basis &w : work) {
            {
                Tracer::Scope span(tracer, "circuit.compile", 0);
                w.circ.emplace(
                    circuit::buildMemoryCircuit(current, req.rounds, w.basis));
            }
            {
                Tracer::Scope span(tracer, "sim.dem_build", 0);
                w.dem.emplace(sim::buildDem(*w.circ, noise));
            }
            const uint64_t seed =
                o.seed ^ (iter * 2654435761u) ^
                (w.basis == circuit::MemoryBasis::X ? 0xabcdu : 0);
            w.subgraphs = sampleAmbiguous(*w.dem, o, seed, tracer, counts);
            ambiguous += w.subgraphs.size();
        }

        std::size_t candidates = 0, verified = 0;
        for (Basis &w : work) {
            for (const core::Subgraph &sg : w.subgraphs) {
                core::MinWeightResult mw;
                {
                    Tracer::Scope span(tracer, "sat.maxsat", 0);
                    mw = core::solveMinWeightLogical(*w.dem, sg, o.maxCost,
                                                     o.satTimeoutSeconds);
                }
                counts["sat.solves"] += 1;
                counts["sat.solve_us"] += mw.stats.wallSeconds * 1e6;
                counts["sat.variables"] += (double)mw.stats.variables;
                counts["sat.clauses"] += (double)(mw.stats.hardClauses +
                                                  mw.stats.softClauses);
                counts["sat.timeouts"] += mw.stats.timedOut ? 1 : 0;
                // The engine enumerates in this same (basis, subgraph)
                // order, after all solves; enumeration alone draws from
                // the shared RNG, so interleaving keeps its stream.
                if (!mw.found || mw.weight == 0) {
                    continue;
                }
                std::vector<core::CircuitChange> changes;
                {
                    Tracer::Scope span(tracer, "prophunt.enumerate", 0);
                    changes = core::enumerateChanges(current, *w.dem,
                                                     *w.circ, mw.errors, rng);
                }
                candidates += changes.size();
                for (const core::CircuitChange &ch : changes) {
                    Tracer::Scope span(tracer, "prophunt.verify", 0);
                    verified += core::verifyChange(current, ch, sg.detectors,
                                                   mw.errors, *w.dem,
                                                   req.rounds, w.basis, noise)
                                    ? 1
                                    : 0;
                }
            }
        }
        counts["prophunt.candidates"] += (double)candidates;
        counts["prophunt.verified"] += (double)verified;
        const core::IterationRecord &rec = history[iter];
        if (rec.ambiguousFound != ambiguous ||
            rec.candidatesEnumerated != candidates ||
            rec.changesVerified != verified) {
            result.fail(0, "optimize replay iteration " +
                               std::to_string(iter) + " found " +
                               std::to_string(ambiguous) + "/" +
                               std::to_string(candidates) + "/" +
                               std::to_string(verified) +
                               " ambiguous/candidates/verified, engine " +
                               std::to_string(rec.ambiguousFound) + "/" +
                               std::to_string(rec.candidatesEnumerated) +
                               "/" + std::to_string(rec.changesVerified));
        }
    }

    search::ScheduleObjective objective(req.start.codePtr());
    search::TranspositionCache cache(req.portfolio.transpositionCapacity);
    {
        Tracer::Scope span(tracer, "search.evaluate", 0);
        search::cachedEvaluate(objective, req.start, &cache);
    }
    search::SearchContext beam_ctx{req.start, objective,
                                   req.portfolio.beamBudget, o.seed,
                                   nullptr, &cache};
    std::optional<search::SearchOutcome> beam, bnb;
    {
        Tracer::Scope span(tracer, "search.beam", 0);
        beam.emplace(search::runBeamSearch(beam_ctx, req.portfolio.beam));
    }
    search::SearchContext bnb_ctx{req.start, objective,
                                  req.portfolio.bnbBudget, o.seed, nullptr,
                                  &cache};
    {
        Tracer::Scope span(tracer, "search.bnb", 0);
        bnb.emplace(search::runBranchBound(bnb_ctx, req.portfolio.bnb));
    }
    counts["search.bnb_pruned"] += (double)bnb->stats.prunedByBound;
    for (const search::SearchStats *s : {&beam->stats, &bnb->stats}) {
        counts["search.tt_hits"] += (double)s->transpositionHits;
        counts["search.tt_probes"] +=
            (double)(s->transpositionHits + s->transpositionMisses);
    }
    for (const search::StrategyReport &rep : engine.telemetry.search) {
        const search::SearchStats *mine =
            rep.name == "beam"           ? &beam->stats
            : rep.name == "branch_bound" ? &bnb->stats
                                         : nullptr;
        if (mine != nullptr &&
            (mine->expansions != rep.stats.expansions ||
             mine->bestObjective != rep.stats.bestObjective)) {
            result.fail(0, "optimize replay of " + rep.name +
                               " differs from the engine");
        }
    }
}

} // namespace

RunResult
runOptimize(const RunOptions &opts, const OptimizeConfig &cfg)
{
    RunResult result;
    OptimizeState st;
    std::optional<uint64_t> first_objective;
    // Every request, warm-ups included, must reach the same objective.
    auto check = [&](std::size_t i, const api::OptimizeResult &r) {
        const uint64_t obj = objectiveOf(r.finalSchedule());
        if (obj > st.startObjective) {
            result.fail(i, "request " + std::to_string(i) +
                               " returned a schedule worse than its start");
        }
        if (!first_objective) {
            first_objective = obj;
        } else if (obj != *first_objective) {
            result.fail(i, "request " + std::to_string(i) +
                               " reached a different objective");
        }
        if (timeouts(r) != 0) {
            result.fail(i, "request " + std::to_string(i) +
                               " hit a MaxSAT timeout");
        }
    };

    const std::size_t reps = opts.trace ? 1 : cfg.setupReps;
    std::vector<api::OptimizeResult> warmups;
    const double setup_s = medianSetupSeconds(reps, [&](std::size_t) {
        code::SurfaceCode surface(cfg.distance);
        st.schedule.emplace(circuit::poorSurfaceSchedule(surface));
        st.startObjective = objectiveOf(*st.schedule);
        st.engine = std::make_unique<api::Engine>();
        warmups.push_back(st.engine->run(makeRequest(*st.schedule, cfg)));
    });
    // Warm-ups are checked too: they supply the repeats when the timed
    // loop runs a single request.
    for (std::size_t k = 0; k < warmups.size(); ++k) {
        ++result.attempted;
        check(kWarmupIndex + k, warmups[k]);
    }

    std::vector<api::OptimizeResult> results;
    uint64_t total_expansions = 0;
    const double loop_seconds = opts.trace ? opts.seconds / 2 : opts.seconds;
    LoopTimes loop = closedLoop(
        loop_seconds, opts.trace ? &result.requestSpans : nullptr, result,
        [&](std::size_t i) {
            results.emplace_back();
            results.back() = st.engine->run(makeRequest(*st.schedule, cfg));
            total_expansions += expansions(results.back());
            check(i, results.back());
        });

    const double ratio =
        first_objective && st.startObjective != 0
            ? (double)*first_objective / (double)st.startObjective
            : 0.0;
    result.info = loopInfo(loop);
    result.info.insert(result.info.end(), {
        {"start_objective", (double)st.startObjective, "count"},
        {"best_objective", first_objective ? (double)*first_objective : 0.0,
         "count"},
        {"expansions_per_request",
         results.empty() ? 0.0
                         : (double)total_expansions / (double)results.size(),
         "count"},
    });
    if (!results.empty()) {
        for (const search::StrategyReport &rep :
             results[0].telemetry.search) {
            result.info.push_back({"strategy." + rep.name + ".total_s",
                                   (double)rep.stats.totalUs * 1e-6, "s"});
            result.info.push_back({"strategy." + rep.name + ".winner",
                                   rep.winner ? 1.0 : 0.0, "count"});
        }
    }

    if (!opts.trace) {
        result.metrics = {
            {"setup_s", setup_s, "s"},
            {"request_p50_s", median(loop.latency), "s"},
            {"work_per_s", (double)total_expansions / loop.wallSeconds,
             "1/s"},
            {"objective", ratio, "frac"},
        };
        return result;
    }

    // Every request is identical, so one replay of request 0 covers them.
    Counters counts;
    replayAndReport(result, loop, 0.0, counts, [&](std::size_t i) {
        replayOptimize(makeRequest(*st.schedule, cfg), results[i],
                       &result.tracer, counts, result);
    });
    return result;
}

} // namespace perfbench
