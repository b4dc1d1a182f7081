/**
 * @file
 * sweep_lp39: SPRT SweepRequests on the lp39 coloration schedule.
 *
 * The artifact cache is cleared before every sweep, so each point
 * rebuilds its DEM and decoder prototype, and each point runs many
 * small SPRT chunk jobs through the decode service: the build and
 * per-job overheads the warm ler_rqt54 workload never pays.
 */
#include <memory>
#include <optional>

#include "api/engine.h"
#include "circuit/coloration.h"
#include "circuit/sm_circuit.h"
#include "code/codes.h"
#include "harness.h"
#include "sim/dem_builder.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using namespace prophunt;

namespace {

struct SweepState
{
    std::optional<circuit::SmSchedule> schedule;
    std::unique_ptr<api::Engine> engine;
};

api::SweepRequest
makeRequest(const circuit::SmSchedule &schedule, const SweepConfig &cfg,
            uint64_t seed)
{
    api::SweepRequest req(schedule);
    req.rounds = cfg.rounds;
    req.ps = cfg.ps;
    req.decoder = decoder::DecoderSpec{"bp_osd"};
    req.shotsPerPoint = cfg.shotsPerPoint;
    req.seed = seed;
    req.ler.shardShots = cfg.shardShots;
    req.sprt.enabled = true;
    req.sprt.decisionLer = cfg.decisionLer;
    return req;
}

/** Per-point tallies and decisions of two sweeps agree exactly. */
bool
samePoints(const api::SweepResult &a, const api::SweepResult &b)
{
    if (a.points.size() != b.points.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        const api::SweepPointResult &p = a.points[i];
        const api::SweepPointResult &q = b.points[i];
        if (p.memory.z.shots != q.memory.z.shots ||
            p.memory.z.failures != q.memory.z.failures ||
            p.memory.x.shots != q.memory.x.shots ||
            p.memory.x.failures != q.memory.x.failures ||
            p.decision != q.decision) {
            return false;
        }
    }
    return true;
}

/**
 * Replay one sweep single-threaded through the layers' public
 * functions, in the engine's order: circuits compiled once per basis,
 * a DEM and decoder built per point and basis, then SPRT chunks until
 * the canonical prefix evaluation decides. Returns the finalized
 * points.
 */
api::SweepResult
replaySweep(const api::SweepRequest &req, std::size_t index,
            Tracer *tracer, Counters &counts)
{
    Tracer::Scope root(tracer, "bench.replay", index);
    const api::SweepGrid grid = api::sweepGridFor(req);
    api::SweepCheckpoint cp = api::makeSweepCheckpoint(req);
    const circuit::MemoryBasis bases[2] = {circuit::MemoryBasis::Z,
                                           circuit::MemoryBasis::X};
    std::optional<circuit::SmCircuit> circ[2];
    api::SweepResult out;
    for (std::size_t pi = 0; pi < req.ps.size(); ++pi) {
        const sim::NoiseModel noise =
            sim::NoiseModel::withIdle(req.ps[pi], req.pIdle);
        std::optional<sim::Dem> dem[2];
        std::unique_ptr<decoder::Decoder> dec[2];
        api::SweepPointCheckpoint &point = cp.points[pi];
        for (std::size_t c = 0; c < grid.chunksPerPoint(); ++c) {
            api::SweepPrefix pre;
            {
                Tracer::Scope span(tracer, "api.sprt_eval", index);
                pre = api::evalSweepPrefix(point, grid, req.sprt);
            }
            if (pre.decision != api::SprtDecision::Undecided &&
                pre.chunksConsumed <= c) {
                break;
            }
            const uint64_t chunk_seed = api::sweepChunkSeed(req, grid, c);
            api::SweepChunkTally tally;
            for (std::size_t b = 0; b < 2; ++b) {
                if (!circ[b]) {
                    Tracer::Scope span(tracer, "circuit.compile", index);
                    circ[b].emplace(circuit::buildMemoryCircuit(
                        req.schedule, req.rounds, bases[b]));
                }
                if (!dem[b]) {
                    {
                        Tracer::Scope span(tracer, "sim.dem_build", index);
                        dem[b].emplace(sim::buildDem(*circ[b], noise));
                    }
                    Tracer::Scope span(tracer, "decoder.build", index);
                    dec[b] = decoder::makeDecoder(*dem[b], *circ[b],
                                                  req.decoder);
                }
                BasisTally t = replayShards(
                    *dem[b], *dec[b], grid.chunkSize(c),
                    decoder::memoryBasisSeed(chunk_seed, bases[b]),
                    req.ler.shardShots, tracer, index, counts);
                (b == 0 ? tally.zShots : tally.xShots) = t.shots;
                (b == 0 ? tally.zFailures : tally.xFailures) = t.failures;
            }
            tally.done = true;
            point.chunks[c] = tally;
            counts["api.sprt_chunks"] += 1;
        }
        out.points.push_back(api::finalizePoint(cp, pi));
    }
    return out;
}

} // namespace

RunResult
runSweep(const RunOptions &opts, const SweepConfig &cfg)
{
    RunResult result;
    SweepState st;
    const std::size_t reps = opts.trace ? 1 : cfg.setupReps;
    const double setup_s = medianSetupSeconds(reps, [&](std::size_t rep) {
        auto code =
            std::make_shared<const code::CssCode>(code::benchmarkLp39());
        st.schedule.emplace(circuit::colorationSchedule(code));
        st.engine = std::make_unique<api::Engine>();
        st.engine->run(makeRequest(*st.schedule, cfg, warmupSeed(rep)));
    });

    std::vector<api::SweepResult> results;
    const double loop_seconds = opts.trace ? opts.seconds / 2 : opts.seconds;
    LoopTimes loop = closedLoop(
        loop_seconds, opts.trace ? &result.requestSpans : nullptr, result,
        [&](std::size_t i) {
            results.emplace_back();
            st.engine->clearCache();
            results.back() = st.engine->run(
                makeRequest(*st.schedule, cfg, requestSeed(opts.seed, i)));
            const api::SweepResult &r = results.back();
            if (r.points.size() != cfg.ps.size()) {
                result.fail(i, "sweep " + std::to_string(i) + " returned " +
                                   std::to_string(r.points.size()) +
                                   " points");
            }
            for (const api::SweepPointResult &p : r.points) {
                if (p.decision == api::SprtDecision::None ||
                    p.memory.z.shots != p.memory.x.shots ||
                    p.memory.z.shots > cfg.shotsPerPoint) {
                    result.fail(i, "sweep " + std::to_string(i) +
                                       " has a malformed point");
                }
            }
            if (r.telemetry.reusedShots != 0) {
                result.fail(i, "sweep " + std::to_string(i) +
                                   " was served from recorded tallies");
            }
        });

    // Check: sweep 0 again at one thread on a fresh engine.
    if (!results.empty()) {
        api::Engine fresh;
        api::SweepRequest req =
            makeRequest(*st.schedule, cfg, requestSeed(opts.seed, 0));
        req.ler.threads = 1;
        if (!samePoints(fresh.run(req), results[0])) {
            result.fail(0, "sweep 0 differs between the default pool and "
                           "one thread");
        }
    }

    std::size_t shots = 0;
    std::size_t shots_z = 0, failures_z = 0, shots_x = 0, failures_x = 0;
    for (const api::SweepResult &r : results) {
        shots += r.totalShots();
        for (const api::SweepPointResult &p : r.points) {
            shots_z += p.memory.z.shots;
            failures_z += p.memory.z.failures;
            shots_x += p.memory.x.shots;
            failures_x += p.memory.x.failures;
        }
    }
    const double pooled_ler =
        shots_z == 0 || shots_x == 0
            ? 0.0
            : 1.0 - (1.0 - (double)failures_z / (double)shots_z) *
                        (1.0 - (double)failures_x / (double)shots_x);
    result.info = loopInfo(loop);
    result.info.insert(result.info.end(), {
        {"shots_per_request",
         results.empty() ? 0.0 : (double)shots / (double)results.size(),
         "count"},
        {"pooled_ler", pooled_ler, "frac"},
    });

    if (!opts.trace) {
        result.metrics = {
            {"setup_s", setup_s, "s"},
            {"request_p50_s", median(loop.latency), "s"},
            {"work_per_s", (double)shots / loop.wallSeconds, "1/s"},
            {"objective", pooled_ler, "frac"},
        };
        return result;
    }

    // Traced: replay sweeps in order for the other half of the budget.
    Counters counts;
    auto replay = [&](std::size_t i) {
        api::SweepResult r = replaySweep(
            makeRequest(*st.schedule, cfg, requestSeed(opts.seed, i)), i,
            &result.tracer, counts);
        if (!samePoints(r, results[i])) {
            result.fail(i, "sweep replay of request " + std::to_string(i) +
                               " differs from the engine");
        }
        counts["api.cache_hits"] += (double)results[i].telemetry.cacheHits;
        counts["api.cache_misses"] +=
            (double)results[i].telemetry.cacheMisses;
    };
    replayAndReport(result, loop, opts.seconds / 2, counts, replay);
    return result;
}

} // namespace perfbench
