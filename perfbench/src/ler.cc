/**
 * @file
 * ler_rqt54: warm LerRequests on the rqt54 coloration schedule.
 *
 * The production hot path: sample -> lane BP -> batched OSD ->
 * DecodeService. After set-up the engine's compile, DEM and decoder
 * caches serve every request, so each request is pure decode work.
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

struct LerState
{
    std::optional<circuit::SmSchedule> schedule;
    std::unique_ptr<api::Engine> engine;
};

api::LerRequest
makeRequest(const LerState &st, const LerConfig &cfg, uint64_t seed)
{
    api::LerRequest req(*st.schedule);
    req.rounds = cfg.rounds;
    req.noise = sim::NoiseModel::uniform(cfg.p);
    req.decoder = decoder::DecoderSpec{"bp_osd"};
    req.shots = cfg.shots;
    req.seed = seed;
    req.ler.shardShots = cfg.shardShots;
    return req;
}

/** The replay's own copy of one basis's artifacts. */
struct BasisArtifacts
{
    circuit::MemoryBasis basis;
    sim::Dem dem;
    std::unique_ptr<decoder::Decoder> dec;
};

/** Replay request @p index single-threaded and compare each basis's
 * tally with the engine's result. */
void
replayRequest(std::vector<BasisArtifacts> &arts, const LerConfig &cfg,
              uint64_t seed, const api::LerResult &engine,
              std::size_t index, Tracer *tracer, Counters &counts,
              RunResult &result)
{
    Tracer::Scope root(tracer, "bench.replay", index);
    for (BasisArtifacts &a : arts) {
        BasisTally t = replayShards(
            a.dem, *a.dec, cfg.shots, decoder::memoryBasisSeed(seed, a.basis),
            cfg.shardShots, tracer, index, counts);
        const decoder::LerResult &e =
            a.basis == circuit::MemoryBasis::Z ? engine.memory.z
                                               : engine.memory.x;
        if (!sameTally(t, e)) {
            result.fail(index, "ler replay of request " +
                                   std::to_string(index) + " differs: " +
                                   describeTally(t, e));
        }
    }
}

} // namespace

RunResult
runLer(const RunOptions &opts, const LerConfig &cfg)
{
    RunResult result;
    LerState st;
    const std::size_t reps = opts.trace ? 1 : cfg.setupReps;
    const double setup_s = medianSetupSeconds(reps, [&](std::size_t rep) {
        auto code = std::make_shared<const code::CssCode>(
            code::benchmarkRqt54());
        st.schedule.emplace(circuit::colorationSchedule(code));
        st.engine = std::make_unique<api::Engine>();
        st.engine->run(makeRequest(st, cfg, warmupSeed(rep)));
    });

    std::vector<api::LerResult> results;
    const double loop_seconds = opts.trace ? opts.seconds / 2 : opts.seconds;
    LoopTimes loop = closedLoop(
        loop_seconds, opts.trace ? &result.requestSpans : nullptr, result,
        [&](std::size_t i) {
            // Slot first, so results[i] is request i even if it throws.
            results.emplace_back();
            results.back() = st.engine->run(
                makeRequest(st, cfg, requestSeed(opts.seed, i)));
            const api::LerResult &r = results.back();
            const api::Telemetry &t = r.telemetry;
            if (r.memory.z.shots != cfg.shots ||
                r.memory.x.shots != cfg.shots || t.shots != 2 * cfg.shots) {
                result.fail(i, "request " + std::to_string(i) +
                                   " decoded the wrong shot count");
            }
            if (t.reusedShots != 0) {
                result.fail(i, "request " + std::to_string(i) +
                                   " was served from recorded tallies");
            }
            if (t.cacheMisses != 0) {
                result.fail(i, "request " + std::to_string(i) +
                                   " rebuilt a cached artifact");
            }
        });

    // The replay's artifacts are its own, built outside any span: the
    // engine serves every timed request from its warm cache.
    std::vector<BasisArtifacts> arts;
    for (auto basis : {circuit::MemoryBasis::Z, circuit::MemoryBasis::X}) {
        circuit::SmCircuit circ =
            circuit::buildMemoryCircuit(*st.schedule, cfg.rounds, basis);
        sim::Dem dem = sim::buildDem(circ, sim::NoiseModel::uniform(cfg.p));
        auto dec = decoder::makeDecoder(dem, circ, {"bp_osd"});
        arts.push_back({basis, std::move(dem), std::move(dec)});
    }

    std::size_t shots = 0;
    std::size_t failures_z = 0, failures_x = 0;
    for (const api::LerResult &r : results) {
        shots += r.telemetry.shots;
        failures_z += r.memory.z.failures;
        failures_x += r.memory.x.failures;
    }
    const double n_basis = (double)(results.size() * cfg.shots);
    const double pooled_ler =
        n_basis == 0.0 ? 0.0
                       : 1.0 - (1.0 - failures_z / n_basis) *
                                   (1.0 - failures_x / n_basis);
    result.info = loopInfo(loop);
    result.info.insert(result.info.end(), {
        {"shots_per_request", (double)(2 * cfg.shots), "count"},
        {"pooled_ler", pooled_ler, "frac"},
    });

    if (!opts.trace) {
        // The untraced run checks one replay: request 0.
        Counters unused;
        if (!results.empty()) {
            replayRequest(arts, cfg, requestSeed(opts.seed, 0), results[0],
                          0, nullptr, unused, result);
        }
        result.metrics = {
            {"setup_s", setup_s, "s"},
            {"request_p50_s", median(loop.latency), "s"},
            {"work_per_s", (double)shots / loop.wallSeconds, "1/s"},
            {"objective", pooled_ler, "frac"},
        };
        return result;
    }

    // Traced: replay requests in order for the other half of the budget.
    Counters counts;
    auto replay = [&](std::size_t i) {
        replayRequest(arts, cfg, requestSeed(opts.seed, i), results[i], i,
                      &result.tracer, counts, result);
        counts["api.cache_hits"] += (double)results[i].telemetry.cacheHits;
        counts["api.cache_misses"] +=
            (double)results[i].telemetry.cacheMisses;
    };
    replayAndReport(result, loop, opts.seconds / 2, counts, replay);
    return result;
}

} // namespace perfbench
