#include "api/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "api/fnv.h"
#include "circuit/flags.h"
#include "circuit/sm_circuit.h"
#include "sim/dem_builder.h"
#include "sim/parallel_sampler.h"

namespace prophunt::api {

namespace {

using detail::fnv;
using detail::fnvStr;

uint64_t
now_us()
{
    return (uint64_t)std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Full schedule identity, used to verify hash-keyed cache hits. */
bool
sameSchedule(const circuit::SmSchedule &a, const circuit::SmSchedule &b)
{
    return a.code().name() == b.code().name() &&
           a.code().n() == b.code().n() &&
           a.code().numChecks() == b.code().numChecks() && a == b;
}

std::string
circuitKey(const circuit::SmSchedule &schedule, std::size_t rounds,
           circuit::MemoryBasis basis, std::size_t flag_weight)
{
    char key[80];
    std::snprintf(key, sizeof key, "c%016llx|r%zu|b%d|f%zu",
                  (unsigned long long)hashSchedule(schedule), rounds,
                  basis == circuit::MemoryBasis::Z ? 0 : 1, flag_weight);
    return key;
}

std::string
noiseKey(const sim::NoiseModel &noise)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g,%.17g,%.17g", noise.p1, noise.p2,
                  noise.pIdle);
    return buf;
}

} // namespace

uint64_t
hashSchedule(const circuit::SmSchedule &schedule)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    const code::CssCode &code = schedule.code();
    fnvStr(h, code.name());
    fnv(h, code.n());
    fnv(h, code.k());
    fnv(h, code.numChecks());
    for (std::size_t c = 0; c < code.numChecks(); ++c) {
        for (std::size_t q : code.checkSupport(c)) {
            fnv(h, q);
        }
        fnv(h, 0xdeadULL); // Check separator.
        for (std::size_t q : schedule.checkOrder(c)) {
            fnv(h, q);
        }
        fnv(h, 0xbeefULL);
    }
    for (std::size_t q = 0; q < code.n(); ++q) {
        for (std::size_t c : schedule.qubitOrder(q)) {
            fnv(h, c);
        }
        fnv(h, 0xfeedULL);
    }
    return h;
}

std::shared_ptr<const circuit::SmCircuit>
Engine::circuitFor(const std::string &key,
                   const circuit::SmSchedule &schedule, std::size_t rounds,
                   circuit::MemoryBasis basis, std::size_t flag_weight,
                   Telemetry &telemetry)
{
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        auto it = circuitCache_.find(key);
        if (it != circuitCache_.end() &&
            sameSchedule(it->second.schedule, schedule)) {
            ++cacheHits_;
            ++telemetry.cacheHits;
            return it->second.circuit;
        }
    }
    uint64_t t0 = now_us();
    auto circuit = std::make_shared<const circuit::SmCircuit>(
        flag_weight == 0
            ? circuit::buildMemoryCircuit(schedule, rounds, basis)
            : circuit::buildFlaggedMemoryCircuit(schedule, rounds, basis,
                                                 flag_weight));
    telemetry.buildUs += now_us() - t0;
    ++telemetry.cacheMisses;
    std::lock_guard<std::mutex> lock(cacheMutex_);
    ++cacheMisses_;
    // A racing builder may have inserted the key meanwhile; keep the
    // first entry so every borrower shares one artifact. A key held by a
    // *different* schedule (64-bit hash collision) keeps its entry too —
    // the colliding schedule just rebuilds uncached.
    auto [it, inserted] =
        circuitCache_.emplace(key, CircuitEntry{schedule, circuit});
    if (inserted) {
        circuitOrder_.push_back(key);
        if (circuitOrder_.size() > kMaxCacheEntries) {
            circuitCache_.erase(circuitOrder_.front());
            circuitOrder_.pop_front();
        }
    }
    if (sameSchedule(it->second.schedule, schedule)) {
        return it->second.circuit;
    }
    return circuit;
}

Engine::Artifact
Engine::artifactFor(const circuit::SmSchedule &schedule, std::size_t rounds,
                    circuit::MemoryBasis basis,
                    const sim::NoiseModel &noise,
                    const decoder::DecoderSpec &spec,
                    std::size_t flag_weight, Telemetry &telemetry,
                    std::shared_ptr<const circuit::SmCircuit> circuit)
{
    const std::string cKey = circuitKey(schedule, rounds, basis, flag_weight);
    std::string demKey = cKey + "|n" + noiseKey(noise) + "|d" +
                         spec.describe();

    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        auto it = demCache_.find(demKey);
        if (it != demCache_.end() &&
            sameSchedule(it->second->schedule, schedule)) {
            ++cacheHits_;
            ++telemetry.cacheHits;
            // No decoder clone here: the decode service checks warm
            // clones out of the key's lane group per shard.
            return {std::move(demKey), it->second};
        }
    }

    if (!circuit) {
        circuit =
            circuitFor(cKey, schedule, rounds, basis, flag_weight, telemetry);
    }
    uint64_t t0 = now_us();
    sim::Dem dem = sim::buildDem(*circuit, noise);
    auto prototype = decoder::Registry::make(spec, dem, *circuit);
    auto entry = std::make_shared<DemEntry>(
        DemEntry{schedule, std::move(dem), std::move(prototype)});
    telemetry.buildUs += now_us() - t0;
    ++telemetry.cacheMisses;
    std::lock_guard<std::mutex> lock(cacheMutex_);
    ++cacheMisses_;
    auto [it, inserted] = demCache_.emplace(demKey, entry);
    if (inserted) {
        demOrder_.push_back(demKey);
        if (demOrder_.size() > kMaxCacheEntries) {
            demCache_.erase(demOrder_.front());
            demOrder_.pop_front();
        }
    }
    // On a hash collision the first entry stays; this request keeps its
    // privately built artifacts.
    if (sameSchedule(it->second->schedule, schedule)) {
        return {std::move(demKey), it->second};
    }
    return {std::move(demKey), std::move(entry)};
}

decoder::LerResult
Engine::serviceMeasure(const Artifact &art, std::size_t shots, uint64_t seed,
                       const decoder::LerOptions &ler,
                       const std::atomic<bool> *cancel, Telemetry &telemetry)
{
    DecodeJob job;
    job.key = art.demKey;
    job.dem = &art.entry->dem;
    job.prototype = art.entry->prototype.get();
    job.keepAlive = art.entry;
    job.shots = shots;
    job.seed = seed;
    job.ler = ler;
    job.cancel = cancel;
    uint64_t t0 = now_us();
    DecodeOutcome o = service_.measure(job);
    telemetry.decodeUs += now_us() - t0;
    telemetry.shots += o.result.shots;
    telemetry.packed += o.result.packed;
    telemetry.reusedShots += o.reusedShots;
    telemetry.coalescedRequests += o.coalesced ? 1 : 0;
    telemetry.workSteals += o.steals;
    telemetry.queueDepth = std::max(telemetry.queueDepth, o.queueDepth);
    return o.result;
}

LerResult
Engine::run(const LerRequest &req)
{
    validateLerRequest(req);
    LerResult out;
    if (req.shots == 0) {
        // A zero-shot request has a well-formed empty answer; skip the
        // artifact build so the telemetry stays zeroed too.
        return out;
    }
    for (auto basis : {circuit::MemoryBasis::Z, circuit::MemoryBasis::X}) {
        Artifact art =
            artifactFor(req.schedule, req.rounds, basis, req.noise,
                        req.decoder, req.flagWeight, out.telemetry);
        decoder::LerResult r = serviceMeasure(
            art, req.shots, decoder::memoryBasisSeed(req.seed, basis),
            req.ler, req.cancel, out.telemetry);
        (basis == circuit::MemoryBasis::Z ? out.memory.z : out.memory.x) =
            r;
    }
    return out;
}

void
Engine::sweepPointCells(
    const SweepRequest &req, const SweepGrid &grid, std::size_t pi,
    const SweepPointCheckpoint &pointCp, const SweepCircuits &circuits,
    SweepPointWork &work,
    const std::function<void(std::size_t, std::size_t,
                             const SweepChunkTally &)> &commit)
{
    const std::size_t n_chunks = grid.chunksPerPoint();
    if (n_chunks == 0) {
        return; // Zero-shot point: nothing to compute, decision None.
    }
    sim::NoiseModel noise =
        sim::NoiseModel::withIdle(req.ps[pi], req.pIdle);
    // Artifacts are built lazily: a fully checkpointed point resumes
    // without touching the DEM cache at all.
    Artifact artZ, artX;
    bool have_artifacts = false;

    for (std::size_t c = 0; c < n_chunks; ++c) {
        if (grid.sprt) {
            // Canonical early stop: once the contiguous done prefix
            // decides, every later chunk is irrelevant — the serial
            // loop stopped here, and finalize will never read past it.
            // (Shard workers rarely see a contiguous prefix and so
            // compute their whole slice; the merge discards the
            // speculative excess the same way.)
            SweepPrefix pre = evalSweepPrefix(pointCp, grid, req.sprt);
            if (pre.decision != SprtDecision::Undecided &&
                pre.chunksConsumed <= c) {
                break;
            }
        }
        if (pointCp.chunks[c].done ||
            !grid.ownsCell(req.shard.index,
                           std::max<std::size_t>(1, req.shard.count), pi,
                           c)) {
            continue;
        }
        if (req.cancel != nullptr && req.cancel->load()) {
            work.interrupted = true;
            break;
        }
        if (!have_artifacts) {
            artZ = artifactFor(req.schedule, req.rounds,
                               circuit::MemoryBasis::Z, noise, req.decoder,
                               req.flagWeight, work.telemetry, circuits[0]);
            artX = artifactFor(req.schedule, req.rounds,
                               circuit::MemoryBasis::X, noise, req.decoder,
                               req.flagWeight, work.telemetry, circuits[1]);
            have_artifacts = true;
        }
        const std::size_t chunk_shots = grid.chunkSize(c);
        const uint64_t chunk_seed = sweepChunkSeed(req, grid, c);
        SweepChunkTally tally;
        for (auto basis :
             {circuit::MemoryBasis::Z, circuit::MemoryBasis::X}) {
            Artifact &art = basis == circuit::MemoryBasis::Z ? artZ : artX;
            decoder::LerResult r = serviceMeasure(
                art, chunk_shots,
                decoder::memoryBasisSeed(chunk_seed, basis), req.ler,
                req.cancel, work.telemetry);
            if (basis == circuit::MemoryBasis::Z) {
                tally.zShots = r.shots;
                tally.zFailures = r.failures;
                tally.zEarlyStopped = r.earlyStopped;
                work.zPacked += r.packed;
            } else {
                tally.xShots = r.shots;
                tally.xFailures = r.failures;
                tally.xEarlyStopped = r.earlyStopped;
                work.xPacked += r.packed;
            }
        }
        if (req.cancel != nullptr && req.cancel->load()) {
            // The cancel flag flipped while this chunk was in flight;
            // its tallies may be a truncated shard prefix rather than
            // the canonical chunk. Discard it — results and checkpoints
            // carry only full canonical cells, so a resume recomputes
            // this chunk and stays bit-identical.
            work.interrupted = true;
            break;
        }
        tally.done = true;
        commit(pi, c, tally);
    }
}

SweepResult
Engine::run(const SweepRequest &req)
{
    validateSweepRequest(req);
    const SweepGrid grid = sweepGridFor(req);
    const bool persist = !req.checkpointPath.empty();

    SweepCheckpoint cp = makeSweepCheckpoint(req);
    if (persist) {
        if (auto loaded = SweepCheckpoint::loadIfExists(req.checkpointPath)) {
            if (loaded->fingerprint != cp.fingerprint) {
                throw std::runtime_error(
                    "SweepRequest: checkpoint '" + req.checkpointPath +
                    "' belongs to a different request (fingerprint "
                    "mismatch); point it elsewhere or delete it");
            }
            if (loaded->shardIndex != cp.shardIndex ||
                loaded->shardCount != cp.shardCount) {
                throw std::runtime_error(
                    "SweepRequest: checkpoint '" + req.checkpointPath +
                    "' was written by shard " +
                    std::to_string(loaded->shardIndex) + "/" +
                    std::to_string(loaded->shardCount) +
                    ", not this request's shard slice");
            }
            if (loaded->points.size() != cp.points.size()) {
                throw std::runtime_error(
                    "SweepRequest: checkpoint '" + req.checkpointPath +
                    "' does not match the request's point grid");
            }
            cp = std::move(*loaded);
        }
    }

    // Cell commits, the save counter and the save itself share one
    // lock, so a save never reads a point another participant is
    // writing. A point's own participant reads its cells unlocked: it is
    // their only writer.
    std::mutex cp_mutex;
    const std::size_t save_every =
        std::max<std::size_t>(1, req.checkpointEveryChunks);
    std::size_t since_save = 0;
    auto commit = [&](std::size_t pi, std::size_t c,
                      const SweepChunkTally &tally) {
        std::lock_guard<std::mutex> lock(cp_mutex);
        cp.points[pi].chunks[c] = tally;
        if (persist && ++since_save >= save_every) {
            cp.saveAtomic(req.checkpointPath);
            since_save = 0;
        }
    };

    SweepResult out;
    // The circuit cache key carries no p, so concurrent points would
    // race to build the same circuit and make the cache counters depend
    // on timing: resolve each basis's circuit once, before the fan-out.
    // Its cost is the sweep's, not any point's.
    SweepCircuits circuits;
    if (grid.chunksPerPoint() > 0 &&
        !(req.cancel != nullptr && req.cancel->load())) {
        const circuit::MemoryBasis bases[2] = {circuit::MemoryBasis::Z,
                                               circuit::MemoryBasis::X};
        for (std::size_t b = 0; b < 2; ++b) {
            circuits[b] = circuitFor(
                circuitKey(req.schedule, req.rounds, bases[b],
                           req.flagWeight),
                req.schedule, req.rounds, bases[b], req.flagWeight,
                out.telemetry);
        }
    }

    // Points are claimed in ascending order; each participant runs one
    // point's serial chunk loop at a time. A cancel stops new claims.
    const std::size_t n_points = req.ps.size();
    std::vector<SweepPointWork> work(n_points);
    sim::WorkerPool::shared().run(
        n_points, std::min(n_points, sim::resolveThreads(req.ler.threads)),
        [&](std::size_t pi, std::size_t) {
            work[pi].started = true;
            sweepPointCells(req, grid, pi, cp.points[pi], circuits,
                            work[pi], commit);
        },
        req.cancel);

    // Merge in point order. Telemetry reports this run's work
    // (build/decode time, cache traffic, freshly sampled shots) of every
    // point, kept or dropped; the memory tallies always account the full
    // canonical prefix, checkpointed or fresh. The result ends at the
    // first incomplete point — unclaimed, or cancelled mid-point, which
    // then contributes its contiguous done-chunk prefix if it has one —
    // as the serial loop did. Later points' finished cells stay in the
    // checkpoint.
    out.points.reserve(n_points);
    bool truncated = false;
    for (std::size_t pi = 0; pi < n_points; ++pi) {
        out.telemetry += work[pi].telemetry;
        if (truncated || !work[pi].started) {
            truncated = true;
            continue;
        }
        SweepPointResult pt = finalizePoint(cp, pi);
        pt.telemetry = work[pi].telemetry;
        pt.memory.z.packed = work[pi].zPacked;
        pt.memory.x.packed = work[pi].xPacked;
        if (work[pi].interrupted) {
            truncated = true;
            if (pt.memory.z.shots + pt.memory.x.shots == 0) {
                continue;
            }
        }
        out.points.push_back(pt);
    }
    if (persist) {
        // Always leave a final checkpoint on disk — even a no-progress
        // shard writes its (empty) slice so the merge step has a
        // complete set of files to work from.
        cp.saveAtomic(req.checkpointPath);
    }
    return out;
}

OptimizeResult
Engine::run(const OptimizeRequest &req)
{
    validateOptimizeRequest(req);
    OptimizeResult out;
    uint64_t t0 = now_us();
    core::PropHuntOptions opts = req.options;
    if (req.cancel != nullptr) {
        opts.cancel = req.cancel;
    }
    if (req.portfolio.enabled) {
        out.outcome =
            search::runPortfolio(req.start, req.rounds, opts,
                                 req.portfolio);
    } else {
        core::PropHunt tool(opts);
        out.outcome = tool.optimize(req.start, req.rounds);
    }
    out.telemetry.search = out.outcome.searchReports;
    // The optimizer samples/decodes internally; its whole wall time is
    // reported as decode time.
    out.telemetry.decodeUs += now_us() - t0;
    return out;
}

Engine::CacheStats
Engine::cacheStats() const
{
    std::lock_guard<std::mutex> lock(cacheMutex_);
    return {circuitCache_.size(), demCache_.size(), cacheHits_,
            cacheMisses_};
}

void
Engine::clearCache()
{
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        circuitCache_.clear();
        circuitOrder_.clear();
        demCache_.clear();
        demOrder_.clear();
    }
    // Warm clones and tallies borrow cache-owned artifacts; dropping the
    // cache without them would only waste memory (identity guards keep
    // correctness either way).
    service_.clear();
}

DecodeServiceStats
Engine::serviceStats() const
{
    return service_.stats();
}

} // namespace prophunt::api
