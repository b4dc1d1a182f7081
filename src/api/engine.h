/**
 * @file
 * prophunt::api::Engine — the one entry point for every workload.
 *
 * The engine serves typed requests (api/requests.h) over the existing
 * simulation/decoding machinery, adding the production-side concerns the
 * free functions never had:
 *
 *  - an artifact cache: compiled memory circuits are keyed by
 *    (schedule hash, rounds, basis); built DEMs and decoder prototypes
 *    additionally by (noise model, decoder spec). Sweeps and repeated
 *    requests reuse them instead of rebuilding per point — the dominant
 *    non-decode cost of fig06/fig12-style sweeps. Each layer is a FIFO
 *    of at most kMaxCacheEntries entries. Warm and cold runs are
 *    bit-identical: DEM construction is deterministic and
 *    Decoder::clone() must not affect decode results.
 *  - a decode service: every LER measurement (fixed-budget and SPRT
 *    chunks alike) flows through a long-lived api::DecodeService, which
 *    keeps lane groups of warm decoder clones per decode key, coalesces
 *    concurrent same-key requests into one shard stream on a persistent
 *    worker pool, and reuses recorded shard tallies across requests —
 *    all bit-identical to a serial run of the same shard stream.
 *  - adaptive sweeps: run(SweepRequest) with SprtOptions::enabled allocates
 *    shots across sweep points with a sequential test (api/sprt.h)
 *    instead of a fixed per-point budget.
 *  - checkpointable, shardable sweeps: SweepRequest execution walks a
 *    deterministic (point, chunk) cell grid (api/sweep_checkpoint.h);
 *    with checkpointPath set the completed cells persist atomically and
 *    a rerun resumes bit-identically to an uninterrupted run, and with
 *    shard.count > 1 the process serves only its slice of cells, to be
 *    merged by mergeSweepCheckpoints + finalizeSweep. A sweep's points
 *    run concurrently on the shared worker pool (bounded by
 *    ler.threads); each point's chunk loop stays serial.
 *
 * Thread safety: all public methods may be called concurrently, so a
 * caller wanting a future wraps run() in std::async. The engine owns no
 * threads of its own: all work runs on the caller and the shared
 * sim::WorkerPool.
 */
#ifndef PROPHUNT_API_ENGINE_H
#define PROPHUNT_API_ENGINE_H

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/decode_service.h"
#include "api/requests.h"
#include "api/sweep_checkpoint.h"

namespace prophunt::api {

/**
 * Structural hash of a schedule: code shape (name, n, k, check supports)
 * plus both order families. Equal schedules of equal codes hash equal
 * across processes; used as the artifact-cache key component.
 */
uint64_t hashSchedule(const circuit::SmSchedule &schedule);

/** The unified workload engine. */
class Engine
{
  public:
    /** FIFO capacity of each artifact-cache layer (circuits, DEMs). */
    static constexpr std::size_t kMaxCacheEntries = 256;

    Engine() = default;
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Measure one schedule's combined memory-Z/X LER: basis b samples
     * with master seed decoder::memoryBasisSeed(seed, b), bit-identical
     * at every thread count. Throws std::invalid_argument at admission
     * (validateLerRequest). */
    LerResult run(const LerRequest &req);

    /**
     * Run a physical-error-rate sweep (adaptive if req.sprt.enabled).
     *
     * Points run concurrently on sim::WorkerPool::shared(), at most
     * min(points, ler.threads) at once (0 = hardware concurrency); each
     * point keeps its serial chunk loop, so the result is bit-identical
     * at every thread count. Checkpoint writes are serialized. After a
     * cancel the result keeps the serial shape: every point before the
     * first incomplete one, then that point's contiguous done-chunk
     * prefix if it has one. Telemetry::buildUs and decodeUs sum the work
     * of concurrent points, so they can exceed the wall time.
     */
    SweepResult run(const SweepRequest &req);

    /** Run the PropHunt optimizer. */
    OptimizeResult run(const OptimizeRequest &req);

    struct CacheStats
    {
        std::size_t circuitEntries = 0;
        std::size_t demEntries = 0;
        std::size_t hits = 0;
        std::size_t misses = 0;
    };
    CacheStats cacheStats() const;
    void clearCache();

    /** Decode-service lifetime counters (coalescing, steals, reuse). */
    DecodeServiceStats serviceStats() const;

  private:
    /**
     * A compiled circuit plus the schedule it came from. Cache keys carry
     * only a 64-bit schedule hash; the stored schedule is compared on
     * every hit so a hash collision degrades to a rebuild, never to
     * silently serving another schedule's artifacts.
     */
    struct CircuitEntry
    {
        circuit::SmSchedule schedule;
        std::shared_ptr<const circuit::SmCircuit> circuit;
    };

    /** A built DEM plus the decoder prototype runs clone from. */
    struct DemEntry
    {
        circuit::SmSchedule schedule;
        sim::Dem dem;
        std::unique_ptr<decoder::Decoder> prototype;
    };

    /** What one measurement borrows: the shared DEM entry plus its cache
     * key — the decode service's coalescing/reuse identity. Decoder
     * clones are checked out inside the service per shard. */
    struct Artifact
    {
        std::string demKey;
        std::shared_ptr<const DemEntry> entry;
    };

    std::shared_ptr<const circuit::SmCircuit>
    circuitFor(const std::string &key, const circuit::SmSchedule &schedule,
               std::size_t rounds, circuit::MemoryBasis basis,
               std::size_t flag_weight, Telemetry &telemetry);

    /** @p circuit, when non-null, is the already compiled circuit of
     * (schedule, rounds, basis, flag_weight); null looks it up. */
    Artifact artifactFor(const circuit::SmSchedule &schedule,
                         std::size_t rounds, circuit::MemoryBasis basis,
                         const sim::NoiseModel &noise,
                         const decoder::DecoderSpec &spec,
                         std::size_t flag_weight, Telemetry &telemetry,
                         std::shared_ptr<const circuit::SmCircuit> circuit =
                             nullptr);

    /** A sweep's compiled circuits: [0] memory-Z, [1] memory-X. */
    using SweepCircuits =
        std::array<std::shared_ptr<const circuit::SmCircuit>, 2>;

    /** What one sweep point did in this run. */
    struct SweepPointWork
    {
        Telemetry telemetry;
        /** Packed-decode stats of the freshly computed cells. */
        decoder::PackedDecodeStats zPacked, xPacked;
        /** A participant claimed the point (cancel can stop claims). */
        bool started = false;
        /** req.cancel stopped the point before its owned cells
         * finished. */
        bool interrupted = false;
    };

    /**
     * Compute every owned, still-pending cell of sweep point @p pi in
     * canonical chunk order. @p pointCp is only read here; each newly
     * completed cell is handed to @p commit (point, chunk, tally), which
     * records it and writes checkpoints.
     */
    void sweepPointCells(
        const SweepRequest &req, const SweepGrid &grid, std::size_t pi,
        const SweepPointCheckpoint &pointCp, const SweepCircuits &circuits,
        SweepPointWork &work,
        const std::function<void(std::size_t, std::size_t,
                                 const SweepChunkTally &)> &commit);

    /** Run one basis measurement through the decode service and fold the
     * outcome's telemetry into @p telemetry. */
    decoder::LerResult serviceMeasure(const Artifact &art, std::size_t shots,
                                      uint64_t seed,
                                      const decoder::LerOptions &ler,
                                      const std::atomic<bool> *cancel,
                                      Telemetry &telemetry);

    DecodeService service_;

    mutable std::mutex cacheMutex_;
    std::map<std::string, CircuitEntry> circuitCache_;
    std::deque<std::string> circuitOrder_;
    std::map<std::string, std::shared_ptr<const DemEntry>> demCache_;
    std::deque<std::string> demOrder_;
    std::size_t cacheHits_ = 0;
    std::size_t cacheMisses_ = 0;
};

} // namespace prophunt::api

#endif // PROPHUNT_API_ENGINE_H
