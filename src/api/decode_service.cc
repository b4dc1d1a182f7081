#include "api/decode_service.h"

#include <algorithm>
#include <cstdio>

#include "sim/frame_sampler.h"

namespace prophunt::api {

namespace {

/**
 * Stream tag of the last shard this thread decoded. A thread whose next
 * shard belongs to a different stream "stole" it in the classic sense:
 * it finished one request's work and moved onto another's queue. Tags
 * are only compared, never dereferenced, so a recycled address can at
 * worst miscount one steal — acceptable for a telemetry counter.
 */
thread_local const void *tlLastStream = nullptr;

} // namespace

DecodeService::DecodeService(DecodeServiceOptions opts)
{
    if (opts.threads > 0) {
        pool_ = std::make_unique<sim::WorkerPool>(opts.threads);
    }
}

DecodeService::~DecodeService() = default;

sim::WorkerPool &
DecodeService::pool()
{
    return pool_ ? *pool_ : sim::WorkerPool::shared();
}

std::size_t
DecodeService::defaultSlotCap() const
{
    // One caller plus every pool worker; the shared pool is sized
    // hardware_concurrency() - 1, so both branches saturate the machine.
    return pool_ ? pool_->threadCount() + 1 : sim::resolveThreads(0);
}

std::shared_ptr<DecodeService::LaneGroup>
DecodeService::groupForLocked(const DecodeJob &job)
{
    auto it = groups_.find(job.key);
    if (it != groups_.end()) {
        if (it->second->owner.get() == job.keepAlive.get()) {
            return it->second;
        }
        // The key re-bound to a rebuilt artifact (or a 64-bit key
        // collision): drop the stale clones, adopt the new owner.
        it->second = std::make_shared<LaneGroup>();
        it->second->owner = job.keepAlive;
        return it->second;
    }
    auto group = std::make_shared<LaneGroup>();
    group->owner = job.keepAlive;
    groups_.emplace(job.key, group);
    groupOrder_.push_back(job.key);
    if (groupOrder_.size() > kMaxLaneGroups) {
        groups_.erase(groupOrder_.front());
        groupOrder_.pop_front();
    }
    return group;
}

std::shared_ptr<DecodeService::TallyEntry>
DecodeService::tallyForLocked(const std::string &tally_key,
                              const DecodeJob &job, bool create)
{
    auto it = tallies_.find(tally_key);
    if (it != tallies_.end()) {
        if (it->second->owner.get() == job.keepAlive.get()) {
            return it->second;
        }
        if (!create) {
            return nullptr;
        }
        it->second = std::make_shared<TallyEntry>();
        it->second->owner = job.keepAlive;
        return it->second;
    }
    if (!create) {
        return nullptr;
    }
    auto entry = std::make_shared<TallyEntry>();
    entry->owner = job.keepAlive;
    tallies_.emplace(tally_key, entry);
    tallyOrder_.push_back(tally_key);
    if (tallyOrder_.size() > kMaxTallyKeys) {
        tallies_.erase(tallyOrder_.front());
        tallyOrder_.pop_front();
    }
    return entry;
}

std::unique_ptr<decoder::Decoder>
DecodeService::checkout(LaneGroup &group, const DecodeJob &job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!group.idle.empty()) {
            auto dec = std::move(group.idle.back());
            group.idle.pop_back();
            ++stats_.cloneHits;
            return dec;
        }
        ++stats_.cloneMisses;
    }
    // Clone outside the lock: a BP+OSD scratch copy is large and must
    // not serialize the whole service (the shared Tanner CSR itself is
    // not copied — clones alias it).
    return job.prototype->clone();
}

void
DecodeService::giveBack(LaneGroup &group,
                        std::unique_ptr<decoder::Decoder> dec)
{
    std::lock_guard<std::mutex> lock(mutex_);
    group.idle.push_back(std::move(dec));
}

DecodeOutcome
DecodeService::measure(const DecodeJob &job)
{
    DecodeOutcome out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.requests;
    }
    if (job.shots == 0) {
        // Well-formed empty run: nothing admitted, nothing recorded.
        return out;
    }
    // Throw in the caller before any shard reaches a pool thread.
    sim::validateDemProbabilities(*job.dem, "DecodeService::measure");

    // A shard larger than the run is one shard, so shard seeds match an
    // exact-fit plan.
    sim::ShardPlan plan{job.shots, std::min(std::max<std::size_t>(
                                                job.ler.shardShots, 1),
                                            job.shots)};
    std::size_t n = plan.numShards();

    // Tally streams are identified by (decode key, master seed, shard
    // size): only an exactly matching tuple may exchange shard results.
    char suffix[48];
    std::snprintf(suffix, sizeof suffix, "|s%016llx|w%zu",
                  (unsigned long long)job.seed, plan.shardShots);
    std::string tallyKey = job.key + suffix;

    std::vector<std::size_t> shardFailures(n, 0);
    std::vector<decoder::PackedDecodeStats> shardStats(n);
    std::vector<uint8_t> shardDone(n, 0);
    std::vector<uint8_t> shardReused(n, 0);
    std::vector<std::size_t> todo;
    todo.reserve(n);

    std::shared_ptr<LaneGroup> group;
    std::shared_ptr<TallyEntry> tally;

    // Admission: coalescing bookkeeping, lane-group checkout, and the
    // tally-prefix scan happen under one lock so concurrent same-key
    // requests see a consistent picture.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::size_t &active = activeKeys_[job.key];
        out.coalesced = active > 0;
        if (out.coalesced) {
            ++stats_.coalescedRequests;
        }
        ++active;
        group = groupForLocked(job);
        tally = tallyForLocked(tallyKey, job, job.record);
        for (std::size_t shard = 0; shard < n; ++shard) {
            if (tally && shard < tally->shards.size() &&
                tally->shards[shard].shots == plan.shotsOf(shard)) {
                shardFailures[shard] = tally->shards[shard].failures;
                shardStats[shard] = tally->shards[shard].stats;
                shardDone[shard] = 1;
                shardReused[shard] = 1;
            } else {
                todo.push_back(shard);
            }
        }
        pendingShards_ += todo.size();
        out.queueDepth = pendingShards_;
        stats_.peakQueueDepth =
            std::max(stats_.peakQueueDepth, pendingShards_);
    }

    // Per-run completion state (caller stack, own lock): only the
    // contiguous completed prefix drives early stopping, so the final
    // walk below sees every shard up to the cut point.
    std::mutex runMutex;
    std::size_t prefixEnd = 0;
    std::size_t prefixFailures = 0;
    while (prefixEnd < n && shardDone[prefixEnd]) {
        prefixFailures += shardFailures[prefixEnd];
        ++prefixEnd;
    }
    bool targetMet = job.ler.maxFailures != 0 &&
                     prefixFailures >= job.ler.maxFailures;
    bool cancelled =
        job.cancel != nullptr && job.cancel->load(std::memory_order_relaxed);

    std::atomic<bool> stopFlag{false};
    std::size_t executed = 0;
    std::atomic<std::size_t> steals{0};

    // Release the admission bookkeeping. Runs on every exit path, also
    // when a shard decode throws out of pool().run: otherwise the key
    // would stay in flight (every later request "coalesced") and its
    // unfinished shards would inflate the queue depth for good.
    auto release = [&] {
        std::lock_guard<std::mutex> lock(mutex_);
        // Shards never claimed (early stop / cancel) or never finished
        // (a throwing decode) leave the queue.
        pendingShards_ -= std::min(pendingShards_, todo.size() - executed);
        stats_.steals += out.steals;
        stats_.reusedShots += out.reusedShots;
        auto it = activeKeys_.find(job.key);
        if (it != activeKeys_.end() && --it->second == 0) {
            activeKeys_.erase(it);
        }
    };

    if (!todo.empty() && !targetMet && !cancelled) {
        std::size_t cap = job.ler.threads != 0
                              ? sim::resolveThreads(job.ler.threads)
                              : defaultSlotCap();
        std::size_t maxSlots = std::min(cap, todo.size());
        std::vector<sim::FrameBatch> frameScratch(maxSlots);
        std::vector<decoder::FrameShardScratch> decodeScratch(maxSlots);
        const void *streamTag = group.get();

        auto decodeShard = [&](std::size_t t, std::size_t slot) {
            if (job.cancel != nullptr &&
                job.cancel->load(std::memory_order_relaxed)) {
                stopFlag.store(true, std::memory_order_relaxed);
                return;
            }
            std::size_t shard = todo[t];
            bool stolen = tlLastStream != nullptr && tlLastStream != streamTag;
            tlLastStream = streamTag;

            auto dec = checkout(*group, job);
            sim::FrameBatch &frames = frameScratch[slot];
            sim::sampleDemFramesInto(*job.dem, plan.shotsOf(shard),
                                     sim::shardSeed(job.seed, shard),
                                     frames);
            decoder::FrameShardScratch &ws = decodeScratch[slot];
            std::size_t failures = decoder::decodeFrameShard(*dec, frames, ws);
            giveBack(*group, std::move(dec));

            {
                std::lock_guard<std::mutex> lock(runMutex);
                shardFailures[shard] = failures;
                shardStats[shard] = ws.stats;
                shardDone[shard] = 1;
                ++executed;
                while (prefixEnd < n && shardDone[prefixEnd]) {
                    prefixFailures += shardFailures[prefixEnd];
                    ++prefixEnd;
                }
                if (job.ler.maxFailures != 0 &&
                    prefixFailures >= job.ler.maxFailures) {
                    stopFlag.store(true, std::memory_order_relaxed);
                }
            }
            if (stolen) {
                steals.fetch_add(1, std::memory_order_relaxed);
            }
            {
                std::lock_guard<std::mutex> lock(mutex_);
                if (pendingShards_ > 0) {
                    --pendingShards_;
                }
                ++stats_.decodedShards;
                if (tally && job.record) {
                    if (tally->shards.size() <= shard) {
                        tally->shards.resize(shard + 1);
                    }
                    tally->shards[shard] =
                        ShardTally{plan.shotsOf(shard), failures,
                                   ws.stats};
                }
            }
        };

        try {
            pool().run(todo.size(), maxSlots, decodeShard, &stopFlag);
        } catch (...) {
            release();
            throw;
        }
    }
    out.steals = steals.load(std::memory_order_relaxed);

    // Deterministic accounting: shards in index order, truncated at the
    // first gap or at the shard whose cumulative failures reach the
    // early-stop target. Shards a fast worker finished beyond the cut are
    // discarded, so the result is independent of the thread count.
    decoder::LerResult &result = out.result;
    for (std::size_t shard = 0; shard < n; ++shard) {
        if (!shardDone[shard]) {
            break;
        }
        result.shots += plan.shotsOf(shard);
        result.failures += shardFailures[shard];
        result.packed += shardStats[shard];
        if (shardReused[shard]) {
            out.reusedShots += plan.shotsOf(shard);
        }
        if (job.ler.maxFailures != 0 &&
            result.failures >= job.ler.maxFailures) {
            result.earlyStopped = shard + 1 < n;
            break;
        }
    }

    release();
    return out;
}

DecodeServiceStats
DecodeService::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    DecodeServiceStats s = stats_;
    s.tallyKeys = tallies_.size();
    s.laneGroups = groups_.size();
    return s;
}

void
DecodeService::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    groups_.clear();
    groupOrder_.clear();
    tallies_.clear();
    tallyOrder_.clear();
}

} // namespace prophunt::api
