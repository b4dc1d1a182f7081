/**
 * @file
 * Belief propagation + ordered-statistics decoding for LDPC DEMs.
 *
 * Min-sum BP runs on a localized sub-Tanner-graph around the flipped
 * detectors (the localized-statistics idea of BP-LSD, DESIGN.md
 * substitution 3); if the hard decision does not reproduce the syndrome,
 * OSD-0 re-solves it by Gaussian elimination over the columns ranked by BP
 * reliability. Falls back to the full graph when the local region cannot
 * explain the syndrome.
 */
#ifndef PROPHUNT_DECODER_BP_OSD_H
#define PROPHUNT_DECODER_BP_OSD_H

#include <array>
#include <cstddef>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "decoder/decoder.h"
#include "decoder/gf2_dense.h"
#include "sim/dem.h"

namespace prophunt::decoder {

/** Options for the BP+OSD decoder. */
struct BpOsdOptions
{
    std::size_t maxIterations = 30;
    /** Min-sum normalization factor. */
    double scale = 0.8;
    /** Expansion radius of the localized region (error layers). */
    std::size_t regionRadius = 3;
    /**
     * Stop BP once this many consecutive iterations pass without the
     * syndrome-mismatch count reaching a new minimum (0 = always run to
     * maxIterations, reproducing the seed reference decoder bit for bit).
     *
     * Non-converging syndromes dominate LDPC decode time: they burn the
     * whole iteration budget polishing posteriors that OSD then only uses
     * for column ordering. Cutting them off once BP stagnates leaves the
     * logical error rate statistically unchanged or slightly better
     * (over-iterated min-sum misleads OSD; see the batch-decode tests)
     * while removing most BP work on the hard shots.
     */
    std::size_t stagnationWindow = 2;
    /**
     * Shots decodePacked runs in parallel SIMD lanes: one AVX-512 vector
     * (two AVX2 vectors) of doubles per edge. Every lane reproduces
     * per-shot decode() bit for bit, so the width affects throughput
     * only, and the kernels are written for this one width.
     */
    static constexpr std::size_t kLaneWidth = 8;
};

/**
 * BP+OSD decoder over a detector error model.
 *
 * The hot path runs on a Tanner structure flattened once at construction
 * (global CSR edge lists, message arrays sized to the full graph); each
 * shot only touches syndrome-dependent state — the localized region's
 * columns, their edges, and the message values — and restores it on exit.
 * Inactive edges carry a +1e300 sentinel message, which reproduces the
 * seed implementation's min-sum initialization exactly.
 *
 * There is one production path: decodePacked, the lane engine with the
 * batched word-packed OSD post-pass (bp_osd_lanes.cc). Per-shot decode()
 * serves the Decoder interface and the lane engine's full-graph
 * fallback, and equals decodePacked bit for bit. With
 * stagnationWindow = 0 both reproduce the seed-faithful reference
 * decoder that the tests keep (tests/support/bp_osd_reference.h)
 * prediction for prediction.
 */
class BpOsdDecoder : public Decoder
{
  public:
    explicit BpOsdDecoder(const sim::Dem &dem, BpOsdOptions opts = {});

    uint64_t decode(const std::vector<uint32_t> &flipped_detectors) override;

    /** Native frame-layout path: per-shot syndromes are extracted from
     * the detector-major words without a transpose and decoded by the
     * lane engine. */
    void decodePacked(const sim::FrameView &frames, uint64_t *obs_out,
                      PackedDecodeStats *stats = nullptr) override;

    /**
     * Test seam: run the OSD-0 post-pass alone on an explicit region.
     *
     * @p cols is the region's column set, @p post the per-position
     * posterior ranking (post[i] ranks cols[i]; size must match), and
     * @p flipped the sorted flipped detectors. Fills @p uses with one 0/1
     * flag per cols position and returns whether the syndrome was
     * explained; a flipped detector with no adjacent column in @p cols
     * makes the region infeasible (false, all-zero uses), matching
     * runRegion's pre-check. tests/osd_elimination_test.cc fuzzes it
     * against the reference elimination.
     */
    bool osdPostPass(const std::vector<uint32_t> &cols,
                     const std::vector<double> &post,
                     const std::vector<uint32_t> &flipped,
                     std::vector<uint8_t> &uses);

    /**
     * Clones share the immutable per-DEM Tanner structure (one
     * shared_ptr<const Tanner> behind every copy), so cloning a
     * prototype for another worker or lane group copies only the
     * mutable per-shot scratch, not the graph.
     */
    std::unique_ptr<Decoder>
    clone() const override
    {
        return std::make_unique<BpOsdDecoder>(*this);
    }

    /**
     * Immutable per-DEM decode structure: the column-compressed DEM plus
     * the flattened global Tanner CSR, built once per DEM by
     * buildTanner() and referenced read-only by every per-shot pass.
     * Edge e of column c spans colBegin[c]..colBegin[c+1] in (column,
     * slot) order; detEdges groups the same edge ids by detector.
     */
    struct Tanner
    {
        /** Exact lookup: detector signature -> (obs mask, p) of the
         * likeliest single mechanism. Fixes BP's tendency to explain a
         * weight-1 syndrome with a heavier degenerate solution. */
        std::map<std::vector<uint32_t>, std::pair<uint64_t, double>> single;
        // Column-compressed DEM.
        std::vector<std::vector<uint32_t>> colDets;
        std::vector<uint64_t> colObs;
        std::vector<double> prior; ///< log((1-p)/p) per column.
        std::vector<std::vector<uint32_t>> detCols;
        // Global Tanner CSR.
        std::vector<uint32_t> colBegin;
        std::vector<uint32_t> colDet;   ///< Edge -> detector.
        std::vector<uint32_t> detBegin;
        std::vector<uint32_t> detEdges; ///< Detector -> edge ids, (c, k) order.
        std::vector<uint32_t> detCol;   ///< Column of detEdges[i] (growth,
                                        ///< lane membership).
        std::vector<uint32_t> allCols;  ///< 0..numErrors-1 (full-graph pass).
        std::vector<uint32_t> allDets;  ///< Detectors with an incident column.
    };

    /** Build the shared read-only Tanner structure of @p dem. */
    static std::shared_ptr<const Tanner> buildTanner(const sim::Dem &dem);

  private:
    /** Min-sum BP (+ OSD-0 fallback) over @p cols on the global edge
     * arrays; restores all scratch state before returning. */
    uint64_t runRegion(const std::vector<uint32_t> &cols,
                       const std::vector<uint32_t> &flipped, bool &ok);

    /** Grow the localized region (regionRadius layers) around @p flipped
     * into errs_, and its detector set into touchedDets_ — exactly the
     * detectors adjacent to its columns when regionRadius >= 1 and every
     * seed has an incident column, as on every lane-engine install; the
     * errIn_/detIn_ marks are restored before returning.
     *
     * Saturation fast path: region growth is monotone in its seed set,
     * so if the region grown from @p flipped's first detector alone
     * covers every column, the full region does too. That predicate is
     * memoized per detector (satFromDet_), and a hit skips the BFS
     * entirely, filling errs_ with the canonical identity column order
     * instead of the discovery order. Every consumer is column-order
     * invariant — BP updates are per-column/per-detector independent,
     * the OSD solution is the unique expression of the syndrome over an
     * order-independent pivot set (posterior ties break by global column
     * id), and observable masks XOR over sets — so the fast path is
     * bit-identical to the BFS, it just stops paying ~an edge walk per
     * shot on DEMs whose dense Tanner graphs saturate every region (the
     * rqt benchmark codes).
     */
    void growRegion(const std::vector<uint32_t> &flipped);

    /** The BFS behind growRegion (discovery order, early saturation
     * exit). */
    void growRegionBfs(const std::vector<uint32_t> &seeds);

    /** Shared per-group packed-column cache of the batched OSD queue:
     * row i = packed column cols[i] over the group's detector numbering,
     * built lazily and reused by every shot in the group. */
    struct OsdColCache
    {
        DenseBitMat bits;
        std::vector<uint8_t> built;
    };

    /**
     * OSD-0 over @p cols: solve H x = s by incremental gf2_dense
     * elimination with columns ranked by ascending posterior (ties broken
     * by global column id, so every region discovery order picks the same
     * pivot sequence); post[i] is the posterior of cols[i]. On large
     * regions only a kOsdPrefix prefix of the ranking is sorted up front
     * and the tail is sorted lazily if the elimination reaches it. Fills
     * solUses_ per position in @p cols and returns whether the syndrome
     * became explainable.
     *
     * Rows are numbered by detLocal_ (which must then hold the region's
     * local detector numbering) or, with @p global_rows, by global
     * detector id — the flush path uses that to skip the per-job
     * detLocal_ rebuild; results are row-numbering invariant. @p cache,
     * when non-null, shares the packed columns across a flush group.
     */
    bool osdSolve(const std::vector<uint32_t> &cols, const double *post,
                  const std::vector<uint32_t> &flipped, OsdColCache *cache,
                  bool global_rows);

    /**
     * One posterior-ranking record: @p key is the posterior mapped to a
     * uint64 whose integer order equals double order (with -0.0
     * collapsed onto +0.0), @p col the global column id tie-break, @p
     * pos the position in the caller's cols. Selecting/sorting flat
     * 16-byte records replaces the indirect double/column comparator —
     * the ordering, not the elimination, dominated the OSD post-pass.
     */
    struct OsdKey
    {
        uint64_t key;
        uint32_t col;
        uint32_t pos;

        bool
        operator<(const OsdKey &o) const
        {
            return key != o.key ? key < o.key : col < o.col;
        }
    };

    // --- lane engine (decodePacked; see bp_osd_lanes.cc) ---

    /** Size the lane-interleaved state (no-op once sized). */
    void laneEnsure();
    /** Park shot @p shot in lane @p l; growRegion has just left its
     * region in errs_ and the region's detectors in touchedDets_. */
    void laneInstall(std::size_t l, std::size_t shot,
                     const std::vector<uint32_t> &flipped);
    /** Finish lane @p l and restore the lane's slice of every
     * between-shot invariant. Converged lanes write their observable
     * mask into @p obs_out immediately; unconverged lanes compact into
     * the batched OSD work queue (osdFlush writes their masks later). */
    void laneRetire(std::size_t l, bool converged, uint64_t *obs_out);
    /** One BP iteration for every live lane (detector and column pass);
     * simd_level picks the kernel tier (0 generic, 1 AVX2, 2 AVX-512 —
     * all bit-identical). */
    void laneIterate(int simd_level);

    // --- batched OSD work queue (decodePacked post-pass) ---

    /** One retired-but-unconverged shot awaiting the OSD post-pass. */
    struct OsdJob
    {
        std::size_t shot = 0;
        /** FNV-1a of the cols sequence (grouping key; saturated jobs
         * group by the flag alone). */
        uint64_t sig = 0;
        /** Region == every column: cols is left empty and allCols_ is
         * the canonical column order, so all saturated jobs share one
         * group regardless of their discovery order. */
        bool saturated = false;
        std::vector<uint32_t> cols;
        std::vector<uint32_t> flipped;
        std::vector<double> post; ///< Posterior per (canonical) position.
    };

    /** Capture lane @p l's region, flipped set, and posterior slice into
     * the OSD queue (storage reused across flushes). */
    void osdEnqueue(std::size_t l);
    /** Solve every queued job, grouped by region shape so the packed
     * column build is shared, and write the observable masks. */
    void osdFlush(uint64_t *obs_out, PackedDecodeStats *stats);

    BpOsdOptions opts_;
    std::size_t numDetectors_;
    /** Shared immutable DEM structure; every clone points at the same
     * Tanner, only the scratch below is per-instance. */
    std::shared_ptr<const Tanner> tanner_;

    // Per-shot scratch. Invariants between shots: msgC2d_ holds the
    // inactive-edge sentinel everywhere, flag arrays are zero, and
    // detLocal_ is -1; runRegion/decode restore them on every path.
    std::vector<double> msgC2d_;
    std::vector<double> msgD2c_;
    std::vector<double> posterior_;   ///< Per column (active entries valid).
    std::vector<uint8_t> hard_;       ///< Per column.
    std::vector<uint8_t> acc_;        ///< Parity of hard columns per detector.
    std::vector<uint8_t> syn_;        ///< Syndrome bit per detector.
    std::vector<uint8_t> errIn_;      ///< Region-growth column marks.
    std::vector<uint8_t> detIn_;      ///< Region-growth detector marks.
    std::vector<int32_t> detLocal_;   ///< Detector -> local index (OSD).
    std::vector<uint32_t> regionDets_;
    std::vector<uint32_t> touchedDets_; ///< growRegion's region detectors.
    std::vector<uint8_t> edgeNeg_;    ///< Per-slot message signs (one row).
    std::vector<uint32_t> errs_;
    std::vector<uint32_t> frontier_;
    std::vector<uint32_t> newDets_;
    std::vector<uint32_t> flippedScratch_;
    /** Memo: does the region grown from this detector alone saturate
     * (cover every column)? -1 unknown, else 0/1. */
    std::vector<int8_t> satFromDet_;
    std::vector<uint32_t> seedScratch_; ///< Single-seed BFS probe.
    /**
     * Per-detector region reachability: row d = bitmap of the columns
     * within regionRadius layers of detector d, built lazily by one
     * single-seed BFS per detector. Region growth is monotone, so the
     * region of a syndrome is the OR of its detectors' rows — one
     * word-wide sweep plus a bit extraction per shot instead of an edge
     * walk, with errs_ emerging in canonical ascending order (which
     * also makes same-set regions group in the batched OSD queue).
     * reachDets_ row d is the same seed BFS's detector set, so the
     * region's detectors (touchedDets_) are an OR away as well.
     * Enabled unless the matrices would be unreasonably large
     * (reachEnabled_); the BFS path remains as the fallback and the
     * row builder.
     */
    DenseBitMat reachCols_;
    DenseBitMat reachDets_;
    std::vector<uint8_t> reachBuilt_;
    bool reachEnabled_ = false;
    std::vector<uint64_t> regionWords_; ///< OR-of-rows scratch.
    // OSD scratch (osdSolve).
    Gf2Eliminator elim_;
    std::vector<uint64_t> colWords_;   ///< Uncached packed column.
    std::vector<uint8_t> solUses_;
    std::vector<double> osdPost_; ///< Posteriors gathered per cols position.
    std::vector<uint32_t> osdPushPos_; ///< Push index -> cols position.
    std::vector<uint32_t> osdSolIdx_;  ///< Solution push indices.
    std::vector<OsdKey> osdKeys_;      ///< Posterior-ranking records.
    // Batched OSD queue (lane engine). Entries are reused: osdQueueSize_
    // counts the live prefix, the vectors behind it keep their capacity.
    std::vector<OsdJob> osdQueue_;
    std::size_t osdQueueSize_ = 0;
    std::vector<uint32_t> osdOrderIdx_;    ///< Flush grouping scratch.
    std::vector<uint32_t> osdFallbackIdx_; ///< Full-graph fallback jobs.
    OsdColCache osdCache_;

    // Lane engine state (sized by laneEnsure on the first packed decode).
    // Message/posterior arrays are lane-interleaved: element (i, lane)
    // lives at i*kLaneWidth + lane. The region membership that the scalar
    // scratch encodes with sentinel *values* is carried by the
    // per-column lane masks instead: an edge is in lane l's region
    // exactly when bit l of its column's colLaneMask_ entry is set
    // (Tanner::detCol names that column per detector slot). laneMsg_ may
    // hold garbage in inactive lanes; the detector pass substitutes the
    // sentinel (or, on a lane's first iteration, the column prior) while
    // loading. Installing a shot therefore sets one bit per region column
    // and one per region detector (growRegion's touchedDets_), and no
    // per-edge state exists to install or retire.
    /** In-place message array: column->detector values going into a
     * detector pass, detector->column values going into a column pass
     * (an edge belongs to exactly one detector and one column, so each
     * pass may overwrite its input slot). */
    std::vector<double> laneMsg_;
    std::vector<double> lanePost_;
    std::vector<double> laneStage_;      ///< Det-pass staging, maxDeg x W.
    std::vector<uint32_t> laneHardBits_; ///< Per column, bit l = lane l.
    std::vector<uint8_t> laneAcc_;       ///< Hard-decision parity per (det, lane).
    std::vector<uint8_t> laneSynB_;      ///< Syndrome bit per (det, lane).
    std::vector<double> laneSynSign_;    ///< -0.0 where the syndrome is set.
    std::vector<uint32_t> colLaneMask_;  ///< Per column, lanes it is active in.
    std::vector<uint32_t> detLaneMask_;  ///< Per detector, likewise.
    template <typename T>
    using PerLane = std::array<T, BpOsdOptions::kLaneWidth>;
    PerLane<std::vector<uint32_t>> laneCols_; ///< Region per lane.
    PerLane<std::vector<uint32_t>> laneFlipped_;
    PerLane<std::size_t> laneShot_{};
    PerLane<uint8_t> laneLive_{};
    PerLane<std::ptrdiff_t> laneMismatch_{};
    PerLane<std::ptrdiff_t> laneBest_{};
    PerLane<std::size_t> laneSinceBest_{};
    PerLane<std::size_t> laneIter_{};
    // Packed-syndrome extraction scratch (per-shot flipped lists).
    std::vector<uint32_t> packedFlipped_;
    std::vector<uint32_t> packedOffsets_;
    std::vector<uint32_t> packedFill_;
    std::vector<uint32_t> laneQueue_;
};

} // namespace prophunt::decoder

#endif // PROPHUNT_DECODER_BP_OSD_H
