#include "decoder/bp_osd.h"

#include <bit>
#include <algorithm>
#include <cmath>
#include <numeric>

#include "sim/parallel_sampler.h"

namespace prophunt::decoder {

namespace {

/**
 * Message sentinel on inactive edges. Equal to the reference min-sum
 * magnitude initialization, so an inactive edge can never displace an
 * active one from the two-minimum (the two smallest of a multiset already
 * containing two 1e300 entries are unchanged by adding more), and its
 * positive sign leaves the row sign product alone.
 */
constexpr double kInactive = 1e300;

/**
 * Elimination usually terminates within a few dozen columns, so on large
 * regions only the most likely prefix is sorted up front; the tail is
 * sorted lazily if ever reached. The reference-exact mode keeps the full
 * sort so column order matches bit for bit.
 */
constexpr std::size_t kOsdPrefix = 512;

/**
 * Map a posterior to a uint64 whose integer order equals double order.
 * -0.0 is collapsed onto +0.0 first so key equality matches double
 * equality exactly — the column-id tie-break must fire for the same
 * pairs as a (post, col) comparator would. Finite and infinite values
 * order correctly; posteriors are never NaN.
 */
inline uint64_t
osdPostKey(double v)
{
    if (v == 0.0) {
        v = 0.0;
    }
    uint64_t b = std::bit_cast<uint64_t>(v);
    return (b & (uint64_t{1} << 63)) != 0 ? ~b : (b | (uint64_t{1} << 63));
}

/** Set bit i of @p row for every i in @p idx. */
inline void
setRowBits(uint64_t *row, const std::vector<uint32_t> &idx)
{
    for (uint32_t i : idx) {
        row[i >> 6] |= uint64_t{1} << (i & 63);
    }
}

/** OR the rows @p rows of @p m into @p words and list the set bits in
 * ascending order into @p out. */
void
unionOfRows(const DenseBitMat &m, const std::vector<uint32_t> &rows,
            std::vector<uint64_t> &words, std::vector<uint32_t> &out)
{
    std::size_t n = m.rowWords();
    words.assign(n, 0);
    for (uint32_t r : rows) {
        const uint64_t *row = m.row(r);
        for (std::size_t w = 0; w < n; ++w) {
            words[w] |= row[w];
        }
    }
    out.clear();
    for (std::size_t w = 0; w < n; ++w) {
        uint64_t word = words[w];
        while (word != 0) {
            out.push_back((uint32_t)((w << 6) + std::countr_zero(word)));
            word &= word - 1;
        }
    }
}

} // namespace

std::shared_ptr<const BpOsdDecoder::Tanner>
BpOsdDecoder::buildTanner(const sim::Dem &dem)
{
    // A NaN or out-of-range p would become a NaN or silently clamped
    // prior; reject it like the samplers do. p = 0 stays valid and is
    // clamped to a finite prior below.
    sim::validateDemProbabilities(dem, "BpOsdDecoder");
    auto t = std::make_shared<Tanner>();
    std::size_t numDetectors = dem.numDetectors;
    t->colDets.reserve(dem.errors.size());
    t->detCols.resize(numDetectors);
    for (std::size_t e = 0; e < dem.errors.size(); ++e) {
        const auto &mech = dem.errors[e];
        t->colDets.push_back(mech.detectors);
        uint64_t obs = 0;
        for (uint32_t o : mech.observables) {
            obs |= uint64_t{1} << o;
        }
        t->colObs.push_back(obs);
        double p = std::clamp(mech.p, 1e-12, 0.5 - 1e-12);
        t->prior.push_back(std::log((1.0 - p) / p));
        for (uint32_t d : mech.detectors) {
            t->detCols[d].push_back((uint32_t)e);
        }
        if (!mech.detectors.empty()) {
            auto it = t->single.find(mech.detectors);
            if (it == t->single.end() || mech.p > it->second.second) {
                t->single[mech.detectors] = {obs, mech.p};
            }
        }
    }

    // Flatten the Tanner graph once: edge e of column c occupies slots
    // colBegin[c]..colBegin[c+1]; detEdges lists the same edge ids per
    // detector in (column, slot) order — the traversal order every
    // per-shot pass reuses.
    std::size_t ne = t->colDets.size();
    t->colBegin.assign(ne + 1, 0);
    for (std::size_t c = 0; c < ne; ++c) {
        t->colBegin[c + 1] = t->colBegin[c] + (uint32_t)t->colDets[c].size();
    }
    std::size_t edges = t->colBegin[ne];
    t->colDet.reserve(edges);
    for (std::size_t c = 0; c < ne; ++c) {
        for (uint32_t d : t->colDets[c]) {
            t->colDet.push_back(d);
        }
    }
    t->detBegin.assign(numDetectors + 1, 0);
    for (uint32_t d : t->colDet) {
        ++t->detBegin[d + 1];
    }
    for (std::size_t d = 0; d < numDetectors; ++d) {
        t->detBegin[d + 1] += t->detBegin[d];
    }
    t->detEdges.resize(edges);
    {
        std::vector<uint32_t> fill(t->detBegin.begin(),
                                   t->detBegin.end() - 1);
        for (std::size_t e = 0; e < edges; ++e) {
            t->detEdges[fill[t->colDet[e]]++] = (uint32_t)e;
        }
    }
    t->detCol.resize(edges);
    for (std::size_t d = 0; d < numDetectors; ++d) {
        for (uint32_t i = t->detBegin[d]; i < t->detBegin[d + 1]; ++i) {
            // detEdges is ordered by column within a detector, so this
            // reproduces the detCols adjacency order exactly.
            uint32_t e = t->detEdges[i];
            uint32_t lo = 0, hi = (uint32_t)ne;
            while (lo + 1 < hi) {
                uint32_t mid = (lo + hi) / 2;
                if (t->colBegin[mid] <= e) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            t->detCol[i] = lo;
        }
    }
    t->allCols.resize(ne);
    std::iota(t->allCols.begin(), t->allCols.end(), 0);
    for (std::size_t d = 0; d < numDetectors; ++d) {
        if (t->detBegin[d + 1] != t->detBegin[d]) {
            t->allDets.push_back((uint32_t)d);
        }
    }
    return t;
}

BpOsdDecoder::BpOsdDecoder(const sim::Dem &dem, BpOsdOptions opts)
    : opts_(opts), numDetectors_(dem.numDetectors), tanner_(buildTanner(dem))
{
    std::size_t ne = tanner_->colDets.size();
    std::size_t edges = tanner_->colBegin[ne];
    msgC2d_.assign(edges, kInactive);
    msgD2c_.resize(edges);
    posterior_.assign(ne, 0.0);
    hard_.assign(ne, 0);
    acc_.assign(numDetectors_, 0);
    syn_.assign(numDetectors_, 0);
    errIn_.assign(ne, 0);
    detIn_.assign(numDetectors_, 0);
    detLocal_.assign(numDetectors_, -1);
    std::size_t maxDeg = 0;
    for (std::size_t d = 0; d < numDetectors_; ++d) {
        maxDeg = std::max<std::size_t>(maxDeg,
                                       tanner_->detBegin[d + 1] - tanner_->detBegin[d]);
    }
    edgeNeg_.assign(maxDeg, 0);
    satFromDet_.assign(numDetectors_, -1);
    // Reach bitmaps pay one BFS per distinct seed detector and then
    // replace every later BFS with an OR; cap the two matrices at a size
    // where that trade is obviously right (32 MB covers every benchmark
    // code by orders of magnitude). The matrices themselves are
    // allocated lazily on the first growRegion — engine caches hold
    // prototype decoders that are only ever clone()d, and per-worker
    // clones should not each commit megabytes before decoding a single
    // shot.
    std::size_t reachWords = (ne + 63) / 64 + (numDetectors_ + 63) / 64;
    reachEnabled_ = ne > 0 && numDetectors_ > 0 &&
                    numDetectors_ * reachWords * 8 <= 32u << 20;
}

uint64_t
BpOsdDecoder::runRegion(const std::vector<uint32_t> &cols,
                        const std::vector<uint32_t> &flipped, bool &ok)
{
    // One pass over the region's edges: install prior messages and build
    // the local detector numbering in the reference discovery order
    // (consumed by OSD); regionDets_ doubles as the active-detector
    // worklist.
    regionDets_.clear();
    for (uint32_t c : cols) {
        double prior = tanner_->prior[c];
        posterior_[c] = 0.0;
        for (uint32_t e = tanner_->colBegin[c]; e < tanner_->colBegin[c + 1]; ++e) {
            msgC2d_[e] = prior;
            uint32_t d = tanner_->colDet[e];
            if (detLocal_[d] < 0) {
                detLocal_[d] = (int32_t)regionDets_.size();
                regionDets_.push_back(d);
            }
        }
    }
    bool feasible = true;
    for (uint32_t d : flipped) {
        if (detLocal_[d] < 0) {
            // A flipped detector with no adjacent error in the region:
            // unsolvable here.
            feasible = false;
            break;
        }
    }
    if (!feasible) {
        for (uint32_t d : regionDets_) {
            detLocal_[d] = -1;
        }
        for (uint32_t c : cols) {
            for (uint32_t e = tanner_->colBegin[c]; e < tanner_->colBegin[c + 1]; ++e) {
                msgC2d_[e] = kInactive;
            }
        }
        ok = false;
        return 0;
    }

    for (uint32_t d : flipped) {
        syn_[d] = 1;
    }
    // Hamming distance between the hard-decision parity and the syndrome;
    // hard_/acc_ start all-zero between shots.
    std::ptrdiff_t mismatches = (std::ptrdiff_t)flipped.size();

    double scale = opts_.scale;
    bool converged = false;
    std::ptrdiff_t bestMismatches = mismatches;
    std::size_t sinceBest = 0;
    for (std::size_t it = 0; it < opts_.maxIterations && !converged; ++it) {
        // Detector -> column (min-sum with normalization). Inactive edges
        // sit at the kInactive sentinel and cannot perturb the result:
        // their magnitude matches the two-minimum initialization and their
        // sign is positive. Messages are staged into a stack buffer so the
        // write-back pass needs no second gather, and the two-minimum
        // tracking compiles to conditional moves instead of branches.
        for (uint32_t d : regionDets_) {
            uint32_t b = tanner_->detBegin[d], en = tanner_->detBegin[d + 1];
            uint32_t deg = en - b;
            bool negProduct = syn_[d] != 0;
            double min1 = 1e300, min2 = 1e300;
            uint32_t argpos = UINT32_MAX;
            for (uint32_t i = 0; i < deg; ++i) {
                double v = msgC2d_[tanner_->detEdges[b + i]];
                bool neg = v < 0.0;
                negProduct = negProduct != neg;
                edgeNeg_[i] = neg;
                double a = std::fabs(v);
                if (a < min1) {
                    min2 = min1;
                    min1 = a;
                    argpos = i;
                } else if (a < min2) {
                    min2 = a;
                }
            }
            double m1 = scale * min1, m2 = scale * min2;
            for (uint32_t i = 0; i < deg; ++i) {
                double mag = (i == argpos) ? m2 : m1;
                msgD2c_[tanner_->detEdges[b + i]] =
                    (negProduct != (bool)edgeNeg_[i]) ? -mag : mag;
            }
        }
        // Column -> detector, posterior, hard decision. The syndrome check
        // is maintained incrementally: a hard-decision flip toggles the
        // parity of the column's detectors.
        for (uint32_t c : cols) {
            uint32_t b = tanner_->colBegin[c], en = tanner_->colBegin[c + 1];
            double total = tanner_->prior[c];
            for (uint32_t e = b; e < en; ++e) {
                total += msgD2c_[e];
            }
            posterior_[c] = total;
            uint8_t h = total < 0;
            if (h != hard_[c]) {
                hard_[c] = h;
                for (uint32_t e = b; e < en; ++e) {
                    uint32_t d = tanner_->colDet[e];
                    acc_[d] ^= 1;
                    mismatches += (acc_[d] != syn_[d]) ? 1 : -1;
                }
            }
            for (uint32_t e = b; e < en; ++e) {
                msgC2d_[e] = total - msgD2c_[e];
            }
        }
        converged = mismatches == 0;
        if (!converged && opts_.stagnationWindow != 0) {
            if (mismatches < bestMismatches) {
                bestMismatches = mismatches;
                sinceBest = 0;
            } else if (++sinceBest >= opts_.stagnationWindow) {
                break; // BP stagnated; hand the posteriors to OSD.
            }
        }
    }

    uint64_t result = 0;
    bool solved = false;
    if (converged) {
        for (uint32_t c : cols) {
            if (hard_[c]) {
                result ^= tanner_->colObs[c];
            }
        }
        solved = true;
    } else {
        osdPost_.resize(cols.size());
        for (std::size_t i = 0; i < cols.size(); ++i) {
            osdPost_[i] = posterior_[cols[i]];
        }
        solved = osdSolve(cols, osdPost_.data(), flipped, nullptr, false);
        if (solved) {
            for (std::size_t c = 0; c < cols.size(); ++c) {
                if (solUses_[c]) {
                    result ^= tanner_->colObs[cols[c]];
                }
            }
        }
    }

    // Restore the between-shot invariants: sentinel messages, zero flags,
    // -1 local indices.
    for (uint32_t c : cols) {
        hard_[c] = 0;
        for (uint32_t e = tanner_->colBegin[c]; e < tanner_->colBegin[c + 1]; ++e) {
            msgC2d_[e] = kInactive;
        }
    }
    for (uint32_t d : regionDets_) {
        acc_[d] = 0;
        detLocal_[d] = -1;
    }
    for (uint32_t d : flipped) {
        syn_[d] = 0;
    }
    ok = solved;
    return solved ? result : 0;
}

bool
BpOsdDecoder::osdSolve(const std::vector<uint32_t> &cols, const double *post,
                       const std::vector<uint32_t> &flipped,
                       OsdColCache *cache, bool global_rows)
{
    // OSD-0: process columns in decreasing error likelihood (ascending
    // posterior LLR) and solve H x = s by incremental elimination on
    // column vectors over the detectors. Ties are broken by global column
    // id: the pivot order must be identical across sort strategies (full
    // vs lazy prefix) and region discovery orders even when posteriors
    // collide exactly (duplicated priors make that common, not
    // hypothetical). The ranking runs on flat OsdKey records — the
    // indirect double comparator, not the elimination, used to dominate
    // the post-pass on large regions.
    std::size_t ne = cols.size();
    osdKeys_.resize(ne);
    for (std::size_t i = 0; i < ne; ++i) {
        osdKeys_[i] = OsdKey{osdPostKey(post[i]), cols[i], (uint32_t)i};
    }
    std::size_t sortedPrefix = ne;
    if (opts_.stagnationWindow == 0 || ne <= kOsdPrefix) {
        std::sort(osdKeys_.begin(), osdKeys_.end());
    } else {
        std::nth_element(osdKeys_.begin(), osdKeys_.begin() + kOsdPrefix,
                         osdKeys_.end());
        std::sort(osdKeys_.begin(), osdKeys_.begin() + kOsdPrefix);
        sortedPrefix = kOsdPrefix;
    }

    // Row numbering: the region-local detLocal_ map when the caller has
    // one anyway (runRegion, osdPostPass), the global detector ids when it
    // does not (the batched flush) — the solution is row-numbering
    // invariant, and global rows make the per-job detLocal_ rebuild plus
    // one indirection per gathered bit disappear.
    std::size_t nd = global_rows ? numDetectors_ : regionDets_.size();
    std::size_t words = (nd + 63) / 64;
    elim_.begin(nd);
    for (uint32_t d : flipped) {
        elim_.setSyndromeBit(global_rows ? d : (std::size_t)detLocal_[d]);
    }
    solUses_.assign(ne, 0);
    osdPushPos_.clear();
    bool solved = false;
    for (std::size_t oi = 0; oi < ne; ++oi) {
        if (oi == sortedPrefix) {
            // The elimination outran the sorted prefix: finish the sort.
            std::sort(osdKeys_.begin() + sortedPrefix, osdKeys_.end());
        }
        uint32_t oc = osdKeys_[oi].pos;
        uint32_t gc = cols[oc];
        const uint64_t *colBits;
        if (cache != nullptr) {
            // Shared lazily built packed column: one gather per column
            // per flush group, not per shot.
            uint64_t *bits = cache->bits.row(oc);
            if (!cache->built[oc]) {
                cache->built[oc] = 1;
                for (uint32_t e = tanner_->colBegin[gc]; e < tanner_->colBegin[gc + 1];
                     ++e) {
                    uint32_t ld = global_rows
                                      ? tanner_->colDet[e]
                                      : (uint32_t)detLocal_[tanner_->colDet[e]];
                    bits[ld >> 6] |= uint64_t{1} << (ld & 63);
                }
            }
            colBits = bits;
        } else {
            colWords_.assign(words, 0);
            for (uint32_t e = tanner_->colBegin[gc]; e < tanner_->colBegin[gc + 1]; ++e) {
                uint32_t ld = global_rows
                                  ? tanner_->colDet[e]
                                  : (uint32_t)detLocal_[tanner_->colDet[e]];
                colWords_[ld >> 6] |= uint64_t{1} << (ld & 63);
            }
            colBits = colWords_.data();
        }
        osdPushPos_.push_back(oc);
        if (elim_.push(colBits)) {
            solved = true;
            break;
        }
    }
    if (solved) {
        elim_.solution(osdSolIdx_);
        for (uint32_t idx : osdSolIdx_) {
            solUses_[osdPushPos_[idx]] = 1;
        }
    }
    return solved;
}

void
BpOsdDecoder::growRegion(const std::vector<uint32_t> &flipped)
{
    // Region growth is monotone in its seed set: the region of a
    // syndrome is the union of the regions grown from each flipped
    // detector alone. The consumers are all column-order invariant (see
    // the header comment), so the union can be computed on the lazily
    // built per-detector reach bitmaps — one saturating seed proves the
    // whole region covers every column, and otherwise errs_ is the OR
    // of the seed rows extracted in canonical ascending order; both
    // match the BFS discovery-order region bit for bit. The detector set
    // (touchedDets_) is the union of the seeds' detector sets the same
    // way.
    if (reachEnabled_ && !flipped.empty()) {
        std::size_t ne = tanner_->colDets.size();
        if (reachCols_.rows() != numDetectors_) {
            // First use (a populated clone arrives already sized).
            reachCols_.reset(numDetectors_, ne);
            reachDets_.reset(numDetectors_, numDetectors_);
            reachBuilt_.assign(numDetectors_, 0);
        }
        bool saturated = false;
        for (uint32_t d : flipped) {
            if (!reachBuilt_[d]) {
                seedScratch_.assign(1, d);
                growRegionBfs(seedScratch_);
                setRowBits(reachCols_.row(d), errs_);
                setRowBits(reachDets_.row(d), touchedDets_);
                reachBuilt_[d] = 1;
                satFromDet_[d] = errs_.size() == ne ? 1 : 0;
            }
            if (satFromDet_[d] == 1) {
                saturated = true;
                break;
            }
        }
        if (saturated) {
            errs_ = tanner_->allCols;
            touchedDets_ = tanner_->allDets;
            return;
        }
        unionOfRows(reachCols_, flipped, regionWords_, errs_);
        unionOfRows(reachDets_, flipped, regionWords_, touchedDets_);
        return;
    }
    // Bitmaps disabled: probe the first seed's memoized saturation flag,
    // then fall back to the BFS.
    if (!flipped.empty() && satFromDet_[flipped[0]] != 0) {
        if (satFromDet_[flipped[0]] < 0) {
            seedScratch_.assign(1, flipped[0]);
            growRegionBfs(seedScratch_);
            satFromDet_[flipped[0]] =
                errs_.size() == tanner_->colDets.size() ? 1 : 0;
        }
        if (satFromDet_[flipped[0]] == 1) {
            errs_ = tanner_->allCols;
            touchedDets_ = tanner_->allDets;
            return;
        }
    }
    growRegionBfs(flipped);
}

void
BpOsdDecoder::growRegionBfs(const std::vector<uint32_t> &seeds)
{
    // Localized region: errors within regionRadius expansion layers of the
    // flipped detectors.
    errs_.clear();
    touchedDets_.clear();
    frontier_.assign(seeds.begin(), seeds.end());
    for (uint32_t d : frontier_) {
        detIn_[d] = 1;
        touchedDets_.push_back(d);
    }
    // Dense syndromes saturate the region early (every column joins
    // within a layer or two on the benchmark codes); once all columns are
    // in, later layers can only re-scan marks, so stop growing. The
    // column list and its order are unchanged by the early exit.
    std::size_t ne = tanner_->colDets.size();
    for (std::size_t layer = 0;
         layer < opts_.regionRadius && errs_.size() < ne; ++layer) {
        newDets_.clear();
        for (uint32_t d : frontier_) {
            if (errs_.size() == ne) {
                break;
            }
            for (uint32_t i = tanner_->detBegin[d]; i < tanner_->detBegin[d + 1]; ++i) {
                uint32_t e = tanner_->detCol[i];
                if (errIn_[e]) {
                    continue;
                }
                errIn_[e] = 1;
                errs_.push_back(e);
                for (uint32_t j = tanner_->colBegin[e]; j < tanner_->colBegin[e + 1];
                     ++j) {
                    uint32_t dd = tanner_->colDet[j];
                    if (!detIn_[dd]) {
                        detIn_[dd] = 1;
                        touchedDets_.push_back(dd);
                        newDets_.push_back(dd);
                    }
                }
            }
        }
        frontier_.swap(newDets_);
        if (frontier_.empty()) {
            break;
        }
    }
    for (uint32_t e : errs_) {
        errIn_[e] = 0;
    }
    for (uint32_t d : touchedDets_) {
        detIn_[d] = 0;
    }
}

uint64_t
BpOsdDecoder::decode(const std::vector<uint32_t> &flipped_detectors)
{
    if (flipped_detectors.empty()) {
        return 0;
    }
    // Weight-1 fast path: a syndrome exactly matching one mechanism is
    // overwhelmingly most likely explained by it (p >> p^2).
    auto hit = tanner_->single.find(flipped_detectors);
    if (hit != tanner_->single.end()) {
        return hit->second.first;
    }
    growRegion(flipped_detectors);
    bool ok = false;
    uint64_t result = runRegion(errs_, flipped_detectors, ok);
    if (!ok) {
        // Fall back to the full graph.
        result = runRegion(tanner_->allCols, flipped_detectors, ok);
    }
    return result;
}

bool
BpOsdDecoder::osdPostPass(const std::vector<uint32_t> &cols,
                          const std::vector<double> &post,
                          const std::vector<uint32_t> &flipped,
                          std::vector<uint8_t> &uses)
{
    // Local detector numbering in region-discovery order, exactly as
    // runRegion builds it before handing over to osdSolve.
    regionDets_.clear();
    for (uint32_t c : cols) {
        for (uint32_t e = tanner_->colBegin[c]; e < tanner_->colBegin[c + 1]; ++e) {
            uint32_t d = tanner_->colDet[e];
            if (detLocal_[d] < 0) {
                detLocal_[d] = (int32_t)regionDets_.size();
                regionDets_.push_back(d);
            }
        }
    }
    bool feasible = true;
    for (uint32_t d : flipped) {
        if (detLocal_[d] < 0) {
            feasible = false;
            break;
        }
    }
    bool solved = false;
    if (feasible) {
        solved = osdSolve(cols, post.data(), flipped, nullptr, false);
    }
    uses.assign(cols.size(), 0);
    if (solved) {
        uses = solUses_;
    }
    for (uint32_t d : regionDets_) {
        detLocal_[d] = -1;
    }
    return solved;
}

} // namespace prophunt::decoder
