/**
 * @file
 * Lane-batched SIMD BP engine behind BpOsdDecoder::decodePacked.
 *
 * The engine runs min-sum BP for BpOsdOptions::kLaneWidth (8) shots in
 * parallel "lanes" over the global Tanner CSR built once per DEM. Messages
 * live in ONE lane-interleaved in-place array (8 doubles per edge): a
 * detector pass reads column->detector values and overwrites each slot
 * with its detector->column reply (an edge belongs to exactly one
 * detector and one column, so neither pass reads a slot another detector
 * or column wrote this iteration). The detector -> column two-minimum
 * reduction processes all 8 lanes in one AVX-512 vector (two AVX2 vectors
 * on hardware without it, walked in a single pass over the detector's
 * edges so the independent min chains hide the blend latency) from
 * contiguous loads — no gathers — and each message cache line is touched
 * once per pass. Non-x86 builds use a bit-identical scalar-lane fallback;
 * all three kernel tiers are chosen from the CPU and produce the same
 * bits (PROPHUNT_NO_AVX512 / PROPHUNT_NO_AVX2 step down explicitly).
 *
 * Localized-region semantics are preserved per lane without per-shot
 * message initialization or any per-edge state: an edge is in lane l's
 * region exactly when its column is, so the detector pass reads bit l of
 * colLaneMask_[detCol[i]] for detector slot i and substitutes the scalar
 * path's +1e300 inactive-edge sentinel — or the column prior on a lane's
 * first iteration, when no column pass has written real messages yet —
 * while loading. The message array may therefore hold garbage in
 * inactive lanes: installing a shot sets one bit per region column and
 * one per region detector (the detector set comes out of region growth
 * alongside the columns, so no edge is walked), and retiring clears the
 * lane's bit from the per-column/per-detector masks with vectorizable
 * sweeps. Both passes find their work by scanning those masks in index
 * order, which keeps the message walks sequential. Lanes retire
 * individually (convergence, stagnation, or the iteration budget) and
 * are refilled from the shot queue, so iteration skew between easy and
 * hard syndromes no longer serializes the batch.
 *
 * Retired-but-unconverged lanes do not solve OSD inline: they compact
 * into a batched work queue (shot id, region, syndrome, posterior
 * snapshot) that is flushed in groups of identical region shapes, so
 * the packed-column build of the GF(2) elimination is shared across the
 * shots of a group and the post-pass runs out of hot scratch instead of
 * interleaving with lane state. Each job's solve is independent, so the
 * queueing changes throughput only.
 *
 * Exactness: every per-lane recurrence reproduces the scalar runRegion
 * arithmetic operation for operation (same edge order in the sums, same
 * strict-minimum updates, no FMA contraction), the per-lane stopping
 * rules are the scalar ones, and non-converged lanes hand their
 * posteriors to the shared OSD post-pass — so decodePacked equals
 * per-shot decode() bit for bit, and a shot's result
 * never depends on which shots share its lanes (shot-order invariance).
 * The sign-bit trick used by the vector kernels (sign(x) as the IEEE
 * sign bit) matches the scalar `v < 0.0` test because effective
 * column -> detector messages are never -0.0: priors and sentinels are
 * positive, and a sum or difference of doubles only produces -0.0 from
 * two negative zeros.
 */
#include "decoder/bp_osd.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <numeric>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define PROPHUNT_LANES_X86 1
#include <immintrin.h>
#endif

namespace prophunt::decoder {

namespace {

/** Same value as the scalar path's inactive-edge sentinel (bp_osd.cc). */
constexpr double kInactiveLane = 1e300;

/** Lanes per engine; each AVX-512 vector holds all of them. */
constexpr std::size_t kW = BpOsdOptions::kLaneWidth;
static_assert(kW == 8, "the SIMD kernels assume 8 lanes");

/**
 * Flush the batched OSD queue once this many retired-unconverged shots
 * have accumulated (and always at the end of a decodePacked call).
 * Large enough to amortize the shared packed-column build across the
 * shots of a flush window, small enough to bound the queued posterior
 * snapshots (each is one double per region column).
 */
constexpr std::size_t kOsdFlushCap = 128;

/** Raw pointers of one lane BP iteration, hoisted out of the decoder so
 * the same kernels compile with and without AVX2. */
struct LaneCtx
{
    std::size_t numDetectors = 0;
    std::size_t numCols = 0;
    double scale = 0.0;
    /** Bit l: lane l is on its first iteration (messages still read as
     * the column prior; no column pass has run for it yet). */
    uint32_t freshLanes = 0;
    const uint32_t *colBegin = nullptr;
    const uint32_t *colDet = nullptr;
    const uint32_t *detBegin = nullptr;
    const uint32_t *detEdges = nullptr;
    const uint32_t *detCol = nullptr;
    const double *prior = nullptr;
    double *msg = nullptr;
    double *stage = nullptr;
    double *post = nullptr;
    const double *synSign = nullptr;
    const uint8_t *synB = nullptr;
    uint8_t *acc = nullptr;
    uint32_t *hardBits = nullptr;
    const uint32_t *detMask = nullptr;
    const uint32_t *colMask = nullptr;
    std::ptrdiff_t *mismatch = nullptr;
};

/** The effective column->detector message of detector slot @p i in lane
 * @p l: the stored value for live region edges, the column prior before a
 * lane's first column pass, the scalar sentinel outside the region. */
inline double
effectiveMsg(const LaneCtx &cx, uint32_t i, std::size_t l)
{
    uint32_t c = cx.detCol[i];
    if (((cx.colMask[c] >> l) & 1) == 0) {
        return kInactiveLane;
    }
    if (((cx.freshLanes >> l) & 1) != 0) {
        return cx.prior[c];
    }
    return cx.msg[(std::size_t)cx.detEdges[i] * kW + l];
}

/** Detector -> column pass for one (detector, lane): the scalar min-sum
 * two-minimum reduction of runRegion, indexed into the lane slice. */
void
detPassLane(const LaneCtx &cx, uint32_t d, std::size_t l)
{
    uint32_t b = cx.detBegin[d], en = cx.detBegin[d + 1];
    uint32_t deg = en - b;
    bool negProduct = cx.synB[(std::size_t)d * kW + l] != 0;
    double min1 = 1e300, min2 = 1e300;
    uint32_t argpos = UINT32_MAX;
    for (uint32_t i = 0; i < deg; ++i) {
        double v = effectiveMsg(cx, b + i, l);
        cx.stage[(std::size_t)i * kW + l] = v;
        if (v < 0.0) {
            negProduct = !negProduct;
        }
        double a = std::fabs(v);
        if (a < min1) {
            min2 = min1;
            min1 = a;
            argpos = i;
        } else if (a < min2) {
            min2 = a;
        }
    }
    double m1 = cx.scale * min1, m2 = cx.scale * min2;
    for (uint32_t i = 0; i < deg; ++i) {
        double v = cx.stage[(std::size_t)i * kW + l];
        double mag = (i == argpos) ? m2 : m1;
        cx.msg[(std::size_t)cx.detEdges[b + i] * kW + l] =
            (negProduct != (v < 0.0)) ? -mag : mag;
    }
}

/** Column -> detector pass for one (column, lane): posterior, hard
 * decision with incremental syndrome-mismatch tracking, message update. */
void
colPassLane(const LaneCtx &cx, uint32_t c, std::size_t l)
{
    uint32_t b = cx.colBegin[c], en = cx.colBegin[c + 1];
    double total = cx.prior[c];
    for (uint32_t e = b; e < en; ++e) {
        total += cx.msg[(std::size_t)e * kW + l];
    }
    cx.post[(std::size_t)c * kW + l] = total;
    uint32_t bit = uint32_t{1} << l;
    uint32_t h = total < 0 ? bit : 0;
    if (((cx.hardBits[c] ^ h) & bit) != 0) {
        cx.hardBits[c] ^= bit;
        for (uint32_t e = b; e < en; ++e) {
            std::size_t off = (std::size_t)cx.colDet[e] * kW + l;
            cx.acc[off] ^= 1;
            cx.mismatch[l] += (cx.acc[off] != cx.synB[off]) ? 1 : -1;
        }
    }
    for (uint32_t e = b; e < en; ++e) {
        std::size_t off = (std::size_t)e * kW + l;
        cx.msg[off] = total - cx.msg[off];
    }
}

void
detPassGeneric(const LaneCtx &cx)
{
    for (std::size_t d = 0; d < cx.numDetectors; ++d) {
        uint32_t mask = cx.detMask[d];
        while (mask != 0) {
            detPassLane(cx, (uint32_t)d,
                        (std::size_t)std::countr_zero(mask));
            mask &= mask - 1;
        }
    }
}

void
colPassGeneric(const LaneCtx &cx)
{
    for (std::size_t c = 0; c < cx.numCols; ++c) {
        uint32_t mask = cx.colMask[c];
        while (mask != 0) {
            colPassLane(cx, (uint32_t)c,
                        (std::size_t)std::countr_zero(mask));
            mask &= mask - 1;
        }
    }
}

#if PROPHUNT_LANES_X86

/** Element j is all-ones iff bit j of the index is set; the sign bits
 * drive _mm256_blendv_pd lane selection. */
alignas(32) constexpr int64_t kNibbleMask[16][4] = {
    {0, 0, 0, 0},     {-1, 0, 0, 0},   {0, -1, 0, 0},   {-1, -1, 0, 0},
    {0, 0, -1, 0},    {-1, 0, -1, 0},  {0, -1, -1, 0},  {-1, -1, -1, 0},
    {0, 0, 0, -1},    {-1, 0, 0, -1},  {0, -1, 0, -1},  {-1, -1, 0, -1},
    {0, 0, -1, -1},   {-1, 0, -1, -1}, {0, -1, -1, -1}, {-1, -1, -1, -1},
};

__attribute__((target("avx2"))) inline __m256d
nibbleMask(uint32_t nib)
{
    return _mm256_castsi256_pd(
        _mm256_load_si256((const __m256i *)kNibbleMask[nib]));
}

/**
 * AVX2 detector pass for the two 4-lane chunks walked in ONE pass over
 * each detector's edges: the two-minimum chains of the chunks are
 * independent, so interleaving them hides the blend latency, and every
 * message cache line is touched once per pass. Lanes with no live shot
 * at this detector see only sentinels and produce garbage nobody reads.
 */
__attribute__((target("avx2"))) void
detPassAvx2(const LaneCtx &cx)
{
    constexpr int NC = kW / 4;
    const __m256d signMask = _mm256_set1_pd(-0.0);
    const __m256d inactive = _mm256_set1_pd(kInactiveLane);
    const __m256d scaleV = _mm256_set1_pd(cx.scale);
    __m256d freshV[NC];
    for (int k = 0; k < NC; ++k) {
        freshV[k] = nibbleMask((cx.freshLanes >> (4 * k)) & 0xf);
    }
    for (std::size_t d = 0; d < cx.numDetectors; ++d) {
        uint32_t mask = cx.detMask[d];
        if (mask == 0) {
            continue;
        }
        uint32_t b = cx.detBegin[d], en = cx.detBegin[d + 1];
        uint32_t deg = en - b;
        __m256d signAcc[NC], min1[NC], min2[NC], argpos[NC];
        for (int k = 0; k < NC; ++k) {
            signAcc[k] =
                _mm256_loadu_pd(cx.synSign + (std::size_t)d * kW + 4 * k);
            min1[k] = inactive;
            min2[k] = inactive;
            argpos[k] = _mm256_set1_pd(-1.0);
        }
        for (uint32_t i = 0; i < deg; ++i) {
            std::size_t e = cx.detEdges[b + i];
            uint32_t c = cx.detCol[b + i];
            uint32_t act = cx.colMask[c];
            const __m256d priorV = _mm256_set1_pd(cx.prior[c]);
            const __m256d idx = _mm256_set1_pd((double)i);
            for (int k = 0; k < NC; ++k) {
                __m256d am = nibbleMask((act >> (4 * k)) & 0xf);
                __m256d v = _mm256_loadu_pd(cx.msg + e * kW + 4 * k);
                // Region membership: prior on the lane's first
                // iteration, stored value afterwards, sentinel outside
                // the region.
                v = _mm256_blendv_pd(v, priorV,
                                     _mm256_and_pd(am, freshV[k]));
                v = _mm256_blendv_pd(inactive, v, am);
                _mm256_storeu_pd(cx.stage + (std::size_t)i * kW + 4 * k, v);
                signAcc[k] =
                    _mm256_xor_pd(signAcc[k], _mm256_and_pd(v, signMask));
                __m256d a = _mm256_andnot_pd(signMask, v);
                __m256d lt1 = _mm256_cmp_pd(a, min1[k], _CMP_LT_OQ);
                __m256d lt2 = _mm256_cmp_pd(a, min2[k], _CMP_LT_OQ);
                min2[k] = _mm256_blendv_pd(
                    _mm256_blendv_pd(min2[k], a, lt2), min1[k], lt1);
                min1[k] = _mm256_blendv_pd(min1[k], a, lt1);
                argpos[k] = _mm256_blendv_pd(argpos[k], idx, lt1);
            }
        }
        __m256d m1[NC], m2[NC];
        for (int k = 0; k < NC; ++k) {
            m1[k] = _mm256_mul_pd(scaleV, min1[k]);
            m2[k] = _mm256_mul_pd(scaleV, min2[k]);
        }
        for (uint32_t i = 0; i < deg; ++i) {
            std::size_t e = cx.detEdges[b + i];
            const __m256d idx = _mm256_set1_pd((double)i);
            for (int k = 0; k < NC; ++k) {
                __m256d v =
                    _mm256_loadu_pd(cx.stage + (std::size_t)i * kW + 4 * k);
                __m256d eq = _mm256_cmp_pd(idx, argpos[k], _CMP_EQ_OQ);
                __m256d mag = _mm256_blendv_pd(m1[k], m2[k], eq);
                // mag >= 0, so OR-ing the product sign bit equals the
                // scalar ±mag selection bit for bit (including ±0.0).
                __m256d sb = _mm256_and_pd(
                    _mm256_xor_pd(signAcc[k], v), signMask);
                _mm256_storeu_pd(cx.msg + e * kW + 4 * k,
                                 _mm256_or_pd(mag, sb));
            }
        }
    }
}

__attribute__((target("avx2"))) void
colPassAvx2(const LaneCtx &cx)
{
    constexpr int NC = kW / 4;
    const __m256d zero = _mm256_setzero_pd();
    for (std::size_t c = 0; c < cx.numCols; ++c) {
        uint32_t mask = cx.colMask[c];
        if (mask == 0) {
            continue;
        }
        uint32_t b = cx.colBegin[c], en = cx.colBegin[c + 1];
        __m256d tot[NC];
        for (int k = 0; k < NC; ++k) {
            tot[k] = _mm256_set1_pd(cx.prior[c]);
        }
        for (uint32_t e = b; e < en; ++e) {
            for (int k = 0; k < NC; ++k) {
                tot[k] = _mm256_add_pd(
                    tot[k],
                    _mm256_loadu_pd(cx.msg + (std::size_t)e * kW + 4 * k));
            }
        }
        for (int k = 0; k < NC; ++k) {
            // Unmasked: inactive lanes' posteriors are garbage nobody
            // reads (a live lane rewrites its slice every iteration).
            _mm256_storeu_pd(cx.post + (std::size_t)c * kW + 4 * k, tot[k]);
            uint32_t nib = (mask >> (4 * k)) & 0xf;
            if (nib == 0) {
                continue;
            }
            uint32_t hNow =
                (uint32_t)_mm256_movemask_pd(
                    _mm256_cmp_pd(tot[k], zero, _CMP_LT_OQ)) &
                nib;
            uint32_t hPrev = (cx.hardBits[c] >> (4 * k)) & 0xf;
            uint32_t changed = hNow ^ hPrev;
            if (changed != 0) {
                cx.hardBits[c] ^= changed << (4 * k);
                while (changed != 0) {
                    std::size_t l =
                        4 * k + (std::size_t)std::countr_zero(changed);
                    for (uint32_t e = b; e < en; ++e) {
                        std::size_t off =
                            (std::size_t)cx.colDet[e] * kW + l;
                        cx.acc[off] ^= 1;
                        cx.mismatch[l] +=
                            (cx.acc[off] != cx.synB[off]) ? 1 : -1;
                    }
                    changed &= changed - 1;
                }
            }
        }
        for (uint32_t e = b; e < en; ++e) {
            for (int k = 0; k < NC; ++k) {
                std::size_t off = (std::size_t)e * kW + 4 * k;
                // In-place and unmasked: garbage lanes stay garbage, the
                // detector pass's membership blend restores semantics.
                _mm256_storeu_pd(
                    cx.msg + off,
                    _mm256_sub_pd(tot[k], _mm256_loadu_pd(cx.msg + off)));
            }
        }
    }
}

/**
 * AVX-512 kernels: one 512-bit vector carries all 8 lanes, half the
 * instruction stream of the AVX2 pair — and the per-column lane masks
 * become native predicate masks (__mmask8) instead of nibble-expanded
 * blend vectors. Every select/compare mirrors the AVX2 kernel operation
 * for operation per lane, and all sign handling stays integer bit
 * manipulation, so the three kernel tiers are bit-identical.
 */

__attribute__((target("avx512f"))) void
detPassAvx512(const LaneCtx &cx)
{
    const __m512i signMask = _mm512_set1_epi64(INT64_MIN);
    const __m512i absMask = _mm512_set1_epi64(INT64_MAX);
    const __m512d inactive = _mm512_set1_pd(kInactiveLane);
    const __m512d scaleV = _mm512_set1_pd(cx.scale);
    const __mmask8 fresh = (__mmask8)cx.freshLanes;
    for (std::size_t d = 0; d < cx.numDetectors; ++d) {
        if (cx.detMask[d] == 0) {
            continue;
        }
        uint32_t b = cx.detBegin[d], en = cx.detBegin[d + 1];
        uint32_t deg = en - b;
        __m512i signAcc =
            _mm512_castpd_si512(_mm512_loadu_pd(cx.synSign + d * kW));
        __m512d min1 = inactive, min2 = inactive;
        __m512d argpos = _mm512_set1_pd(-1.0);
        for (uint32_t i = 0; i < deg; ++i) {
            std::size_t e = cx.detEdges[b + i];
            uint32_t c = cx.detCol[b + i];
            __mmask8 am = (__mmask8)cx.colMask[c];
            __m512d v = _mm512_loadu_pd(cx.msg + e * kW);
            // Region membership: prior on the lane's first iteration,
            // stored value afterwards, sentinel outside the region.
            v = _mm512_mask_blend_pd((__mmask8)(am & fresh), v,
                                     _mm512_set1_pd(cx.prior[c]));
            v = _mm512_mask_blend_pd(am, inactive, v);
            _mm512_storeu_pd(cx.stage + (std::size_t)i * kW, v);
            __m512i vi = _mm512_castpd_si512(v);
            signAcc = _mm512_xor_epi64(signAcc, _mm512_and_epi64(vi, signMask));
            __m512d a = _mm512_castsi512_pd(_mm512_and_epi64(vi, absMask));
            __mmask8 lt1 = _mm512_cmp_pd_mask(a, min1, _CMP_LT_OQ);
            __mmask8 lt2 = _mm512_cmp_pd_mask(a, min2, _CMP_LT_OQ);
            min2 = _mm512_mask_blend_pd(
                lt1, _mm512_mask_blend_pd(lt2, min2, a), min1);
            min1 = _mm512_mask_blend_pd(lt1, min1, a);
            argpos = _mm512_mask_blend_pd(lt1, argpos,
                                          _mm512_set1_pd((double)i));
        }
        __m512d m1 = _mm512_mul_pd(scaleV, min1);
        __m512d m2 = _mm512_mul_pd(scaleV, min2);
        for (uint32_t i = 0; i < deg; ++i) {
            std::size_t e = cx.detEdges[b + i];
            __m512d v = _mm512_loadu_pd(cx.stage + (std::size_t)i * kW);
            __mmask8 eq = _mm512_cmp_pd_mask(_mm512_set1_pd((double)i),
                                             argpos, _CMP_EQ_OQ);
            __m512d mag = _mm512_mask_blend_pd(eq, m1, m2);
            // mag >= 0, so OR-ing the product sign bit equals the scalar
            // ±mag selection bit for bit (including ±0.0).
            __m512i sb = _mm512_and_epi64(
                _mm512_xor_epi64(signAcc, _mm512_castpd_si512(v)), signMask);
            _mm512_storeu_pd(cx.msg + e * kW,
                             _mm512_castsi512_pd(_mm512_or_epi64(
                                 _mm512_castpd_si512(mag), sb)));
        }
    }
}

__attribute__((target("avx512f"))) void
colPassAvx512(const LaneCtx &cx)
{
    const __m512d zero = _mm512_setzero_pd();
    for (std::size_t c = 0; c < cx.numCols; ++c) {
        uint32_t mask = cx.colMask[c];
        if (mask == 0) {
            continue;
        }
        uint32_t b = cx.colBegin[c], en = cx.colBegin[c + 1];
        __m512d tot = _mm512_set1_pd(cx.prior[c]);
        for (uint32_t e = b; e < en; ++e) {
            tot = _mm512_add_pd(tot,
                                _mm512_loadu_pd(cx.msg + (std::size_t)e * kW));
        }
        // Unmasked: inactive lanes' posteriors are garbage nobody reads (a
        // live lane rewrites its slice every iteration).
        _mm512_storeu_pd(cx.post + c * kW, tot);
        uint32_t hNow =
            (uint32_t)_mm512_cmp_pd_mask(tot, zero, _CMP_LT_OQ) & mask;
        uint32_t changed = hNow ^ cx.hardBits[c];
        if (changed != 0) {
            cx.hardBits[c] = hNow;
        }
        while (changed != 0) {
            std::size_t l = (std::size_t)std::countr_zero(changed);
            for (uint32_t e = b; e < en; ++e) {
                std::size_t off = (std::size_t)cx.colDet[e] * kW + l;
                cx.acc[off] ^= 1;
                cx.mismatch[l] += (cx.acc[off] != cx.synB[off]) ? 1 : -1;
            }
            changed &= changed - 1;
        }
        for (uint32_t e = b; e < en; ++e) {
            std::size_t off = (std::size_t)e * kW;
            // In-place and unmasked: garbage lanes stay garbage, the
            // detector pass's membership blend restores semantics.
            _mm512_storeu_pd(cx.msg + off,
                             _mm512_sub_pd(tot, _mm512_loadu_pd(cx.msg + off)));
        }
    }
}

#endif // PROPHUNT_LANES_X86

/** True iff @p name is set to a non-empty value — CI matrix legs pass an
 * empty string on the leg that should keep the native kernels. */
bool
envFlag(const char *name)
{
    const char *v = std::getenv(name);
    return v != nullptr && v[0] != '\0';
}

/** Runtime kernel selection. PROPHUNT_NO_AVX2 forces the generic lanes —
 * the cross-check the lane tests use on AVX2 hardware. */
bool
laneUseAvx2()
{
#if PROPHUNT_LANES_X86
    return __builtin_cpu_supports("avx2") && !envFlag("PROPHUNT_NO_AVX2");
#else
    return false;
#endif
}

/** PROPHUNT_NO_AVX512 (or PROPHUNT_NO_AVX2) steps down to the AVX2
 * (resp. generic) kernels; all tiers are bit-identical. */
bool
laneUseAvx512()
{
#if PROPHUNT_LANES_X86
    return __builtin_cpu_supports("avx512f") &&
           !envFlag("PROPHUNT_NO_AVX512") && !envFlag("PROPHUNT_NO_AVX2");
#else
    return false;
#endif
}

} // namespace

void
BpOsdDecoder::laneEnsure()
{
    std::size_t edges = tanner_->colDet.size();
    std::size_t ne = tanner_->colDets.size();
    if (laneHardBits_.size() == ne && laneMsg_.size() == edges * kW) {
        return;
    }
    laneMsg_.assign(edges * kW, 0.0);
    lanePost_.assign(ne * kW, 0.0);
    std::size_t maxDeg = 0;
    for (std::size_t d = 0; d < numDetectors_; ++d) {
        maxDeg = std::max<std::size_t>(maxDeg,
                                       tanner_->detBegin[d + 1] - tanner_->detBegin[d]);
    }
    laneStage_.assign(maxDeg * kW, 0.0);
    laneHardBits_.assign(ne, 0);
    laneAcc_.assign(numDetectors_ * kW, 0);
    laneSynB_.assign(numDetectors_ * kW, 0);
    laneSynSign_.assign(numDetectors_ * kW, 0.0);
    colLaneMask_.assign(ne, 0);
    detLaneMask_.assign(numDetectors_, 0);
}

void
BpOsdDecoder::laneInstall(std::size_t l, std::size_t shot,
                          const std::vector<uint32_t> &flipped)
{
    uint32_t bit = uint32_t{1} << l;
    // The caller just grew the region into errs_; take it over wholesale.
    laneCols_[l].swap(errs_);
    laneFlipped_[l].assign(flipped.begin(), flipped.end());
    for (uint32_t c : laneCols_[l]) {
        colLaneMask_[c] |= bit;
    }
    // Every detector adjacent to a region column: the detector pass must
    // write each region edge's reply before the column pass reads it.
    // growRegion's detector set is exactly that set here — the routing
    // in decodePacked admits no radius-0 region and no seed without an
    // incident column.
    for (uint32_t d : touchedDets_) {
        detLaneMask_[d] |= bit;
    }
    for (uint32_t d : laneFlipped_[l]) {
        laneSynB_[(std::size_t)d * kW + l] = 1;
        laneSynSign_[(std::size_t)d * kW + l] = -0.0;
    }
    laneShot_[l] = shot;
    laneLive_[l] = 1;
    // Hard decisions start all-zero, so every flipped detector mismatches.
    laneMismatch_[l] = (std::ptrdiff_t)laneFlipped_[l].size();
    laneBest_[l] = laneMismatch_[l];
    laneSinceBest_[l] = 0;
    laneIter_[l] = 0;
}

void
BpOsdDecoder::osdEnqueue(std::size_t l)
{
    if (osdQueue_.size() == osdQueueSize_) {
        osdQueue_.emplace_back();
    }
    OsdJob &job = osdQueue_[osdQueueSize_++];
    std::size_t ne = tanner_->colDets.size();
    job.shot = laneShot_[l];
    job.saturated = laneCols_[l].size() == ne;
    if (job.saturated) {
        // Canonical column order (tanner_->allCols): saturated regions differ
        // only in discovery order, which the OSD result is invariant to
        // (global-id tie-break + row-numbering-free solution), so every
        // saturated job lands in one shared flush group.
        job.sig = 0;
        job.cols.clear();
        job.post.resize(ne);
        for (std::size_t c = 0; c < ne; ++c) {
            job.post[c] = lanePost_[c * kW + l];
        }
    } else {
        job.cols.assign(laneCols_[l].begin(), laneCols_[l].end());
        uint64_t h = 1469598103934665603ull; // FNV-1a over the sequence.
        for (uint32_t c : job.cols) {
            h ^= c;
            h *= 1099511628211ull;
        }
        job.sig = h;
        job.post.resize(job.cols.size());
        for (std::size_t i = 0; i < job.cols.size(); ++i) {
            job.post[i] = lanePost_[(std::size_t)job.cols[i] * kW + l];
        }
    }
    job.flipped.assign(laneFlipped_[l].begin(), laneFlipped_[l].end());
}

void
BpOsdDecoder::osdFlush(uint64_t *obs_out, PackedDecodeStats *stats)
{
    if (osdQueueSize_ == 0) {
        return;
    }
    auto t0 = std::chrono::steady_clock::now();
    // Group jobs with identical region shapes so the packed-column build
    // is shared; sorting by (shape, shot) keeps the processing order —
    // and thus any scratch warm-up — deterministic. Results are per-shot
    // regardless of grouping, so obs_out is grouping-invariant.
    osdOrderIdx_.resize(osdQueueSize_);
    std::iota(osdOrderIdx_.begin(), osdOrderIdx_.end(), 0);
    std::sort(osdOrderIdx_.begin(), osdOrderIdx_.end(),
              [&](uint32_t a, uint32_t b) {
                  const OsdJob &ja = osdQueue_[a], &jb = osdQueue_[b];
                  if (ja.saturated != jb.saturated) {
                      return ja.saturated > jb.saturated;
                  }
                  if (ja.sig != jb.sig) {
                      return ja.sig < jb.sig;
                  }
                  return ja.shot < jb.shot;
              });
    std::size_t i = 0;
    while (i < osdQueueSize_) {
        const OsdJob &rep = osdQueue_[osdOrderIdx_[i]];
        const std::vector<uint32_t> &cols =
            rep.saturated ? tanner_->allCols : rep.cols;
        std::size_t j = i + 1;
        while (j < osdQueueSize_) {
            const OsdJob &o = osdQueue_[osdOrderIdx_[j]];
            if (o.saturated != rep.saturated || o.sig != rep.sig ||
                (!rep.saturated && o.cols != rep.cols)) {
                break; // Hash collisions fall out as separate groups.
            }
            ++j;
        }
        // Row numbering: global detector rows
        // skip the per-job detLocal_ rebuild, but the elimination's word
        // width then scales with numDetectors_ instead of the region's
        // detector count — a loss on large-detector DEMs with small
        // regions. Compare numDetectors_ against the region's edge
        // count (an upper bound on its detector count, computed without
        // building the numbering): global rows only when at most ~4x
        // wider than the worst-case local numbering. Either numbering
        // produces identical solutions.
        std::size_t edgeBound = 0;
        for (uint32_t c : cols) {
            edgeBound += tanner_->colBegin[c + 1] - tanner_->colBegin[c];
            if (4 * edgeBound >= numDetectors_) {
                break;
            }
        }
        bool globalRows = numDetectors_ <= 4 * edgeBound;
        if (!globalRows) {
            regionDets_.clear();
            for (uint32_t c : cols) {
                for (uint32_t e = tanner_->colBegin[c]; e < tanner_->colBegin[c + 1];
                     ++e) {
                    uint32_t d = tanner_->colDet[e];
                    if (detLocal_[d] < 0) {
                        detLocal_[d] = (int32_t)regionDets_.size();
                        regionDets_.push_back(d);
                    }
                }
            }
        }
        // The shared packed-column cache is built only when the group
        // actually has shots to share it (resetting it for a singleton
        // costs more than it saves — the no-cache path gathers only the
        // columns the elimination touches) and only when it fits the
        // same 32 MB cap the reach bitmaps respect.
        OsdColCache *cache = nullptr;
        std::size_t cacheRows =
            globalRows ? numDetectors_ : regionDets_.size();
        if (j - i > 1 &&
            cols.size() * ((cacheRows + 63) / 64) * 8 <= 32u << 20) {
            osdCache_.bits.reset(cols.size(), cacheRows);
            osdCache_.built.assign(cols.size(), 0);
            cache = &osdCache_;
        }
        // Full-graph fallbacks run after the group releases detLocal_
        // (runRegion builds its own numbering there).
        osdFallbackIdx_.clear();
        for (std::size_t k = i; k < j; ++k) {
            OsdJob &job = osdQueue_[osdOrderIdx_[k]];
            bool solved = osdSolve(cols, job.post.data(), job.flipped, cache,
                                   globalRows);
            if (solved) {
                uint64_t result = 0;
                for (std::size_t c = 0; c < cols.size(); ++c) {
                    if (solUses_[c]) {
                        result ^= tanner_->colObs[cols[c]];
                    }
                }
                obs_out[job.shot] = result;
            } else {
                osdFallbackIdx_.push_back(osdOrderIdx_[k]);
            }
        }
        if (!globalRows) {
            for (uint32_t d : regionDets_) {
                detLocal_[d] = -1;
            }
        }
        for (uint32_t fk : osdFallbackIdx_) {
            // The scalar path's full-graph fallback (runRegion restores
            // its own scratch; the lane arrays are untouched by it).
            OsdJob &job = osdQueue_[fk];
            bool ok = false;
            obs_out[job.shot] = runRegion(tanner_->allCols, job.flipped, ok);
        }
        i = j;
    }
    if (stats != nullptr) {
        stats->osdShots += osdQueueSize_;
        stats->osdUs += (uint64_t)std::chrono::duration_cast<
                            std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    }
    osdQueueSize_ = 0; // Entries stay allocated for the next flush.
}

void
BpOsdDecoder::laneRetire(std::size_t l, bool converged, uint64_t *obs_out)
{
    uint32_t bit = uint32_t{1} << l;
    if (converged) {
        uint64_t result = 0;
        for (uint32_t c : laneCols_[l]) {
            if (laneHardBits_[c] & bit) {
                result ^= tanner_->colObs[c];
            }
        }
        obs_out[laneShot_[l]] = result;
    } else {
        // Retired without convergence: compact into the batched OSD work
        // queue (the posterior slice, region, and syndrome are captured
        // before the lane's state is swept below); osdFlush writes the
        // observable mask.
        osdEnqueue(l);
    }
    // Restore this lane's slice of every between-shot invariant with
    // full-array sweeps: lane l's bits are only set inside its region, so
    // clearing them everywhere is the same as walking the region, and the
    // sweeps vectorize. The message array itself is NOT touched —
    // clearing the column bits is what retires its slots.
    for (std::size_t c = 0; c < colLaneMask_.size(); ++c) {
        colLaneMask_[c] &= ~bit;
        laneHardBits_[c] &= ~bit;
    }
    for (std::size_t d = 0; d < numDetectors_; ++d) {
        detLaneMask_[d] &= ~bit;
        laneAcc_[d * kW + l] = 0;
    }
    for (uint32_t d : laneFlipped_[l]) {
        laneSynB_[(std::size_t)d * kW + l] = 0;
        laneSynSign_[(std::size_t)d * kW + l] = 0.0;
    }
    laneCols_[l].clear();
    laneFlipped_[l].clear();
    laneLive_[l] = 0;
}

void
BpOsdDecoder::laneIterate(int simd_level)
{
    LaneCtx cx;
    cx.numDetectors = numDetectors_;
    cx.numCols = tanner_->colDets.size();
    cx.scale = opts_.scale;
    cx.freshLanes = 0;
    for (std::size_t l = 0; l < kW; ++l) {
        if (laneLive_[l] && laneIter_[l] == 0) {
            cx.freshLanes |= uint32_t{1} << l;
        }
    }
    cx.colBegin = tanner_->colBegin.data();
    cx.colDet = tanner_->colDet.data();
    cx.detBegin = tanner_->detBegin.data();
    cx.detEdges = tanner_->detEdges.data();
    cx.detCol = tanner_->detCol.data();
    cx.prior = tanner_->prior.data();
    cx.msg = laneMsg_.data();
    cx.stage = laneStage_.data();
    cx.post = lanePost_.data();
    cx.synSign = laneSynSign_.data();
    cx.synB = laneSynB_.data();
    cx.acc = laneAcc_.data();
    cx.hardBits = laneHardBits_.data();
    cx.detMask = detLaneMask_.data();
    cx.colMask = colLaneMask_.data();
    cx.mismatch = laneMismatch_.data();
#if PROPHUNT_LANES_X86
    if (simd_level >= 2) {
        detPassAvx512(cx);
        colPassAvx512(cx);
        return;
    }
    if (simd_level >= 1) {
        detPassAvx2(cx);
        colPassAvx2(cx);
        return;
    }
#else
    (void)simd_level;
#endif
    detPassGeneric(cx);
    colPassGeneric(cx);
}

void
BpOsdDecoder::decodePacked(const sim::FrameView &frames, uint64_t *obs_out,
                           PackedDecodeStats *stats)
{
    std::size_t shots = frames.shots;
    if (stats != nullptr) {
        stats->packedShots += shots;
    }
    if (shots == 0) {
        return;
    }
    laneEnsure();

    // Per-shot flipped-detector lists straight from the detector-major
    // words (two counting-sort passes). Scanning detectors in ascending
    // order leaves every per-shot list sorted, as decode() expects.
    packedOffsets_.assign(shots + 1, 0);
    for (std::size_t d = 0; d < frames.numDetectors; ++d) {
        const uint64_t *row = frames.detRow(d);
        for (std::size_t w = 0; w < frames.shotWords; ++w) {
            uint64_t word = row[w];
            while (word != 0) {
                ++packedOffsets_[(w << 6) +
                                 (std::size_t)std::countr_zero(word) + 1];
                word &= word - 1;
            }
        }
    }
    for (std::size_t s = 0; s < shots; ++s) {
        packedOffsets_[s + 1] += packedOffsets_[s];
    }
    packedFlipped_.resize(packedOffsets_[shots]);
    packedFill_.assign(packedOffsets_.begin(), packedOffsets_.end() - 1);
    for (std::size_t d = 0; d < frames.numDetectors; ++d) {
        const uint64_t *row = frames.detRow(d);
        for (std::size_t w = 0; w < frames.shotWords; ++w) {
            uint64_t word = row[w];
            while (word != 0) {
                std::size_t s =
                    (w << 6) + (std::size_t)std::countr_zero(word);
                packedFlipped_[packedFill_[s]++] = (uint32_t)d;
                word &= word - 1;
            }
        }
    }

    // Route shots: trivial syndromes resolve inline, the rest queue for
    // the lanes.
    laneQueue_.clear();
    for (std::size_t s = 0; s < shots; ++s) {
        uint32_t fb = packedOffsets_[s], fe = packedOffsets_[s + 1];
        if (fb == fe) {
            obs_out[s] = 0;
            continue;
        }
        flippedScratch_.assign(packedFlipped_.begin() + fb,
                               packedFlipped_.begin() + fe);
        auto hit = tanner_->single.find(flippedScratch_);
        if (hit != tanner_->single.end()) {
            obs_out[s] = hit->second.first;
            continue;
        }
        if (opts_.maxIterations == 0) {
            // Zero-iteration BP goes straight to OSD in the scalar path;
            // serve this pathological config from there instead of
            // special-casing the lane loop.
            obs_out[s] = decode(flippedScratch_);
            continue;
        }
        bool disconnected = false;
        for (uint32_t d : flippedScratch_) {
            if (tanner_->detBegin[d + 1] == tanner_->detBegin[d]) {
                disconnected = true;
                break;
            }
        }
        if (disconnected) {
            // A flipped detector with no incident error is unexplainable
            // even on the full graph; the scalar path returns 0.
            obs_out[s] = 0;
            continue;
        }
        laneQueue_.push_back((uint32_t)s);
    }

    int simd = !laneUseAvx2() ? 0 : laneUseAvx512() ? 2 : 1;
    std::size_t next = 0;
    std::size_t live = 0;
    for (;;) {
        // Refill free lanes from the queue.
        for (std::size_t l = 0; l < kW; ++l) {
            while (!laneLive_[l] && next < laneQueue_.size()) {
                std::size_t s = laneQueue_[next++];
                uint32_t fb = packedOffsets_[s], fe = packedOffsets_[s + 1];
                flippedScratch_.assign(packedFlipped_.begin() + fb,
                                       packedFlipped_.begin() + fe);
                growRegion(flippedScratch_);
                if (errs_.empty()) {
                    // regionRadius == 0: the scalar path's region attempt
                    // is infeasible and it decodes on the full graph.
                    bool ok = false;
                    obs_out[s] = runRegion(tanner_->allCols, flippedScratch_, ok);
                    continue;
                }
                laneInstall(l, s, flippedScratch_);
                ++live;
            }
        }
        if (live == 0) {
            break;
        }
        laneIterate(simd);
        if (stats != nullptr) {
            stats->laneSlotsBusy += live;
            stats->laneSlotsTotal += kW;
        }
        // Per-lane stopping rules, mirroring the scalar iteration loop.
        for (std::size_t l = 0; l < kW; ++l) {
            if (!laneLive_[l]) {
                continue;
            }
            ++laneIter_[l];
            bool converged = laneMismatch_[l] == 0;
            bool done = converged;
            if (!converged) {
                if (opts_.stagnationWindow != 0) {
                    if (laneMismatch_[l] < laneBest_[l]) {
                        laneBest_[l] = laneMismatch_[l];
                        laneSinceBest_[l] = 0;
                    } else if (++laneSinceBest_[l] >=
                               opts_.stagnationWindow) {
                        done = true; // Stagnated; posteriors go to OSD.
                    }
                }
                if (laneIter_[l] >= opts_.maxIterations) {
                    done = true;
                }
            }
            if (done) {
                laneRetire(l, converged, obs_out);
                --live;
            }
        }
        if (osdQueueSize_ >= kOsdFlushCap) {
            osdFlush(obs_out, stats);
        }
    }
    osdFlush(obs_out, stats);
}

} // namespace prophunt::decoder
