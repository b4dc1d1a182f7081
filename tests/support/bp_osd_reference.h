/**
 * @file
 * Seed-faithful BP+OSD reference decoder: the test oracle for
 * decoder::BpOsdDecoder.
 *
 * This is the per-region implementation the repository started with. Every
 * call rebuilds the region's local detector numbering and edge lists, runs
 * min-sum BP until the hard decision reproduces the syndrome or
 * maxIterations is spent (there is no stagnation window), and otherwise
 * solves OSD-0 by a plain per-pivot elimination that re-reduces the whole
 * syndrome after every new pivot. BpOsdDecoder with stagnationWindow = 0
 * must reproduce referenceDecode() prediction for prediction, and its
 * packed OSD post-pass (osdPostPass) must reproduce referenceOsd0() flag
 * for flag. Only the shared, read-only BpOsdDecoder::Tanner is borrowed
 * from the production decoder; none of its per-shot machinery is.
 */
#ifndef PROPHUNT_TESTS_SUPPORT_BP_OSD_REFERENCE_H
#define PROPHUNT_TESTS_SUPPORT_BP_OSD_REFERENCE_H

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "decoder/bp_osd.h"

namespace prophunt::testsupport {

using Tanner = decoder::BpOsdDecoder::Tanner;

/** Local detector numbering of a region, in column-discovery order. */
struct RegionDetectors
{
    std::vector<int> local; ///< Global detector -> local index, or -1.
    std::size_t count = 0;
};

inline RegionDetectors
regionDetectors(const Tanner &t, const std::vector<uint32_t> &cols)
{
    RegionDetectors r;
    r.local.assign(t.detCols.size(), -1);
    for (uint32_t e : cols) {
        for (uint32_t d : t.colDets[e]) {
            if (r.local[d] < 0) {
                r.local[d] = (int)r.count++;
            }
        }
    }
    return r;
}

/**
 * OSD-0 over the region @p cols with posterior ranking @p post (post[i]
 * ranks cols[i]): columns are taken in ascending posterior order, ties
 * broken by global column id. Fills @p uses with one 0/1 flag per cols
 * position and returns whether the syndrome was explained. A flipped
 * detector with no adjacent column in @p cols makes the region infeasible
 * (false, all-zero uses).
 */
inline bool
referenceOsd0(const Tanner &t, const std::vector<uint32_t> &cols,
              const std::vector<double> &post,
              const std::vector<uint32_t> &flipped,
              std::vector<uint8_t> &uses)
{
    std::size_t ne = cols.size();
    uses.assign(ne, 0);
    RegionDetectors region = regionDetectors(t, cols);
    std::size_t nd = region.count;
    std::size_t words = (nd + 63) / 64;
    std::vector<uint64_t> s_vec(words, 0);
    for (uint32_t d : flipped) {
        int ld = region.local[d];
        if (ld < 0) {
            return false;
        }
        s_vec[ld >> 6] |= uint64_t{1} << (ld & 63);
    }

    std::vector<uint32_t> order(ne);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        if (post[a] != post[b]) {
            return post[a] < post[b];
        }
        return cols[a] < cols[b];
    });

    struct Pivot
    {
        std::size_t row;
        std::vector<uint64_t> col;
        std::vector<uint32_t> members; ///< Original columns XORed in.
    };
    std::vector<Pivot> pivots;
    // Reduce the syndrome as we go; solution = pivots whose row bit is
    // set in the (running) reduced syndrome.
    for (uint32_t oc : order) {
        std::vector<uint64_t> col(words, 0);
        for (uint32_t d : t.colDets[cols[oc]]) {
            int ld = region.local[d];
            col[ld >> 6] |= uint64_t{1} << (ld & 63);
        }
        std::vector<uint32_t> members{oc};
        for (const Pivot &p : pivots) {
            if ((col[p.row >> 6] >> (p.row & 63)) & 1) {
                for (std::size_t w = 0; w < words; ++w) {
                    col[w] ^= p.col[w];
                }
                members.insert(members.end(), p.members.begin(),
                               p.members.end());
            }
        }
        std::size_t row = nd;
        for (std::size_t w = 0; w < words && row == nd; ++w) {
            if (col[w]) {
                row = (w << 6) + std::countr_zero(col[w]);
            }
        }
        if (row == nd) {
            continue; // dependent column
        }
        pivots.push_back({row, std::move(col), std::move(members)});
        // Check if the syndrome is now explainable.
        std::vector<uint64_t> r = s_vec;
        std::vector<uint8_t> use(pivots.size(), 0);
        for (std::size_t pi = 0; pi < pivots.size(); ++pi) {
            const Pivot &p = pivots[pi];
            if ((r[p.row >> 6] >> (p.row & 63)) & 1) {
                for (std::size_t w = 0; w < words; ++w) {
                    r[w] ^= p.col[w];
                }
                use[pi] = 1;
            }
        }
        if (std::all_of(r.begin(), r.end(),
                        [](uint64_t w) { return w == 0; })) {
            for (std::size_t pi = 0; pi < pivots.size(); ++pi) {
                if (use[pi]) {
                    for (uint32_t mc : pivots[pi].members) {
                        uses[mc] ^= 1;
                    }
                }
            }
            return true;
        }
    }
    return false;
}

/**
 * Min-sum BP over the region @p errs, run until the hard decision
 * reproduces the syndrome or opts.maxIterations is spent. Fills
 * @p posterior and @p hard per errs position and returns whether BP
 * converged. Every flipped detector must be adjacent to the region.
 */
inline bool
referenceBp(const Tanner &t, const decoder::BpOsdOptions &opts,
            const std::vector<uint32_t> &errs,
            const std::vector<uint32_t> &flipped,
            std::vector<double> &posterior, std::vector<uint8_t> &hard)
{
    RegionDetectors region = regionDetectors(t, errs);
    std::size_t nd = region.count, ne = errs.size();
    std::vector<uint8_t> syn(nd, 0);
    for (uint32_t d : flipped) {
        syn[region.local[d]] = 1;
    }

    // Edge lists (local).
    struct ColEdges
    {
        std::size_t begin, count;
    };
    std::vector<ColEdges> col_edges(ne);
    std::vector<uint32_t> edge_det; // local detector per edge
    std::vector<double> msg_c2d;    // column -> detector messages
    for (std::size_t c = 0; c < ne; ++c) {
        col_edges[c].begin = edge_det.size();
        col_edges[c].count = t.colDets[errs[c]].size();
        for (uint32_t d : t.colDets[errs[c]]) {
            edge_det.push_back((uint32_t)region.local[d]);
            msg_c2d.push_back(t.prior[errs[c]]);
        }
    }
    std::vector<std::vector<uint32_t>> det_edges(nd);
    for (std::size_t c = 0; c < ne; ++c) {
        for (std::size_t k = 0; k < col_edges[c].count; ++k) {
            det_edges[edge_det[col_edges[c].begin + k]].push_back(
                (uint32_t)(col_edges[c].begin + k));
        }
    }

    std::vector<double> msg_d2c(edge_det.size(), 0.0);
    posterior.assign(ne, 0.0);
    hard.assign(ne, 0);

    auto check_syndrome = [&]() {
        std::vector<uint8_t> acc(nd, 0);
        for (std::size_t c = 0; c < ne; ++c) {
            if (!hard[c]) {
                continue;
            }
            for (std::size_t k = 0; k < col_edges[c].count; ++k) {
                acc[edge_det[col_edges[c].begin + k]] ^= 1;
            }
        }
        return acc == syn;
    };

    bool converged = false;
    for (std::size_t it = 0; it < opts.maxIterations && !converged; ++it) {
        // Detector -> column (min-sum with normalization).
        for (std::size_t d = 0; d < nd; ++d) {
            const auto &edges = det_edges[d];
            // Product of signs and the two smallest magnitudes.
            int sign = syn[d] ? -1 : 1;
            double min1 = 1e300, min2 = 1e300;
            std::size_t argmin = 0;
            for (uint32_t e : edges) {
                double v = msg_c2d[e];
                if (v < 0) {
                    sign = -sign;
                }
                double a = std::fabs(v);
                if (a < min1) {
                    min2 = min1;
                    min1 = a;
                    argmin = e;
                } else if (a < min2) {
                    min2 = a;
                }
            }
            for (uint32_t e : edges) {
                double mag = (e == argmin) ? min2 : min1;
                int s = sign;
                if (msg_c2d[e] < 0) {
                    s = -s;
                }
                msg_d2c[e] = opts.scale * s * mag;
            }
        }
        // Column -> detector, posterior, hard decision.
        for (std::size_t c = 0; c < ne; ++c) {
            double total = t.prior[errs[c]];
            for (std::size_t k = 0; k < col_edges[c].count; ++k) {
                total += msg_d2c[col_edges[c].begin + k];
            }
            posterior[c] = total;
            hard[c] = total < 0;
            for (std::size_t k = 0; k < col_edges[c].count; ++k) {
                std::size_t e = col_edges[c].begin + k;
                msg_c2d[e] = total - msg_d2c[e];
            }
        }
        converged = check_syndrome();
    }
    return converged;
}

/** Localized region: the columns within opts.regionRadius expansion
 * layers of the flipped detectors, in BFS discovery order. */
inline std::vector<uint32_t>
referenceRegion(const Tanner &t, const decoder::BpOsdOptions &opts,
                const std::vector<uint32_t> &flipped)
{
    std::vector<uint8_t> err_in(t.colDets.size(), 0);
    std::vector<uint8_t> det_in(t.detCols.size(), 0);
    std::vector<uint32_t> frontier_dets = flipped;
    std::vector<uint32_t> errs;
    for (uint32_t d : frontier_dets) {
        det_in[d] = 1;
    }
    for (std::size_t layer = 0; layer < opts.regionRadius; ++layer) {
        std::vector<uint32_t> new_dets;
        for (uint32_t d : frontier_dets) {
            for (uint32_t e : t.detCols[d]) {
                if (err_in[e]) {
                    continue;
                }
                err_in[e] = 1;
                errs.push_back(e);
                for (uint32_t dd : t.colDets[e]) {
                    if (!det_in[dd]) {
                        det_in[dd] = 1;
                        new_dets.push_back(dd);
                    }
                }
            }
        }
        frontier_dets = std::move(new_dets);
        if (frontier_dets.empty()) {
            break;
        }
    }
    return errs;
}

/** BP, then OSD-0 if BP does not converge, restricted to the region
 * @p errs; @p ok is false when the region cannot explain the syndrome. */
inline uint64_t
referenceDecodeRegion(const Tanner &t, const decoder::BpOsdOptions &opts,
                      const std::vector<uint32_t> &errs,
                      const std::vector<uint32_t> &flipped, bool &ok)
{
    RegionDetectors region = regionDetectors(t, errs);
    for (uint32_t d : flipped) {
        if (region.local[d] < 0) {
            // A flipped detector with no adjacent error in the region:
            // unsolvable here.
            ok = false;
            return 0;
        }
    }
    std::vector<double> posterior;
    std::vector<uint8_t> used; // BP hard decision, else the OSD solution.
    ok = referenceBp(t, opts, errs, flipped, posterior, used) ||
         referenceOsd0(t, errs, posterior, flipped, used);
    uint64_t result = 0;
    for (std::size_t c = 0; ok && c < errs.size(); ++c) {
        if (used[c]) {
            result ^= t.colObs[errs[c]];
        }
    }
    return result;
}

/** The seed decoder: weight-1 lookup, localized region, full-graph
 * fallback. */
inline uint64_t
referenceDecode(const Tanner &t, const decoder::BpOsdOptions &opts,
                const std::vector<uint32_t> &flipped)
{
    if (flipped.empty()) {
        return 0;
    }
    // Weight-1 fast path: a syndrome exactly matching one mechanism is
    // overwhelmingly most likely explained by it (p >> p^2).
    auto hit = t.single.find(flipped);
    if (hit != t.single.end()) {
        return hit->second.first;
    }
    bool ok = false;
    uint64_t result =
        referenceDecodeRegion(t, opts, referenceRegion(t, opts, flipped),
                              flipped, ok);
    if (ok) {
        return result;
    }
    // Fall back to the full graph.
    return referenceDecodeRegion(t, opts, t.allCols, flipped, ok);
}

} // namespace prophunt::testsupport

#endif // PROPHUNT_TESTS_SUPPORT_BP_OSD_REFERENCE_H
