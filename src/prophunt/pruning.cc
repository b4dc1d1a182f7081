#include "prophunt/pruning.h"

#include <algorithm>
#include <bit>

#include "gf2/matrix.h"

namespace prophunt::core {

namespace {

bool
isEmpty(const uint64_t *sig, std::size_t words)
{
    return std::all_of(sig, sig + words, [](uint64_t w) { return w == 0; });
}

/** Index of the first fault of @p table whose signature is @p sig. */
std::size_t
firstWithSignature(const sim::FaultTable &table, const uint64_t *sig)
{
    std::size_t f = 0;
    while (!std::equal(sig, sig + table.sigWords, table.signature(f))) {
        ++f;
    }
    return f;
}

/**
 * The signature the candidate DEM assigns to the CNOT fault @p loc (found
 * by its schedule-independent key), or nullptr if no fault with that key
 * has a non-empty signature. Several faults with the key resolve to the
 * one whose signature appears last in fault order: the DEM's mechanisms
 * are ordered by first appearance, and its last mechanism listing the key
 * wins.
 */
const uint64_t *
signatureOf(const CandidateModel &model, const sim::FaultLoc &loc)
{
    const sim::FaultTable &table = model.faults;
    const CnotFaults probe{
        {loc.cnot.check, loc.cnot.dataQubit, loc.cnot.round}, 0, 0};
    auto it = std::lower_bound(model.cnots.begin(), model.cnots.end(), probe);
    const uint64_t *best = nullptr;
    std::size_t best_first = 0;
    for (; it != model.cnots.end() && it->key == probe.key; ++it) {
        for (std::size_t f = it->first; f < it->end; ++f) {
            const sim::FaultTable::Fault &cand = table.faults[f];
            const uint64_t *sig = table.signature(f);
            if (cand.p0 != loc.p0 || cand.p1 != loc.p1 ||
                isEmpty(sig, table.sigWords)) {
                continue;
            }
            if (best == nullptr) {
                best = sig;
                best_first = firstWithSignature(table, sig);
            } else if (!std::equal(sig, sig + table.sigWords, best)) {
                std::size_t first = firstWithSignature(table, sig);
                if (first > best_first) {
                    best = sig;
                    best_first = first;
                }
            }
        }
    }
    return best;
}

} // namespace

std::optional<CandidateModel>
buildCandidateModel(const circuit::SmSchedule &base,
                    const CircuitChange &change, std::size_t rounds,
                    circuit::MemoryBasis basis, const sim::NoiseModel &noise)
{
    circuit::SmSchedule candidate = change.apply(base);
    if (!candidate.commutationValid()) {
        return std::nullopt;
    }
    auto ts = candidate.computeTimesteps();
    if (!ts) {
        return std::nullopt; // cyclic precedence: not schedulable
    }
    circuit::SmCircuit circ =
        circuit::buildMemoryCircuit(candidate, rounds, basis);
    CandidateModel model{std::move(candidate), ts->depth,
                         sim::buildFaultTable(circ, noise), {}};
    const std::vector<uint32_t> &begin = model.faults.instrBegin;
    for (std::size_t i = 0; i < circ.instructions.size(); ++i) {
        if (circ.instructions[i].op == circuit::OpType::Cnot &&
            begin[i] != begin[i + 1]) {
            const circuit::CnotInfo &c = circ.cnotInfo[i];
            model.cnots.push_back(
                {{c.check, c.dataQubit, c.round}, begin[i], begin[i + 1]});
        }
    }
    std::sort(model.cnots.begin(), model.cnots.end());
    return model;
}

bool
removesAmbiguity(const CandidateModel &model,
                 const std::vector<uint32_t> &ambiguous_detectors,
                 const std::vector<uint32_t> &logical_errors,
                 const sim::Dem &dem)
{
    const sim::FaultTable &table = model.faults;
    const std::size_t words = table.sigWords;
    const std::size_t num_det = table.numDetectors;
    const std::size_t num_targets = num_det + table.numObservables;

    // The two conditions are independent; the cheaper one runs first.
    //
    // The updated circuit-level errors at the original fault locations must
    // not constitute a new undetected logical error. Each mechanism of the
    // logical error is represented by its first CNOT source that still has
    // a non-empty signature in the candidate circuit.
    std::vector<uint64_t> parity(words, 0);
    bool any_mapped = false;
    for (uint32_t err : logical_errors) {
        for (const sim::FaultLoc &loc : dem.errors[err].sources) {
            if (!loc.isCnot) {
                continue;
            }
            const uint64_t *sig = signatureOf(model, loc);
            if (sig == nullptr) {
                continue; // fault became trivial in the new circuit
            }
            any_mapped = true;
            for (std::size_t k = 0; k < words; ++k) {
                parity[k] ^= sig[k];
            }
            break; // one representative fault per mechanism
        }
    }
    auto has_target_in = [&](const uint64_t *sig, std::size_t lo,
                             std::size_t hi) {
        for (std::size_t t = lo; t < hi; ++t) {
            if ((sig[t >> 6] >> (t & 63)) & 1) {
                return true;
            }
        }
        return false;
    };
    if (any_mapped && !has_target_in(parity.data(), 0, num_det) &&
        has_target_in(parity.data(), num_det, num_targets)) {
        return false; // still an undetected logical error
    }

    // Ambiguity must be gone on the original syndrome bits. The interior
    // errors are the distinct non-empty signatures whose detector bits lie
    // inside the ambiguous set; every observable bit is allowed, so
    // observable-only signatures are interior.
    std::vector<uint64_t> outside(words, ~uint64_t{0});
    for (uint32_t d : ambiguous_detectors) {
        outside[d >> 6] &= ~(uint64_t{1} << (d & 63));
    }
    for (std::size_t t = num_det; t < num_targets; ++t) {
        outside[t >> 6] &= ~(uint64_t{1} << (t & 63));
    }
    std::vector<uint32_t> inside;
    for (std::size_t f = 0; f < table.faults.size(); ++f) {
        const uint64_t *sig = table.signature(f);
        uint64_t any = 0, out = 0;
        for (std::size_t k = 0; k < words; ++k) {
            any |= sig[k];
            out |= sig[k] & outside[k];
        }
        if (any != 0 && out == 0) {
            inside.push_back((uint32_t)f);
        }
    }
    // Keep the first fault of each signature, through open addressing keyed
    // on the signature words, so the columns come in the DEM's mechanism
    // order.
    constexpr uint32_t kNone = ~uint32_t{0};
    std::vector<const uint64_t *> interior;
    const std::size_t mask = std::bit_ceil(2 * inside.size() + 1) - 1;
    std::vector<uint32_t> slots(mask + 1, kNone);
    for (uint32_t f : inside) {
        const uint64_t *sig = table.signature(f);
        std::size_t s = table.signatureHash(f) & mask;
        while (slots[s] != kNone &&
               !std::equal(sig, sig + words, table.signature(slots[s]))) {
            s = (s + 1) & mask;
        }
        if (slots[s] == kNone) {
            slots[s] = f;
            interior.push_back(sig);
        }
    }

    // H': |S'| x |E'|; logical rows restricted to E'.
    std::vector<int> det_local(num_det, -1);
    for (std::size_t i = 0; i < ambiguous_detectors.size(); ++i) {
        det_local[ambiguous_detectors[i]] = (int)i;
    }
    gf2::Matrix h(ambiguous_detectors.size(), interior.size());
    for (std::size_t c = 0; c < interior.size(); ++c) {
        for (std::size_t k = 0; k < words; ++k) {
            for (uint64_t bits = interior[c][k]; bits != 0;
                 bits &= bits - 1) {
                std::size_t t =
                    (k << 6) + (std::size_t)std::countr_zero(bits);
                if (t < num_det) {
                    h.set((std::size_t)det_local[t], c, true);
                }
            }
        }
    }
    for (std::size_t t = num_det; t < num_targets; ++t) {
        gf2::BitVec row(interior.size());
        for (std::size_t c = 0; c < interior.size(); ++c) {
            if ((interior[c][t >> 6] >> (t & 63)) & 1) {
                row.set(c, true);
            }
        }
        if (!row.isZero() && !h.rowSpaceContains(row)) {
            return false;
        }
    }
    return true;
}

std::optional<VerifiedChange>
verifyChange(const circuit::SmSchedule &base, const CircuitChange &change,
             const std::vector<uint32_t> &ambiguous_detectors,
             const std::vector<uint32_t> &logical_errors,
             const sim::Dem &dem, std::size_t rounds,
             circuit::MemoryBasis basis, const sim::NoiseModel &noise)
{
    std::optional<CandidateModel> model =
        buildCandidateModel(base, change, rounds, basis, noise);
    if (!model ||
        !removesAmbiguity(*model, ambiguous_detectors, logical_errors, dem)) {
        return std::nullopt;
    }
    return VerifiedChange{change, std::move(model->schedule), model->depth};
}

} // namespace prophunt::core
