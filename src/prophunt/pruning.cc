#include "prophunt/pruning.h"

#include <map>
#include <tuple>

#include "sim/dem_builder.h"

namespace prophunt::core {

namespace {

/** Schedule-independent identity of a CNOT fault. */
using FaultKey = std::tuple<std::size_t, std::size_t, std::size_t, uint8_t,
                            uint8_t>; // check, data qubit, round, p0, p1

FaultKey
keyOf(const sim::FaultLoc &loc)
{
    return {loc.cnot.check, loc.cnot.dataQubit, loc.cnot.round,
            (uint8_t)loc.p0, (uint8_t)loc.p1};
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
    sim::Dem dem = sim::buildDem(circ, noise);
    return CandidateModel{std::move(candidate), ts->depth, std::move(dem)};
}

bool
removesAmbiguity(const CandidateModel &model,
                 const std::vector<uint32_t> &ambiguous_detectors,
                 const std::vector<uint32_t> &logical_errors,
                 const sim::Dem &dem)
{
    const sim::Dem &new_dem = model.dem;

    // Ambiguity must be gone on the original syndrome bits.
    std::vector<uint32_t> interior =
        interiorErrors(new_dem, ambiguous_detectors);
    if (hasAmbiguity(new_dem, ambiguous_detectors, interior)) {
        return false;
    }

    // The updated circuit-level errors at the original fault locations must
    // not constitute a new undetected logical error. Only the logical
    // error's own CNOT fault keys are looked up in the candidate DEM; a key
    // listed by several mechanisms maps to the last of them.
    constexpr uint32_t kUnmapped = ~uint32_t{0};
    std::map<FaultKey, uint32_t> new_mech_of;
    for (uint32_t err : logical_errors) {
        for (const sim::FaultLoc &loc : dem.errors[err].sources) {
            if (loc.isCnot) {
                new_mech_of.emplace(keyOf(loc), kUnmapped);
            }
        }
    }
    for (std::size_t e = 0; e < new_dem.errors.size(); ++e) {
        for (const sim::FaultLoc &loc : new_dem.errors[e].sources) {
            if (!loc.isCnot) {
                continue;
            }
            auto it = new_mech_of.find(keyOf(loc));
            if (it != new_mech_of.end()) {
                it->second = (uint32_t)e;
            }
        }
    }

    std::vector<uint32_t> det_parity(new_dem.numDetectors, 0);
    std::vector<uint32_t> obs_parity(new_dem.numObservables, 0);
    bool any_mapped = false;
    for (uint32_t err : logical_errors) {
        for (const sim::FaultLoc &loc : dem.errors[err].sources) {
            if (!loc.isCnot) {
                continue;
            }
            uint32_t mapped = new_mech_of.at(keyOf(loc));
            if (mapped == kUnmapped) {
                continue; // fault became trivial in the new circuit
            }
            any_mapped = true;
            const auto &mech = new_dem.errors[mapped];
            for (uint32_t d : mech.detectors) {
                det_parity[d] ^= 1;
            }
            for (uint32_t o : mech.observables) {
                obs_parity[o] ^= 1;
            }
            break; // one representative fault per mechanism
        }
    }
    if (any_mapped) {
        bool detected = false;
        for (uint32_t v : det_parity) {
            if (v) {
                detected = true;
                break;
            }
        }
        bool logical = false;
        for (uint32_t v : obs_parity) {
            if (v) {
                logical = true;
                break;
            }
        }
        if (!detected && logical) {
            return false; // still an undetected logical error
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
