/**
 * @file
 * Reference ambiguity-removal check: the test oracle for
 * core::removesAmbiguity.
 *
 * This is the check the repository used before candidate models carried
 * fault tables: it runs on the candidate's full DEM. The interior errors
 * are the DEM mechanisms whose detectors lie inside the ambiguous set, and
 * each CNOT fault key of the logical error maps to the last mechanism
 * listing it among its sources. core::removesAmbiguity must return the
 * same verdict as referenceRemovesAmbiguity() on
 * sim::buildDem(candidate circuit) for every subgraph and candidate.
 */
#ifndef PROPHUNT_TESTS_SUPPORT_REMOVES_AMBIGUITY_REFERENCE_H
#define PROPHUNT_TESTS_SUPPORT_REMOVES_AMBIGUITY_REFERENCE_H

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "prophunt/subgraph.h"
#include "sim/dem.h"

namespace prophunt::testsupport {

/** Schedule-independent identity of a CNOT fault. */
using ReferenceFaultKey =
    std::tuple<std::size_t, std::size_t, std::size_t, uint8_t,
               uint8_t>; // check, data qubit, round, p0, p1

inline ReferenceFaultKey
referenceKeyOf(const sim::FaultLoc &loc)
{
    return {loc.cnot.check, loc.cnot.dataQubit, loc.cnot.round,
            (uint8_t)loc.p0, (uint8_t)loc.p1};
}

/**
 * True iff the candidate with DEM @p new_dem removes the ambiguity on
 * @p ambiguous_detectors and the logical error's fault locations
 * (@p logical_errors, mechanisms of @p dem) no longer form an undetected
 * logical error.
 */
inline bool
referenceRemovesAmbiguity(const sim::Dem &new_dem,
                          const std::vector<uint32_t> &ambiguous_detectors,
                          const std::vector<uint32_t> &logical_errors,
                          const sim::Dem &dem)
{
    // Ambiguity must be gone on the original syndrome bits.
    std::vector<uint32_t> interior =
        core::interiorErrors(new_dem, ambiguous_detectors);
    if (core::hasAmbiguity(new_dem, ambiguous_detectors, interior)) {
        return false;
    }

    // The updated circuit-level errors at the original fault locations
    // must not constitute a new undetected logical error. A key listed by
    // several mechanisms maps to the last of them.
    constexpr uint32_t kUnmapped = ~uint32_t{0};
    std::map<ReferenceFaultKey, uint32_t> new_mech_of;
    for (uint32_t err : logical_errors) {
        for (const sim::FaultLoc &loc : dem.errors[err].sources) {
            if (loc.isCnot) {
                new_mech_of.emplace(referenceKeyOf(loc), kUnmapped);
            }
        }
    }
    for (std::size_t e = 0; e < new_dem.errors.size(); ++e) {
        for (const sim::FaultLoc &loc : new_dem.errors[e].sources) {
            if (!loc.isCnot) {
                continue;
            }
            auto it = new_mech_of.find(referenceKeyOf(loc));
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
            uint32_t mapped = new_mech_of.at(referenceKeyOf(loc));
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
            detected |= v != 0;
        }
        bool logical = false;
        for (uint32_t v : obs_parity) {
            logical |= v != 0;
        }
        if (!detected && logical) {
            return false; // still an undetected logical error
        }
    }
    return true;
}

} // namespace prophunt::testsupport

#endif // PROPHUNT_TESTS_SUPPORT_REMOVES_AMBIGUITY_REFERENCE_H
