/**
 * @file
 * Candidate-change pruning (paper Section 5.4).
 *
 * Two checks gate every candidate:
 *
 *  1. Circuit validity: stabilizer commutation is preserved and the CNOT
 *     precedence constraints are acyclic (schedulable).
 *  2. Ambiguity removal: with the candidate applied, the original ambiguous
 *     detector set must decode unambiguously (all logical rows back in
 *     rowspace(H')), and the updated circuit-level errors at the same gate
 *     fault locations must no longer form an undetected logical error
 *     (H'e' != 0 or L'e' = 0).
 *
 * The work splits in two. buildCandidateModel() runs check 1 and builds
 * the candidate's circuit-level model (schedule, depth, DEM); it depends
 * only on the base schedule, the change and the basis, so the optimizer
 * builds it once per distinct change and shares it across every subgraph
 * that proposed the change. removesAmbiguity() runs check 2 for one
 * subgraph against a shared model, looking up only the logical error's
 * own CNOT fault locations in the candidate DEM. verifyChange() composes
 * the two for a single candidate.
 *
 * Detector indices are schedule-independent (a detector is a (check, round)
 * pair), so the "original ambiguous syndrome bits" transfer directly to the
 * candidate's DEM.
 */
#ifndef PROPHUNT_PROPHUNT_PRUNING_H
#define PROPHUNT_PROPHUNT_PRUNING_H

#include <optional>

#include "prophunt/changes.h"
#include "prophunt/subgraph.h"
#include "sim/dem.h"
#include "sim/noise_model.h"

namespace prophunt::core {

/** A candidate change that survived pruning. */
struct VerifiedChange
{
    CircuitChange change;
    circuit::SmSchedule schedule;
    std::size_t depth = 0;
};

/** The circuit-level model of one valid candidate change. */
struct CandidateModel
{
    circuit::SmSchedule schedule;
    std::size_t depth = 0;
    sim::Dem dem;
};

/**
 * Apply @p change to @p base and build the result's model for the given
 * memory experiment; nullopt if the schedule is not commutation-valid or
 * not schedulable (check 1).
 */
std::optional<CandidateModel> buildCandidateModel(
    const circuit::SmSchedule &base, const CircuitChange &change,
    std::size_t rounds, circuit::MemoryBasis basis,
    const sim::NoiseModel &noise);

/**
 * Check 2 for one subgraph: true iff the candidate removes the ambiguity
 * on @p ambiguous_detectors and the logical error's fault locations no
 * longer form an undetected logical error in @p model.
 *
 * @param logical_errors Mechanisms of the found min-weight logical error
 * in @p dem; each is represented by its first CNOT source that still maps
 * to a mechanism of the candidate DEM.
 * @param dem The DEM the subgraph was found in.
 */
bool removesAmbiguity(const CandidateModel &model,
                      const std::vector<uint32_t> &ambiguous_detectors,
                      const std::vector<uint32_t> &logical_errors,
                      const sim::Dem &dem);

/**
 * Check one candidate; returns the verified change or nullopt.
 *
 * @param base Current schedule.
 * @param change Candidate to verify.
 * @param ambiguous_detectors The subgraph's detector set S'.
 * @param logical_errors Mechanisms of the found min-weight logical error
 * in the current DEM (their sources identify the gates to re-check).
 * @param dem Current DEM (for fault-location keys).
 * @param rounds, basis, noise Circuit-construction parameters (must match
 * the DEM the subgraph was found in).
 */
std::optional<VerifiedChange> verifyChange(
    const circuit::SmSchedule &base, const CircuitChange &change,
    const std::vector<uint32_t> &ambiguous_detectors,
    const std::vector<uint32_t> &logical_errors, const sim::Dem &dem,
    std::size_t rounds, circuit::MemoryBasis basis,
    const sim::NoiseModel &noise);

} // namespace prophunt::core

#endif // PROPHUNT_PROPHUNT_PRUNING_H
