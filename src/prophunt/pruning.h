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
 * the candidate's circuit-level model (schedule, depth, fault table); it
 * depends only on the base schedule, the change and the basis, so the
 * optimizer builds it once per distinct change and shares it across every
 * subgraph that proposed the change. removesAmbiguity() runs check 2 for
 * one subgraph against a shared model. verifyChange() composes the two for
 * a single candidate.
 *
 * Check 2 needs neither probabilities nor merged mechanisms, so the model
 * holds the candidate's fault table (sim::buildFaultTable), not a DEM. The
 * candidate DEM's mechanisms are exactly the distinct non-empty fault
 * signatures, so the interior errors of the ambiguous detector set are the
 * distinct non-empty signatures whose detector bits lie inside it
 * (observable-only signatures included), and H' and the logical rows are
 * read from those signature bits. The logical error's own CNOT fault
 * locations are looked up by schedule-independent key (check, data qubit,
 * round, Paulis); a key with no fault of non-empty signature is unmapped,
 * and a key naming several such faults resolves to the one whose
 * signature appears last in fault order, i.e. the last DEM mechanism
 * listing it. The verdict equals the DEM-based check on
 * sim::buildDem(candidate circuit); tests/support keeps that check as the
 * oracle.
 *
 * Detector indices are schedule-independent (a detector is a (check, round)
 * pair), so the "original ambiguous syndrome bits" transfer directly to the
 * candidate's fault signatures.
 */
#ifndef PROPHUNT_PROPHUNT_PRUNING_H
#define PROPHUNT_PROPHUNT_PRUNING_H

#include <compare>
#include <cstdint>
#include <optional>
#include <tuple>
#include <vector>

#include "prophunt/changes.h"
#include "prophunt/subgraph.h"
#include "sim/dem.h"
#include "sim/dem_builder.h"
#include "sim/noise_model.h"

namespace prophunt::core {

/** A candidate change that survived pruning. */
struct VerifiedChange
{
    CircuitChange change;
    circuit::SmSchedule schedule;
    std::size_t depth = 0;
};

/** The faults of one CNOT in a candidate's fault table. */
struct CnotFaults
{
    /** Schedule-independent CNOT identity: (check, data qubit, round). */
    std::tuple<std::size_t, std::size_t, std::size_t> key;
    /** The CNOT's faults are [first, end). */
    uint32_t first = 0;
    uint32_t end = 0;

    auto operator<=>(const CnotFaults &) const = default;
};

/** The circuit-level model of one valid candidate change. */
struct CandidateModel
{
    circuit::SmSchedule schedule;
    std::size_t depth = 0;
    sim::FaultTable faults;
    /** One entry per CNOT with faults, sorted. */
    std::vector<CnotFaults> cnots;
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
 * to a candidate fault of non-empty signature.
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
