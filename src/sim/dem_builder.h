/**
 * @file
 * DEM extraction: deterministic Pauli-fault propagation through a circuit.
 *
 * Extraction runs in two steps. buildFaultTable() enumerates every fault
 * location and propagates it through the remainder of the circuit using
 * the CNOT rules of the paper's Figure 3b, giving each fault one packed
 * signature of the detectors and observables it flips. mergeFaultTable()
 * then merges faults with identical signatures into the mechanisms of a
 * Dem, with the usual independent-XOR probability combination
 * p = p_a + p_b - 2 p_a p_b. buildDem() is the two steps in a row.
 * Callers that only ask which detectors and observables a fault flips
 * (candidate verification) stop after the first step and never build
 * mechanisms.
 *
 * The propagation is batched: instead of walking the circuit once per
 * fault, we sweep the circuit once, carrying flat per-qubit bit planes
 * indexed by fault (X plane and Z plane). Each fault is XORed into the
 * planes at its own sweep position: the 3 faults of a single-qubit site
 * and the 15 of a CNOT take consecutive indices, so a site enters as one
 * constant mask per plane row. A CNOT is two word-wise XORs per plane
 * word. Detectors and observables get fault planes of their own: at each
 * measurement, the measured qubit's plane is XORed into the plane of every
 * detector and observable that includes the measurement. The target
 * planes are then transposed into one signature of ceil((D + O) / 64)
 * words per fault. The merge visits faults in enumeration order through a
 * hash table keyed on the signature words, so the mechanism order (first
 * appearance of each signature), each mechanism's p (combined in fault
 * order) and its source order depend only on the circuit and the noise
 * model.
 */
#ifndef PROPHUNT_SIM_DEM_BUILDER_H
#define PROPHUNT_SIM_DEM_BUILDER_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/sm_circuit.h"
#include "sim/dem.h"
#include "sim/noise_model.h"

namespace prophunt::sim {

/** Every fault of a circuit with the detectors and observables it flips. */
struct FaultTable
{
    /** A fault location; location() expands it to a FaultLoc. */
    struct Fault
    {
        uint32_t instr = 0;
        Pauli p0 = Pauli::I;
        Pauli p1 = Pauli::I;
        bool isCnot = false;
    };

    std::size_t numDetectors = 0;
    std::size_t numObservables = 0;
    /** Words per signature: ceil((numDetectors + numObservables) / 64). */
    std::size_t sigWords = 0;
    /**
     * Fault locations in enumeration order: the gate faults of each
     * instruction in instruction order, then the idle faults.
     */
    std::vector<Fault> faults;
    /**
     * Gate faults by instruction: those of instruction i are
     * [instrBegin[i], instrBegin[i + 1]).
     */
    std::vector<uint32_t> instrBegin;
    /** Probability of each fault. */
    std::vector<double> p;
    /**
     * Fault-major signatures, sigWords words per fault. Bit t of fault
     * f's signature is set iff f flips detector t (t < numDetectors) or
     * observable t - numDetectors. An all-zero signature means the fault
     * is invisible: it belongs to no mechanism.
     */
    std::vector<uint64_t> sigs;

    const uint64_t *signature(std::size_t f) const
    {
        return sigs.data() + f * sigWords;
    }

    /** Hash of fault @p f's signature words. */
    uint64_t signatureHash(std::size_t f) const;

    /** Fault @p f with the provenance of @p circuit, the table's source. */
    FaultLoc location(std::size_t f,
                      const circuit::SmCircuit &circuit) const;
};

/** Enumerate and propagate every fault of @p circuit under @p noise. */
FaultTable buildFaultTable(const circuit::SmCircuit &circuit,
                           const NoiseModel &noise);

/**
 * Merge the faults of @p table with identical signatures into a Dem.
 * @p circuit is the circuit the table was built from; it supplies the
 * CNOT provenance of the mechanisms' sources.
 */
Dem mergeFaultTable(const FaultTable &table,
                    const circuit::SmCircuit &circuit);

/** Extract the detector error model of @p circuit under @p noise. */
Dem buildDem(const circuit::SmCircuit &circuit, const NoiseModel &noise);

} // namespace prophunt::sim

#endif // PROPHUNT_SIM_DEM_BUILDER_H
