/**
 * @file
 * DEM extraction: deterministic Pauli-fault propagation through a circuit.
 *
 * Every possible fault location is propagated through the remainder of the
 * circuit using the CNOT rules of the paper's Figure 3b to determine which
 * detectors and observables it flips. Faults with identical
 * detector/observable signatures are merged with the usual independent-XOR
 * probability combination p = p_a + p_b - 2 p_a p_b.
 *
 * The propagation is batched: instead of walking the circuit once per
 * fault, we sweep the circuit once, carrying per-qubit bit planes indexed
 * by fault (X plane and Z plane). A CNOT is then two word-wise XORs per
 * plane word. Detectors and observables get fault planes of their own: at
 * each measurement, the measured qubit's plane is XORed into the plane of
 * every detector and observable that includes the measurement. The target
 * planes are then transposed into one signature of ceil((D + O) / 64)
 * words per fault, and identical signatures merge through a hash table
 * keyed on those words. Faults are visited in enumeration order, so the
 * mechanism order, each mechanism's p (combined in fault order) and its
 * source order depend only on the circuit and the noise model.
 */
#ifndef PROPHUNT_SIM_DEM_BUILDER_H
#define PROPHUNT_SIM_DEM_BUILDER_H

#include "circuit/sm_circuit.h"
#include "sim/dem.h"
#include "sim/noise_model.h"

namespace prophunt::sim {

/** Extract the detector error model of @p circuit under @p noise. */
Dem buildDem(const circuit::SmCircuit &circuit, const NoiseModel &noise);

} // namespace prophunt::sim

#endif // PROPHUNT_SIM_DEM_BUILDER_H
