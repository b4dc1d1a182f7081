/**
 * @file
 * Reference DEM builder: the test oracle for sim::buildDem.
 *
 * This is the builder the repository used before detector-plane
 * accumulation. One sweep carries per-qubit X/Z fault planes and appends,
 * at every measurement, the measurement index to the list of each fault
 * that flips it. Afterwards each fault's measurement list becomes its
 * detector and observable sets (odd multiplicities survive), and
 * identical signatures merge through a std::map in fault order.
 * sim::buildDem must reproduce referenceBuildDem() field for field:
 * mechanism order, bitwise p, detectors, observables and source order.
 */
#ifndef PROPHUNT_TESTS_SUPPORT_DEM_BUILDER_REFERENCE_H
#define PROPHUNT_TESTS_SUPPORT_DEM_BUILDER_REFERENCE_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "circuit/sm_circuit.h"
#include "sim/dem.h"
#include "sim/noise_model.h"

namespace prophunt::testsupport {

using circuit::Instruction;
using circuit::OpType;
using circuit::SmCircuit;
using sim::Dem;
using sim::ErrorMechanism;
using sim::FaultLoc;
using sim::NoiseModel;
using sim::Pauli;

namespace dem_reference_detail {

/** A fault component to inject into the bit planes at a sweep position. */
struct Activation
{
    uint32_t fault;
    uint32_t qubit;
    bool x; ///< Fault has an X component on this qubit.
    bool z; ///< Fault has a Z component on this qubit.
};

inline bool
hasX(Pauli p)
{
    return p == Pauli::X || p == Pauli::Y;
}

inline bool
hasZ(Pauli p)
{
    return p == Pauli::Z || p == Pauli::Y;
}

/** All 15 non-identity two-qubit Pauli pairs. */
inline std::vector<std::pair<Pauli, Pauli>>
twoQubitPaulis()
{
    std::vector<std::pair<Pauli, Pauli>> out;
    for (int a = 0; a < 4; ++a) {
        for (int b = 0; b < 4; ++b) {
            if (a == 0 && b == 0) {
                continue;
            }
            out.push_back({(Pauli)a, (Pauli)b});
        }
    }
    return out;
}

} // namespace dem_reference_detail

inline Dem
referenceBuildDem(const SmCircuit &circuit, const NoiseModel &noise)
{
    using namespace dem_reference_detail;

    std::size_t num_instr = circuit.instructions.size();
    std::vector<FaultLoc> faults;
    std::vector<double> fault_p;
    std::vector<std::vector<Activation>> before(num_instr), after(num_instr);

    auto add_1q = [&](std::size_t instr, uint32_t q, Pauli p, double prob,
                      bool before_instr) {
        uint32_t f = (uint32_t)faults.size();
        FaultLoc loc;
        loc.instr = instr;
        loc.p0 = p;
        faults.push_back(loc);
        fault_p.push_back(prob);
        Activation act{f, q, hasX(p), hasZ(p)};
        (before_instr ? before : after)[instr].push_back(act);
    };

    // Enumerate fault locations.
    const auto two_q = twoQubitPaulis();
    for (std::size_t i = 0; i < num_instr; ++i) {
        const Instruction &ins = circuit.instructions[i];
        switch (ins.op) {
        case OpType::ResetZ:
        case OpType::ResetX:
            if (noise.p1 > 0) {
                for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
                    add_1q(i, ins.qubits[0], p, noise.p1 / 3.0, false);
                }
            }
            break;
        case OpType::MeasureZ:
        case OpType::MeasureX:
            if (noise.p1 > 0) {
                for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
                    add_1q(i, ins.qubits[0], p, noise.p1 / 3.0, true);
                }
            }
            break;
        case OpType::Cnot:
            if (noise.p2 > 0) {
                for (const auto &[pc, pt] : two_q) {
                    uint32_t f = (uint32_t)faults.size();
                    FaultLoc loc;
                    loc.instr = i;
                    loc.p0 = pc;
                    loc.p1 = pt;
                    loc.isCnot = true;
                    loc.cnot = circuit.cnotInfo[i];
                    faults.push_back(loc);
                    fault_p.push_back(noise.p2 / 15.0);
                    if (hasX(pc) || hasZ(pc)) {
                        after[i].push_back(
                            {f, ins.qubits[0], hasX(pc), hasZ(pc)});
                    }
                    if (hasX(pt) || hasZ(pt)) {
                        after[i].push_back(
                            {f, ins.qubits[1], hasX(pt), hasZ(pt)});
                    }
                }
            }
            break;
        case OpType::Tick:
            break;
        }
    }

    // Idle faults: qubits unused during each CNOT layer.
    if (noise.pIdle > 0) {
        std::size_t i = 0;
        while (i < num_instr) {
            if (circuit.instructions[i].op != OpType::Cnot) {
                ++i;
                continue;
            }
            std::size_t layer_start = i;
            std::vector<bool> busy(circuit.numQubits, false);
            while (i < num_instr &&
                   circuit.instructions[i].op == OpType::Cnot) {
                busy[circuit.instructions[i].qubits[0]] = true;
                busy[circuit.instructions[i].qubits[1]] = true;
                ++i;
            }
            for (uint32_t q = 0; q < circuit.numQubits; ++q) {
                if (!busy[q]) {
                    for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
                        add_1q(layer_start, q, p, noise.pIdle / 3.0, true);
                    }
                }
            }
        }
    }

    std::size_t num_faults = faults.size();
    std::size_t words = (num_faults + 63) / 64;

    // Bit planes: for each qubit, which faults currently have an X (Z)
    // component there.
    std::vector<std::vector<uint64_t>> xp(circuit.numQubits,
                                          std::vector<uint64_t>(words, 0));
    std::vector<std::vector<uint64_t>> zp = xp;

    // Measurement flips per fault.
    std::vector<std::vector<uint32_t>> fault_meas(num_faults);

    std::size_t meas_index = 0;
    auto scan_plane = [&](const std::vector<uint64_t> &plane,
                          std::size_t meas) {
        for (std::size_t w = 0; w < words; ++w) {
            uint64_t bits = plane[w];
            while (bits) {
                uint32_t f = (uint32_t)((w << 6) + std::countr_zero(bits));
                bits &= bits - 1;
                fault_meas[f].push_back((uint32_t)meas);
            }
        }
    };
    auto activate = [&](const Activation &a) {
        if (a.x) {
            xp[a.qubit][a.fault >> 6] ^= uint64_t{1} << (a.fault & 63);
        }
        if (a.z) {
            zp[a.qubit][a.fault >> 6] ^= uint64_t{1} << (a.fault & 63);
        }
    };

    for (std::size_t i = 0; i < num_instr; ++i) {
        for (const Activation &a : before[i]) {
            activate(a);
        }
        const Instruction &ins = circuit.instructions[i];
        switch (ins.op) {
        case OpType::ResetZ:
        case OpType::ResetX: {
            uint32_t q = ins.qubits[0];
            std::fill(xp[q].begin(), xp[q].end(), 0);
            std::fill(zp[q].begin(), zp[q].end(), 0);
            break;
        }
        case OpType::Cnot: {
            uint32_t c = ins.qubits[0], t = ins.qubits[1];
            for (std::size_t w = 0; w < words; ++w) {
                xp[t][w] ^= xp[c][w];
                zp[c][w] ^= zp[t][w];
            }
            break;
        }
        case OpType::MeasureZ:
            scan_plane(xp[ins.qubits[0]], meas_index++);
            break;
        case OpType::MeasureX:
            scan_plane(zp[ins.qubits[0]], meas_index++);
            break;
        case OpType::Tick:
            break;
        }
        for (const Activation &a : after[i]) {
            activate(a);
        }
    }
    if (meas_index != circuit.numMeasurements) {
        throw std::logic_error("buildDem: measurement count mismatch");
    }

    // Measurement -> detector / observable incidence.
    std::vector<std::vector<uint32_t>> meas_det(circuit.numMeasurements);
    for (std::size_t d = 0; d < circuit.detectors.size(); ++d) {
        for (std::size_t mm : circuit.detectors[d]) {
            meas_det[mm].push_back((uint32_t)d);
        }
    }
    std::vector<std::vector<uint32_t>> meas_obs(circuit.numMeasurements);
    for (std::size_t o = 0; o < circuit.observables.size(); ++o) {
        for (std::size_t mm : circuit.observables[o]) {
            meas_obs[mm].push_back((uint32_t)o);
        }
    }

    // Convert measurement flips to detector/observable signatures and merge
    // identical signatures.
    using Signature = std::pair<std::vector<uint32_t>, std::vector<uint32_t>>;
    std::map<Signature, std::size_t> index;
    Dem dem;
    dem.numDetectors = circuit.detectors.size();
    dem.numObservables = circuit.observables.size();

    auto odd_elements = [](std::vector<uint32_t> v) {
        std::sort(v.begin(), v.end());
        std::vector<uint32_t> out;
        for (std::size_t i = 0; i < v.size();) {
            std::size_t j = i;
            while (j < v.size() && v[j] == v[i]) {
                ++j;
            }
            if ((j - i) % 2 == 1) {
                out.push_back(v[i]);
            }
            i = j;
        }
        return out;
    };

    for (std::size_t f = 0; f < num_faults; ++f) {
        std::vector<uint32_t> dets, obs;
        for (uint32_t mm : fault_meas[f]) {
            for (uint32_t d : meas_det[mm]) {
                dets.push_back(d);
            }
            for (uint32_t o : meas_obs[mm]) {
                obs.push_back(o);
            }
        }
        dets = odd_elements(std::move(dets));
        obs = odd_elements(std::move(obs));
        if (dets.empty() && obs.empty()) {
            continue;
        }
        Signature sig{dets, obs};
        auto it = index.find(sig);
        if (it == index.end()) {
            ErrorMechanism mech;
            mech.p = fault_p[f];
            mech.detectors = std::move(sig.first);
            mech.observables = std::move(sig.second);
            mech.sources.push_back(faults[f]);
            index.emplace(Signature{mech.detectors, mech.observables},
                          dem.errors.size());
            dem.errors.push_back(std::move(mech));
        } else {
            ErrorMechanism &mech = dem.errors[it->second];
            mech.p = mech.p + fault_p[f] - 2.0 * mech.p * fault_p[f];
            mech.sources.push_back(faults[f]);
        }
    }
    return dem;
}

} // namespace prophunt::testsupport

#endif // PROPHUNT_TESTS_SUPPORT_DEM_BUILDER_REFERENCE_H
