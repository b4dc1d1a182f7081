#include "sim/dem_builder.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace prophunt::sim {

namespace {

using circuit::Instruction;
using circuit::OpType;
using circuit::SmCircuit;

constexpr bool
hasX(Pauli p)
{
    return p == Pauli::X || p == Pauli::Y;
}

constexpr bool
hasZ(Pauli p)
{
    return p == Pauli::Z || p == Pauli::Y;
}

/**
 * A single-qubit fault site's three faults are X, Y and Z, in that order;
 * bit k of these masks is set iff fault k has an X (Z) component.
 */
constexpr uint64_t kOneQubitX = 0b011;
constexpr uint64_t kOneQubitZ = 0b110;
constexpr Pauli kOneQubitPaulis[] = {Pauli::X, Pauli::Y, Pauli::Z};

/**
 * A CNOT's 15 faults are the non-identity Pauli pairs (pc, pt) in
 * lexicographic order, fault k being pair k + 1 = 4 pc + pt. Bit k of
 * cnotMask(target, z) is set iff fault k has an X (z = false) or Z
 * (z = true) component on the control (target = false) or target qubit.
 */
constexpr uint64_t
cnotMask(bool target, bool z)
{
    uint64_t mask = 0;
    for (int pair = 1; pair < 16; ++pair) {
        const Pauli p = target ? (Pauli)(pair & 3) : (Pauli)(pair >> 2);
        if (z ? hasZ(p) : hasX(p)) {
            mask |= uint64_t{1} << (pair - 1);
        }
    }
    return mask;
}

/** XOR @p mask, shifted so its bit 0 lands on fault @p first, into @p row. */
void
inject(uint64_t *row, std::size_t first, uint64_t mask)
{
    const std::size_t w = first >> 6, s = first & 63;
    row[w] ^= mask << s;
    if (s != 0 && (mask >> (64 - s)) != 0) {
        row[w + 1] ^= mask >> (64 - s);
    }
}

} // namespace

FaultTable
buildFaultTable(const SmCircuit &circuit, const NoiseModel &noise)
{
    const std::size_t num_instr = circuit.instructions.size();
    const std::size_t num_det = circuit.detectors.size();
    const std::size_t num_obs = circuit.observables.size();
    const std::size_t num_targets = num_det + num_obs;
    const bool noisy1 = noise.p1 > 0, noisy2 = noise.p2 > 0;
    const bool idle = noise.pIdle > 0;

    FaultTable table;
    table.numDetectors = num_det;
    table.numObservables = num_obs;
    table.sigWords = (num_targets + 63) / 64;

    // Idle faults: the qubits no CNOT of a layer (a maximal run of CNOTs)
    // touches, injected before the layer's first CNOT. mark_layer(i) marks
    // the busy qubits of the layer starting at i and returns the idle count.
    std::vector<uint8_t> busy;
    auto layer_start = [&](std::size_t i) {
        return circuit.instructions[i].op == OpType::Cnot &&
               (i == 0 || circuit.instructions[i - 1].op != OpType::Cnot);
    };
    auto mark_layer = [&](std::size_t i) {
        busy.assign(circuit.numQubits, 0);
        std::size_t used = 0;
        for (; i < num_instr && circuit.instructions[i].op == OpType::Cnot;
             ++i) {
            for (uint32_t q : circuit.instructions[i].qubits) {
                used += busy[q] ? 0 : 1;
                busy[q] = 1;
            }
        }
        return circuit.numQubits - used;
    };

    // Fault order: the gate faults of each instruction in instruction
    // order, then the idle faults layer by layer. Count both first so the
    // sweep can inject every fault the moment it happens.
    std::size_t gate_faults = 0, idle_faults = 0;
    for (std::size_t i = 0; i < num_instr; ++i) {
        const OpType op = circuit.instructions[i].op;
        if (op == OpType::Cnot) {
            gate_faults += noisy2 ? 15 : 0;
        } else if (op != OpType::Tick) {
            gate_faults += noisy1 ? 3 : 0;
        }
        if (idle && layer_start(i)) {
            idle_faults += 3 * mark_layer(i);
        }
    }
    const std::size_t num_faults = gate_faults + idle_faults;
    const std::size_t words = (num_faults + 63) / 64;
    std::vector<FaultTable::Fault> &faults = table.faults;
    faults.resize(num_faults);
    table.p.resize(num_faults);

    // Measurement -> target incidence in CSR form, where target t < num_det
    // is a detector and num_det + o is observable o.
    const std::size_t num_meas = circuit.numMeasurements;
    std::vector<uint32_t> meas_begin(num_meas + 1, 0);
    auto for_each_incidence = [&](auto &&fn) {
        for (std::size_t d = 0; d < num_det; ++d) {
            for (std::size_t mm : circuit.detectors[d]) {
                fn(mm, d);
            }
        }
        for (std::size_t o = 0; o < num_obs; ++o) {
            for (std::size_t mm : circuit.observables[o]) {
                fn(mm, num_det + o);
            }
        }
    };
    for_each_incidence([&](std::size_t mm, std::size_t) {
        if (mm >= num_meas) {
            throw std::logic_error("buildDem: measurement index out of range");
        }
        ++meas_begin[mm + 1];
    });
    for (std::size_t mm = 0; mm < num_meas; ++mm) {
        meas_begin[mm + 1] += meas_begin[mm];
    }
    std::vector<uint32_t> meas_targets(meas_begin[num_meas]);
    {
        std::vector<uint32_t> fill(meas_begin.begin(), meas_begin.end() - 1);
        for_each_incidence([&](std::size_t mm, std::size_t t) {
            meas_targets[fill[mm]++] = (uint32_t)t;
        });
    }

    // Flat bit planes, `words` words per row: for each qubit, which faults
    // currently have an X (Z) component there; for each target, which
    // faults flip it. They are scratch, kept per thread so that repeated
    // builds (hundreds per optimizer request) reuse warm memory.
    static thread_local std::vector<uint64_t> planes;
    const std::size_t plane_words = circuit.numQubits * words;
    planes.assign(2 * plane_words + num_targets * words, 0);
    uint64_t *const xp = planes.data();
    uint64_t *const zp = xp + plane_words;
    uint64_t *const tp = zp + plane_words;
    auto row = [words](uint64_t *plane, std::size_t r) {
        return plane + r * words;
    };

    // Every plane word at or past `live` is still zero: no fault injected
    // so far has its bit there. Gate faults are injected in index order, so
    // the sweep's word loops stop at `live` and cover about half the planes.
    std::size_t live = 0;
    auto add_1q = [&](std::size_t first, std::size_t instr, uint32_t q,
                      double prob) {
        inject(row(xp, q), first, kOneQubitX);
        inject(row(zp, q), first, kOneQubitZ);
        for (std::size_t k = 0; k < 3; ++k) {
            faults[first + k] = {(uint32_t)instr, kOneQubitPaulis[k],
                                 Pauli::I, false};
            table.p[first + k] = prob;
        }
        live = std::max(live, (first + 3 + 63) >> 6);
    };
    std::size_t next = 0, next_idle = gate_faults, meas_index = 0;
    table.instrBegin.resize(num_instr + 1);
    for (std::size_t i = 0; i < num_instr; ++i) {
        const Instruction &ins = circuit.instructions[i];
        table.instrBegin[i] = (uint32_t)next;
        if (idle && layer_start(i)) {
            mark_layer(i);
            for (uint32_t q = 0; q < circuit.numQubits; ++q) {
                if (!busy[q]) {
                    add_1q(next_idle, i, q, noise.pIdle / 3.0);
                    next_idle += 3;
                }
            }
        }
        switch (ins.op) {
        case OpType::ResetZ:
        case OpType::ResetX: {
            std::fill_n(row(xp, ins.qubits[0]), live, 0);
            std::fill_n(row(zp, ins.qubits[0]), live, 0);
            if (noisy1) {
                add_1q(next, i, ins.qubits[0], noise.p1 / 3.0);
                next += 3;
            }
            break;
        }
        case OpType::Cnot: {
            const uint32_t c = ins.qubits[0], t = ins.qubits[1];
            uint64_t *xc = row(xp, c), *xt = row(xp, t);
            uint64_t *zc = row(zp, c), *zt = row(zp, t);
            for (std::size_t w = 0; w < live; ++w) {
                xt[w] ^= xc[w];
                zc[w] ^= zt[w];
            }
            if (noisy2) {
                inject(xc, next, cnotMask(false, false));
                inject(zc, next, cnotMask(false, true));
                inject(xt, next, cnotMask(true, false));
                inject(zt, next, cnotMask(true, true));
                for (int pair = 1; pair < 16; ++pair) {
                    faults[next + pair - 1] = {(uint32_t)i,
                                               (Pauli)(pair >> 2),
                                               (Pauli)(pair & 3), true};
                    table.p[next + pair - 1] = noise.p2 / 15.0;
                }
                next += 15;
                live = std::max(live, (next + 63) >> 6);
            }
            break;
        }
        case OpType::MeasureZ:
        case OpType::MeasureX: {
            // Measurement faults strike just before the measurement.
            const uint32_t q = ins.qubits[0];
            if (noisy1) {
                add_1q(next, i, q, noise.p1 / 3.0);
                next += 3;
            }
            if (meas_index >= num_meas) {
                throw std::logic_error("buildDem: measurement count mismatch");
            }
            const uint64_t *plane =
                row(ins.op == OpType::MeasureZ ? xp : zp, q);
            for (uint32_t k = meas_begin[meas_index];
                 k < meas_begin[meas_index + 1]; ++k) {
                uint64_t *target = row(tp, meas_targets[k]);
                for (std::size_t w = 0; w < live; ++w) {
                    target[w] ^= plane[w];
                }
            }
            ++meas_index;
            break;
        }
        case OpType::Tick:
            break;
        }
    }
    table.instrBegin[num_instr] = (uint32_t)next;
    if (meas_index != num_meas) {
        throw std::logic_error("buildDem: measurement count mismatch");
    }

    // Transpose the target planes into per-fault signatures: bit t of
    // fault f's signature is set iff f flips target t.
    const std::size_t sig_words = table.sigWords;
    table.sigs.assign(num_faults * sig_words, 0);
    for (std::size_t t = 0; t < num_targets; ++t) {
        const uint64_t *plane = row(tp, t);
        const uint64_t bit = uint64_t{1} << (t & 63);
        for (std::size_t w = 0; w < words; ++w) {
            for (uint64_t bits = plane[w]; bits != 0; bits &= bits - 1) {
                std::size_t f = (w << 6) + (std::size_t)std::countr_zero(bits);
                table.sigs[f * sig_words + (t >> 6)] |= bit;
            }
        }
    }
    return table;
}

uint64_t
FaultTable::signatureHash(std::size_t f) const
{
    const uint64_t *sig = signature(f);
    uint64_t h = 0;
    for (std::size_t k = 0; k < sigWords; ++k) {
        h = (h ^ sig[k]) * 0x9e3779b97f4a7c15ULL;
        h ^= h >> 29;
    }
    return h;
}

FaultLoc
FaultTable::location(std::size_t f, const SmCircuit &circuit) const
{
    FaultLoc loc;
    loc.instr = faults[f].instr;
    loc.p0 = faults[f].p0;
    loc.p1 = faults[f].p1;
    loc.isCnot = faults[f].isCnot;
    if (loc.isCnot) {
        loc.cnot = circuit.cnotInfo[loc.instr];
    }
    return loc;
}

Dem
mergeFaultTable(const FaultTable &table, const SmCircuit &circuit)
{
    // Merge identical signatures in fault order, so mechanisms, their
    // XOR-combined p and their sources come out in first-fault order.
    // Pass 1 assigns each fault its mechanism through open addressing
    // keyed on the signature words; pass 2 fills the mechanisms with
    // exact reservations.
    const std::size_t num_faults = table.faults.size();
    const std::size_t sig_words = table.sigWords;
    const std::size_t num_det = table.numDetectors;
    constexpr uint32_t kNone = ~uint32_t{0};
    const std::size_t mask =
        std::bit_ceil(std::max<std::size_t>(16, 2 * num_faults)) - 1;
    std::vector<uint32_t> slots(mask + 1, kNone);
    std::vector<uint32_t> mech_of(num_faults, kNone);
    std::vector<uint32_t> first_fault, source_count;
    for (std::size_t f = 0; f < num_faults; ++f) {
        const uint64_t *sig = table.signature(f);
        if (std::all_of(sig, sig + sig_words,
                        [](uint64_t w) { return w == 0; })) {
            continue;
        }
        std::size_t s = table.signatureHash(f) & mask;
        while (slots[s] != kNone &&
               !std::equal(sig, sig + sig_words,
                           table.signature(first_fault[slots[s]]))) {
            s = (s + 1) & mask;
        }
        if (slots[s] == kNone) {
            slots[s] = (uint32_t)first_fault.size();
            first_fault.push_back((uint32_t)f);
            source_count.push_back(0);
        }
        mech_of[f] = slots[s];
        ++source_count[slots[s]];
    }

    Dem dem;
    dem.numDetectors = num_det;
    dem.numObservables = table.numObservables;
    dem.errors.resize(first_fault.size());
    const std::size_t det_words = num_det / 64;
    const uint64_t det_tail = (uint64_t{1} << (num_det & 63)) - 1;
    for (std::size_t m = 0; m < first_fault.size(); ++m) {
        ErrorMechanism &mech = dem.errors[m];
        const uint64_t *sig = table.signature(first_fault[m]);
        std::size_t dets = 0, bits_total = 0;
        for (std::size_t k = 0; k < sig_words; ++k) {
            bits_total += (std::size_t)std::popcount(sig[k]);
            if (k < det_words) {
                dets += (std::size_t)std::popcount(sig[k]);
            } else if (k == det_words) {
                dets += (std::size_t)std::popcount(sig[k] & det_tail);
            }
        }
        mech.detectors.reserve(dets);
        mech.observables.reserve(bits_total - dets);
        for (std::size_t k = 0; k < sig_words; ++k) {
            for (uint64_t bits = sig[k]; bits != 0; bits &= bits - 1) {
                std::size_t t = (k << 6) + (std::size_t)std::countr_zero(bits);
                if (t < num_det) {
                    mech.detectors.push_back((uint32_t)t);
                } else {
                    mech.observables.push_back((uint32_t)(t - num_det));
                }
            }
        }
        mech.p = table.p[first_fault[m]];
        mech.sources.reserve(source_count[m]);
    }
    for (std::size_t f = 0; f < num_faults; ++f) {
        if (mech_of[f] == kNone) {
            continue;
        }
        ErrorMechanism &mech = dem.errors[mech_of[f]];
        if (!mech.sources.empty()) {
            mech.p = mech.p + table.p[f] - 2.0 * mech.p * table.p[f];
        }
        mech.sources.push_back(table.location(f, circuit));
    }
    return dem;
}

Dem
buildDem(const SmCircuit &circuit, const NoiseModel &noise)
{
    return mergeFaultTable(buildFaultTable(circuit, noise), circuit);
}

} // namespace prophunt::sim
