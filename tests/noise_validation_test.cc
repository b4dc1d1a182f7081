/**
 * @file
 * Deep end-to-end noise validation.
 *
 * 1. Linearity: the detector/observable flips of two simultaneous faults
 *    equal the XOR of their individual DEM signatures (the core premise
 *    of the whole circuit-level model).
 * 2. Statistics: Monte-Carlo sampling of the *actual noisy circuit* on
 *    the tableau simulator must reproduce the per-detector flip rates of
 *    the DEM sampler — the DEM is a faithful compression of the noisy
 *    circuit, not just an abstraction.
 * 3. Admission: a DEM whose mechanism probability is NaN or outside
 *    [0, 1) is rejected by the samplers, the decode service and the
 *    BP+OSD decoder's construction, with the offending mechanism named,
 *    before any shot is drawn or decoded.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "api/decode_service.h"
#include "circuit/coloration.h"
#include "circuit/surface_schedules.h"
#include "code/surface.h"
#include "decoder/bp_osd.h"
#include "decoder/registry.h"
#include "sim/dem_builder.h"
#include "sim/frame_sampler.h"
#include "sim/parallel_sampler.h"
#include "sim/sampler.h"
#include "sim/tableau.h"

using namespace prophunt;
using namespace prophunt::sim;

namespace {

/** Tableau run with an arbitrary list of injected faults. */
std::vector<uint8_t>
runWithFaults(const circuit::SmCircuit &circ, Rng &rng,
              const std::vector<FaultLoc> &faults)
{
    Tableau tab(circ.numQubits);
    std::vector<uint8_t> meas;
    meas.reserve(circ.numMeasurements);
    auto apply_pauli = [&](Pauli p, std::size_t q) {
        switch (p) {
        case Pauli::I:
            break;
        case Pauli::X:
            tab.applyX(q);
            break;
        case Pauli::Y:
            tab.applyY(q);
            break;
        case Pauli::Z:
            tab.applyZ(q);
            break;
        }
    };
    for (std::size_t i = 0; i < circ.instructions.size(); ++i) {
        const auto &ins = circ.instructions[i];
        bool before = ins.op == circuit::OpType::MeasureZ ||
                      ins.op == circuit::OpType::MeasureX;
        if (before) {
            for (const FaultLoc &f : faults) {
                if (f.instr == i) {
                    apply_pauli(f.p0, ins.qubits[0]);
                }
            }
        }
        switch (ins.op) {
        case circuit::OpType::ResetZ:
            tab.resetZ(ins.qubits[0], rng);
            break;
        case circuit::OpType::ResetX:
            tab.resetX(ins.qubits[0], rng);
            break;
        case circuit::OpType::Cnot:
            tab.applyCnot(ins.qubits[0], ins.qubits[1]);
            break;
        case circuit::OpType::MeasureZ:
            meas.push_back(tab.measureZ(ins.qubits[0], rng));
            break;
        case circuit::OpType::MeasureX:
            meas.push_back(tab.measureX(ins.qubits[0], rng));
            break;
        case circuit::OpType::Tick:
            break;
        }
        if (!before) {
            for (const FaultLoc &f : faults) {
                if (f.instr == i) {
                    apply_pauli(f.p0, ins.qubits[0]);
                    if (ins.qubits.size() > 1) {
                        apply_pauli(f.p1, ins.qubits[1]);
                    }
                }
            }
        }
    }
    return meas;
}

/** Two single-detector mechanisms with probabilities @p p0 and @p p1. */
Dem
twoMechanismDem(double p0, double p1)
{
    Dem dem;
    dem.numDetectors = 2;
    dem.numObservables = 1;
    for (uint32_t d : {0u, 1u}) {
        ErrorMechanism mech;
        mech.p = d == 0 ? p0 : p1;
        mech.detectors = {d};
        mech.observables = {0};
        dem.errors.push_back(mech);
    }
    return dem;
}

/** The std::invalid_argument message of @p fn, or "" if it does not
 * throw one. */
template <typename Fn>
std::string
invalidArgumentOf(Fn fn)
{
    try {
        fn();
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(NoiseValidation, TwoFaultFlipsAreXorOfSingles)
{
    code::SurfaceCode s(3);
    auto circ = circuit::buildMemoryCircuit(circuit::nzSchedule(s), 2,
                                            circuit::MemoryBasis::Z);
    Dem dem = buildDem(circ, NoiseModel::uniform(1e-3));

    // Signature lookup per fault location.
    std::map<std::tuple<std::size_t, int, int>,
             std::pair<std::vector<uint32_t>, std::vector<uint32_t>>>
        sig;
    for (const auto &mech : dem.errors) {
        for (const FaultLoc &loc : mech.sources) {
            sig[{loc.instr, (int)loc.p0, (int)loc.p1}] = {
                mech.detectors, mech.observables};
        }
    }
    std::vector<FaultLoc> locs;
    for (const auto &mech : dem.errors) {
        locs.push_back(mech.sources.front());
    }

    uint64_t seed = 5;
    Rng ref_rng(seed);
    auto ref = runTableau(circ, ref_rng);
    auto ref_det = detectorValues(circ, ref);

    Rng pick(77);
    for (int trial = 0; trial < 40; ++trial) {
        const FaultLoc &a = locs[pick.below(locs.size())];
        const FaultLoc &b = locs[pick.below(locs.size())];
        if (a.instr == b.instr) {
            continue; // same-site faults compose as Pauli products
        }
        Rng rng(seed);
        auto meas = runWithFaults(circ, rng, {a, b});
        auto det = detectorValues(circ, meas);
        // Expected: XOR of the two single-fault signatures.
        std::vector<uint8_t> expected = ref_det;
        for (const FaultLoc *f : {&a, &b}) {
            const auto &fs =
                sig.at({f->instr, (int)f->p0, (int)f->p1}).first;
            for (uint32_t d : fs) {
                expected[d] ^= 1;
            }
        }
        ASSERT_EQ(det, expected)
            << "faults at instr " << a.instr << " and " << b.instr;
    }
}

TEST(NoiseValidation, NoisyTableauMatchesDemSamplerStatistics)
{
    // Sample the *circuit* with explicit per-gate Pauli noise on the
    // tableau simulator and compare aggregate detector statistics with
    // the DEM sampler at the same physical rate.
    code::SurfaceCode s(3);
    auto circ = circuit::buildMemoryCircuit(circuit::nzSchedule(s), 2,
                                            circuit::MemoryBasis::Z);
    double p = 2e-2; // high rate for statistical power at modest shots
    Dem dem = buildDem(circ, NoiseModel::uniform(p));

    std::size_t shots = 3000;
    Rng noise_rng(11);
    double circ_flips = 0, circ_obs = 0;
    for (std::size_t shot = 0; shot < shots; ++shot) {
        // Draw the noisy realization: one fault list for this shot.
        std::vector<FaultLoc> faults;
        for (std::size_t i = 0; i < circ.instructions.size(); ++i) {
            const auto &ins = circ.instructions[i];
            switch (ins.op) {
            case circuit::OpType::ResetZ:
            case circuit::OpType::ResetX:
            case circuit::OpType::MeasureZ:
            case circuit::OpType::MeasureX:
                if (noise_rng.uniform() < p) {
                    FaultLoc f;
                    f.instr = i;
                    f.p0 = (Pauli)(1 + noise_rng.below(3));
                    faults.push_back(f);
                }
                break;
            case circuit::OpType::Cnot:
                if (noise_rng.uniform() < p) {
                    FaultLoc f;
                    f.instr = i;
                    std::size_t idx = 1 + noise_rng.below(15);
                    f.p0 = (Pauli)(idx / 4);
                    f.p1 = (Pauli)(idx % 4);
                    faults.push_back(f);
                }
                break;
            case circuit::OpType::Tick:
                break;
            }
        }
        Rng run_rng(shot * 31 + 7);
        auto meas = runWithFaults(circ, run_rng, faults);
        for (uint8_t d : detectorValues(circ, meas)) {
            circ_flips += d;
        }
        for (uint8_t o : observableValues(circ, meas)) {
            circ_obs += o;
        }
    }
    circ_flips /= shots;
    circ_obs /= shots;

    SampleBatch batch = sampleDem(dem, shots * 4, 13);
    double dem_flips = 0, dem_obs = 0;
    for (std::size_t shot = 0; shot < batch.shots; ++shot) {
        dem_flips += batch.flippedDetectors(shot).size();
        dem_obs += std::popcount(batch.obsMask(shot));
    }
    dem_flips /= batch.shots;
    dem_obs /= batch.shots;

    EXPECT_NEAR(circ_flips, dem_flips, 0.08 * dem_flips + 0.05);
    EXPECT_NEAR(circ_obs, dem_obs, 0.25 * std::max(dem_obs, 0.05));
}

TEST(NoiseValidation, RejectsProbabilitiesOutsideUnitInterval)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    // (p0, p1, index of the first bad mechanism): NaN, negative, and the
    // p = 1 boundary are all rejected, naming the mechanism.
    struct Case
    {
        double p0, p1;
        const char *bad;
    };
    for (const Case &c : {Case{nan, -0.2, "mechanism 0"},
                          Case{1e-3, -0.2, "mechanism 1"},
                          Case{1.0, 1e-3, "mechanism 0"},
                          Case{1e-3, nan, "mechanism 1"}}) {
        Dem dem = twoMechanismDem(c.p0, c.p1);
        SCOPED_TRACE(std::to_string(c.p0) + ", " + std::to_string(c.p1));

        std::string msg = invalidArgumentOf(
            [&] { validateDemProbabilities(dem, "test"); });
        EXPECT_NE(msg.find(c.bad), std::string::npos) << msg;

        msg = invalidArgumentOf([&] { sampleDemFrames(dem, 256, 3); });
        EXPECT_NE(msg.find("sampleDemFrames"), std::string::npos) << msg;
        EXPECT_NE(msg.find(c.bad), std::string::npos) << msg;

        msg = invalidArgumentOf([&] { sampleDem(dem, 256, 3); });
        EXPECT_NE(msg.find(c.bad), std::string::npos) << msg;

        // The service rejects the job in the caller, before any shard
        // reaches a pool thread.
        Dem good = twoMechanismDem(1e-3, 1e-3);
        auto proto = std::make_shared<decoder::BpOsdDecoder>(good);
        api::DecodeService service;
        api::DecodeJob job;
        job.key = "bad-p";
        job.dem = &dem;
        job.prototype = proto.get();
        job.keepAlive = proto;
        job.shots = 256;
        msg = invalidArgumentOf([&] { service.measure(job); });
        EXPECT_NE(msg.find("DecodeService::measure"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find(c.bad), std::string::npos) << msg;

        // BP+OSD priors are log((1 - p) / p): the decoder refuses the DEM
        // instead of building a NaN or clamped prior.
        msg = invalidArgumentOf([&] { decoder::BpOsdDecoder dec(dem); });
        EXPECT_NE(msg.find("BpOsdDecoder"), std::string::npos) << msg;
        EXPECT_NE(msg.find(c.bad), std::string::npos) << msg;
        msg = invalidArgumentOf([&] {
            decoder::Registry::make({"bp_osd"}, dem, circuit::SmCircuit{});
        });
        EXPECT_NE(msg.find("BpOsdDecoder"), std::string::npos) << msg;
        EXPECT_NE(msg.find(c.bad), std::string::npos) << msg;
    }

    // The closed lower end stays valid: p = 0 never fires, and the
    // decoder builds a finite prior for it.
    Dem zero = twoMechanismDem(0.0, 0.0);
    FrameBatch frames = sampleDemFrames(zero, 256, 3);
    for (uint64_t w : frames.det) {
        EXPECT_EQ(w, 0u);
    }
    decoder::BpOsdDecoder dec(zero);
    EXPECT_EQ(dec.decode({0}), 1u); // only mechanism 0 explains it
    EXPECT_NO_THROW(
        decoder::Registry::make({"bp_osd"}, zero, circuit::SmCircuit{}));
}
