/**
 * @file
 * sim::buildDem against the reference builder in
 * tests/support/dem_builder_reference.h: every mechanism must match field
 * for field (bitwise p, detectors, observables, and sources in order) on
 * surface, LDPC and flagged circuits under several noise models. And
 * sim::buildFaultTable against the DEM merged from it: every fault with a
 * non-empty signature is a source of exactly one mechanism, which flips
 * exactly the fault's detectors and observables, and no fault with an
 * empty signature is a source at all.
 */
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "circuit/coloration.h"
#include "circuit/flags.h"
#include "circuit/surface_schedules.h"
#include "code/codes.h"
#include "code/surface.h"
#include "sim/dem_builder.h"
#include "support/dem_builder_reference.h"

using namespace prophunt;
using circuit::MemoryBasis;
using circuit::SmCircuit;
using sim::NoiseModel;

namespace {

void
expectSameFault(const sim::FaultLoc &a, const sim::FaultLoc &b,
                const std::string &where)
{
    EXPECT_EQ(a.instr, b.instr) << where;
    EXPECT_EQ(a.p0, b.p0) << where;
    EXPECT_EQ(a.p1, b.p1) << where;
    EXPECT_EQ(a.isCnot, b.isCnot) << where;
    EXPECT_EQ(a.cnot.check, b.cnot.check) << where;
    EXPECT_EQ(a.cnot.dataQubit, b.cnot.dataQubit) << where;
    EXPECT_EQ(a.cnot.posInCheck, b.cnot.posInCheck) << where;
    EXPECT_EQ(a.cnot.round, b.cnot.round) << where;
    EXPECT_EQ(a.cnot.flag, b.cnot.flag) << where;
}

/** buildDem(circ, noise) equals the reference field for field. */
void
expectMatchesReference(const SmCircuit &circ, const NoiseModel &noise)
{
    sim::Dem got = sim::buildDem(circ, noise);
    sim::Dem want = testsupport::referenceBuildDem(circ, noise);
    ASSERT_EQ(got.numDetectors, want.numDetectors);
    ASSERT_EQ(got.numObservables, want.numObservables);
    ASSERT_EQ(got.errors.size(), want.errors.size());
    ASSERT_FALSE(want.errors.empty());
    for (std::size_t e = 0; e < want.errors.size(); ++e) {
        const sim::ErrorMechanism &g = got.errors[e];
        const sim::ErrorMechanism &w = want.errors[e];
        const std::string where = "mechanism " + std::to_string(e);
        ASSERT_EQ(std::bit_cast<uint64_t>(g.p), std::bit_cast<uint64_t>(w.p))
            << where;
        ASSERT_EQ(g.detectors, w.detectors) << where;
        ASSERT_EQ(g.observables, w.observables) << where;
        ASSERT_EQ(g.sources.size(), w.sources.size()) << where;
        for (std::size_t s = 0; s < w.sources.size(); ++s) {
            expectSameFault(g.sources[s], w.sources[s],
                            where + " source " + std::to_string(s));
        }
    }
}

/** The detectors and observables a fault-table signature flips. */
std::pair<std::vector<uint32_t>, std::vector<uint32_t>>
decodeSignature(const sim::FaultTable &table, std::size_t f)
{
    std::pair<std::vector<uint32_t>, std::vector<uint32_t>> out;
    const uint64_t *sig = table.signature(f);
    for (std::size_t t = 0; t < table.numDetectors + table.numObservables;
         ++t) {
        if ((sig[t >> 6] >> (t & 63)) & 1) {
            if (t < table.numDetectors) {
                out.first.push_back((uint32_t)t);
            } else {
                out.second.push_back((uint32_t)(t - table.numDetectors));
            }
        }
    }
    return out;
}

/**
 * Every fault of buildFaultTable(circ, noise) with a non-empty signature
 * is a source of exactly one mechanism of buildDem(circ, noise), with the
 * fault's detectors and observables; faults with an empty signature are
 * sources of none. Gate faults are told apart by (instr, p0, p1), so
 * @p noise must have no idle term.
 */
void
expectTableMatchesMerge(const SmCircuit &circ, const NoiseModel &noise)
{
    ASSERT_EQ(noise.pIdle, 0.0);
    const sim::FaultTable table = sim::buildFaultTable(circ, noise);
    const sim::Dem dem = sim::buildDem(circ, noise);
    ASSERT_EQ(table.numDetectors, dem.numDetectors);
    ASSERT_EQ(table.numObservables, dem.numObservables);
    ASSERT_EQ(table.p.size(), table.faults.size());
    ASSERT_EQ(table.sigs.size(), table.faults.size() * table.sigWords);

    using Key = std::tuple<std::size_t, sim::Pauli, sim::Pauli>;
    // location() expands a fault to the FaultLoc the merge lists.
    for (std::size_t f = 0; f < table.faults.size(); ++f) {
        const sim::FaultLoc loc = table.location(f, circ);
        ASSERT_EQ(loc.instr, table.faults[f].instr);
        ASSERT_EQ(loc.isCnot, table.faults[f].isCnot);
        ASSERT_EQ(loc.isCnot,
                  circ.instructions[loc.instr].op == circuit::OpType::Cnot);
    }
    std::map<Key, std::size_t> fault_of;
    for (std::size_t f = 0; f < table.faults.size(); ++f) {
        const sim::FaultTable::Fault &loc = table.faults[f];
        ASSERT_TRUE(fault_of.emplace(Key{loc.instr, loc.p0, loc.p1}, f).second)
            << "fault " << f << " is not unique";
    }
    std::vector<std::size_t> uses(table.faults.size(), 0);
    for (std::size_t m = 0; m < dem.errors.size(); ++m) {
        const sim::ErrorMechanism &mech = dem.errors[m];
        for (const sim::FaultLoc &loc : mech.sources) {
            auto it = fault_of.find(Key{loc.instr, loc.p0, loc.p1});
            ASSERT_NE(it, fault_of.end()) << "mechanism " << m;
            ++uses[it->second];
            auto [dets, obs] = decodeSignature(table, it->second);
            ASSERT_EQ(dets, mech.detectors) << "mechanism " << m;
            ASSERT_EQ(obs, mech.observables) << "mechanism " << m;
        }
    }
    std::size_t empty = 0;
    for (std::size_t f = 0; f < table.faults.size(); ++f) {
        auto [dets, obs] = decodeSignature(table, f);
        if (dets.empty() && obs.empty()) {
            ++empty;
            EXPECT_EQ(uses[f], 0u) << "empty-signature fault " << f;
        } else {
            EXPECT_EQ(uses[f], 1u) << "fault " << f;
        }
    }
    // Some faults are invisible (e.g. a Z before a Z measurement), so
    // both branches are exercised.
    EXPECT_GT(empty, 0u);
}

SmCircuit
coloration(const code::CssCode &code, std::size_t rounds, MemoryBasis basis)
{
    auto cp = std::make_shared<const code::CssCode>(code);
    return circuit::buildMemoryCircuit(circuit::colorationSchedule(cp),
                                       rounds, basis);
}

} // namespace

TEST(DemBuilderOracle, SurfaceSchedulesBothBases)
{
    const NoiseModel noise = NoiseModel::uniform(1e-3);
    for (std::size_t d : {3, 5}) {
        code::SurfaceCode s(d);
        for (const circuit::SmSchedule &sched :
             {circuit::nzSchedule(s), circuit::poorSurfaceSchedule(s)}) {
            for (MemoryBasis basis : {MemoryBasis::Z, MemoryBasis::X}) {
                SCOPED_TRACE("d=" + std::to_string(d) + " basis " +
                             (basis == MemoryBasis::Z ? "Z" : "X"));
                expectMatchesReference(
                    circuit::buildMemoryCircuit(sched, d, basis), noise);
            }
        }
    }
}

TEST(DemBuilderOracle, Lp39ThreeRounds)
{
    const code::CssCode lp39 = code::benchmarkLp39();
    for (MemoryBasis basis : {MemoryBasis::Z, MemoryBasis::X}) {
        expectMatchesReference(coloration(lp39, 3, basis),
                               NoiseModel::uniform(1e-3));
    }
}

TEST(DemBuilderOracle, Rqt54FourRounds)
{
    expectMatchesReference(coloration(code::benchmarkRqt54(), 4,
                                      MemoryBasis::Z),
                           NoiseModel::uniform(1e-3));
}

TEST(DemBuilderOracle, FlaggedCircuits)
{
    code::SurfaceCode s(3);
    for (MemoryBasis basis : {MemoryBasis::Z, MemoryBasis::X}) {
        expectMatchesReference(
            circuit::buildFlaggedMemoryCircuit(
                circuit::poorSurfaceSchedule(s), 3, basis, 4),
            NoiseModel::uniform(1e-3));
    }
    auto lp39 = std::make_shared<const code::CssCode>(code::benchmarkLp39());
    expectMatchesReference(
        circuit::buildFlaggedMemoryCircuit(circuit::colorationSchedule(lp39),
                                           2, MemoryBasis::Z, 4),
        NoiseModel::uniform(1e-3));
}

TEST(DemBuilderOracle, NoiseModels)
{
    // Idle noise appends faults after every gate fault, so it also
    // exercises the planes' full width from the first CNOT layer on.
    const NoiseModel models[] = {NoiseModel::withIdle(1e-3, 5e-4),
                                 NoiseModel{0, 1e-3, 0},
                                 NoiseModel{2e-3, 7e-4, 0},
                                 NoiseModel{1e-3, 0, 0}};
    code::SurfaceCode s(5);
    const code::CssCode lp39 = code::benchmarkLp39();
    for (const NoiseModel &noise : models) {
        SCOPED_TRACE("p1=" + std::to_string(noise.p1) +
                     " p2=" + std::to_string(noise.p2) +
                     " pIdle=" + std::to_string(noise.pIdle));
        for (MemoryBasis basis : {MemoryBasis::Z, MemoryBasis::X}) {
            expectMatchesReference(
                circuit::buildMemoryCircuit(circuit::poorSurfaceSchedule(s),
                                            5, basis),
                noise);
        }
        expectMatchesReference(coloration(lp39, 3, MemoryBasis::Z), noise);
    }
}

TEST(FaultTable, SurfaceFaultsMatchMergedMechanisms)
{
    const NoiseModel noise = NoiseModel::uniform(1e-3);
    for (std::size_t d : {3, 5}) {
        code::SurfaceCode s(d);
        for (const circuit::SmSchedule &sched :
             {circuit::nzSchedule(s), circuit::poorSurfaceSchedule(s)}) {
            for (MemoryBasis basis : {MemoryBasis::Z, MemoryBasis::X}) {
                SCOPED_TRACE("d=" + std::to_string(d) + " basis " +
                             (basis == MemoryBasis::Z ? "Z" : "X"));
                expectTableMatchesMerge(
                    circuit::buildMemoryCircuit(sched, d, basis), noise);
            }
        }
    }
}

TEST(FaultTable, Lp39AndRqt54FaultsMatchMergedMechanisms)
{
    const NoiseModel noise = NoiseModel::uniform(1e-3);
    const code::CssCode lp39 = code::benchmarkLp39();
    for (MemoryBasis basis : {MemoryBasis::Z, MemoryBasis::X}) {
        expectTableMatchesMerge(coloration(lp39, 3, basis), noise);
    }
    expectTableMatchesMerge(
        coloration(code::benchmarkRqt54(), 4, MemoryBasis::Z), noise);
}
