#include "sim/sampler.h"

#include <algorithm>
#include <bit>

#include "sim/event_stream.h"
#include "sim/rng.h"

namespace prophunt::sim {

std::vector<uint32_t>
SampleBatch::flippedDetectors(std::size_t shot) const
{
    std::vector<uint32_t> out;
    flippedDetectors(shot, out);
    return out;
}

void
SampleBatch::flippedDetectors(std::size_t shot,
                              std::vector<uint32_t> &out) const
{
    out.clear();
    const uint64_t *row = det.data() + shot * detWords;
    for (std::size_t w = 0; w < detWords; ++w) {
        uint64_t bits = row[w];
        while (bits) {
            out.push_back((uint32_t)((w << 6) + std::countr_zero(bits)));
            bits &= bits - 1;
        }
    }
}

uint64_t
SampleBatch::obsMask(std::size_t shot) const
{
    return obsWords == 0 ? 0 : obs[shot * obsWords];
}

void
sampleDemInto(const Dem &dem, std::size_t shots, uint64_t seed,
              std::size_t det_words, std::size_t obs_words, uint64_t *det,
              uint64_t *obs)
{
    Rng rng(seed);
    for (std::size_t m = 0; m < dem.errors.size(); ++m) {
        const ErrorMechanism &mech = dem.errors[m];
        detail::forEachMechanismEvent(
            mech, m, shots, rng, "sampleDem", [&](std::size_t shot) {
                uint64_t *drow = det + shot * det_words;
                for (uint32_t d : mech.detectors) {
                    drow[d >> 6] ^= uint64_t{1} << (d & 63);
                }
                uint64_t *orow = obs + shot * obs_words;
                for (uint32_t o : mech.observables) {
                    orow[o >> 6] ^= uint64_t{1} << (o & 63);
                }
            });
    }
}

SampleBatch
sampleDem(const Dem &dem, std::size_t shots, uint64_t seed)
{
    SampleBatch batch;
    batch.shots = shots;
    batch.detWords = (dem.numDetectors + 63) / 64;
    batch.obsWords = (std::max<std::size_t>(dem.numObservables, 1) + 63) / 64;
    batch.det.assign(shots * batch.detWords, 0);
    batch.obs.assign(shots * batch.obsWords, 0);
    sampleDemInto(dem, shots, seed, batch.detWords, batch.obsWords,
                  batch.det.data(), batch.obs.data());
    return batch;
}

} // namespace prophunt::sim
