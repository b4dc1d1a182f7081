/**
 * @file
 * Shared geometric-skip event kernel for the DEM samplers.
 *
 * Both the scalar row sampler and the word-packed frame sampler must
 * consume the RNG stream identically — their outputs are contractually
 * bit-identical at a fixed seed — so the per-mechanism skip loop lives
 * here once: the first event lands at floor(log(U)/log(1-p)), and each
 * subsequent gap is an independent geometric variate.
 */
#ifndef PROPHUNT_SIM_EVENT_STREAM_H
#define PROPHUNT_SIM_EVENT_STREAM_H

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "sim/dem.h"
#include "sim/rng.h"

namespace prophunt::sim::detail {

/**
 * The std::invalid_argument message for mechanism @p index of a DEM whose
 * probability @p p lies outside [0, 1) (NaN included), tagged with
 * @p where.
 */
inline std::string
badProbabilityMessage(const char *where, std::size_t index, double p)
{
    return std::string(where) + ": mechanism " + std::to_string(index) +
           " has p = " + std::to_string(p) + ", outside [0, 1)";
}

/**
 * Invoke emit(shot) for every shot in [0, shots) where @p mech, mechanism
 * @p index of its DEM, fires.
 *
 * Shots are emitted in ascending order. Throws std::invalid_argument
 * (tagged with @p where and naming @p index) unless 0 <= p < 1, so NaN
 * never reaches the skip arithmetic; p == 0 mechanisms emit nothing and
 * consume no randomness.
 */
template <typename Emit>
inline void
forEachMechanismEvent(const ErrorMechanism &mech, std::size_t index,
                      std::size_t shots, Rng &rng, const char *where,
                      Emit emit)
{
    if (!(mech.p >= 0.0 && mech.p < 1.0)) {
        throw std::invalid_argument(
            badProbabilityMessage(where, index, mech.p));
    }
    if (mech.p == 0.0) {
        return;
    }
    double log1mp = std::log1p(-mech.p);
    double u = rng.uniform();
    std::size_t shot = (std::size_t)(std::log(u <= 0 ? 1e-300 : u) / log1mp);
    while (shot < shots) {
        emit(shot);
        u = rng.uniform();
        shot += 1 + (std::size_t)(std::log(u <= 0 ? 1e-300 : u) / log1mp);
    }
}

} // namespace prophunt::sim::detail

#endif // PROPHUNT_SIM_EVENT_STREAM_H
