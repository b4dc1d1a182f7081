/**
 * @file
 * FNV-1a hashing shared by the engine's artifact-cache keys and the
 * sweep checkpoint's request fingerprint. Internal to src/api: both
 * hashes are persisted or compared across processes, so the byte order
 * below is part of their format.
 */
#ifndef PROPHUNT_API_FNV_H
#define PROPHUNT_API_FNV_H

#include <cstdint>
#include <string>

namespace prophunt::api::detail {

/** Fold @p v into @p h as FNV-1a over its 8 bytes, low byte first. */
inline void
fnv(uint64_t &h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
}

/** Fold the bytes of @p s, then its length, into @p h. */
inline void
fnvStr(uint64_t &h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    fnv(h, s.size());
}

} // namespace prophunt::api::detail

#endif // PROPHUNT_API_FNV_H
