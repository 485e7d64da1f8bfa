// Hashing utilities (FNV-1a) used for value fingerprints and hash-map keys.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace av {

/// 64-bit FNV-1a hash of a byte string.
inline uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Mixes two 64-bit hashes (boost::hash_combine style, 64-bit constants).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

/// Polynomial hash constants: multiplier (the odd FNV prime) and seed.
/// Unlike FNV-1a, h -> h * P + c composes: hashing a concatenation equals
/// folding per-fragment affine maps (see AtomKeyCoeffs in pattern.h), which
/// is what lets enumerators compute pattern keys in one multiply-add per
/// atom instead of one multiply per byte.
inline constexpr uint64_t kPolyMul = 0x100000001b3ULL;
inline constexpr uint64_t kPolySeed = 0xcbf29ce484222325ULL;

/// Folds bytes [p, p + n) into a running polynomial hash state:
/// h -> h * kPolyMul + c for every byte c, in order. Evaluated four bytes
/// per step (exact same polynomial mod 2^64) so the serial multiply chain
/// is one multiply per block instead of per byte. Because the per-byte
/// fold composes, folding fragments one after another equals folding their
/// concatenation, whatever the fragment boundaries.
inline uint64_t PolyFold(uint64_t h, const unsigned char* p, size_t n) {
  constexpr uint64_t kP2 = kPolyMul * kPolyMul;
  constexpr uint64_t kP3 = kP2 * kPolyMul;
  constexpr uint64_t kP4 = kP3 * kPolyMul;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    h = h * kP4 + p[i] * kP3 + p[i + 1] * kP2 + p[i + 2] * kPolyMul +
        p[i + 3];
  }
  for (; i < n; ++i) h = h * kPolyMul + p[i];
  return h;
}

/// Joins the folds of two adjacent byte ranges a and b:
/// PolyFoldJoin(PolyFold(h, a), PolyFold(0, b), |b|) == PolyFold(h, a‖b).
/// The fold is affine in its start state (PolyFold(h, b) ==
/// h·kPolyMul^|b| + PolyFold(0, b) mod 2^64), so the blocks of one buffer
/// can be folded independently and joined in order with the exact result.
inline uint64_t PolyFoldJoin(uint64_t ha, uint64_t hb, uint64_t b_len) {
  uint64_t pow = 1;  // kPolyMul^b_len, by square-and-multiply
  for (uint64_t base = kPolyMul; b_len != 0; b_len >>= 1, base *= base) {
    if (b_len & 1) pow *= base;
  }
  return ha * pow + hb;
}

/// 64-bit polynomial hash of a byte string: PolyFold from kPolySeed.
inline uint64_t PolyHash64(std::string_view s) {
  return PolyFold(kPolySeed, reinterpret_cast<const unsigned char*>(s.data()),
                  s.size());
}

}  // namespace av
