// The project's two non-cryptographic hashes, each defined once.
//
// splitmix64 (Steele, Lea & Flood): a 64-bit mixer with good avalanche. It
// seeds Rng's xoshiro256++ state, and its stateless form folds (seed, step,
// key) tuples into fresh deterministic draws without carrying generator
// state -- transfer retries, fault seeds, SDC picks, halo checksums.
//
// FNV-1a-64 over raw bytes: cheap, order-sensitive and bit-exact -- one
// flipped bit anywhere changes it. The SDC checksums, the problems' state
// checksums and the service's state fingerprints all use it. Hashing object
// representations is well-defined for the padding-free double / Vec3
// buffers it is applied to.
//
// No project includes, so every layer (sdc/ included) can use it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace afmm {

// Advances `state` by the golden-ratio increment and returns its mix.
inline std::uint64_t splitmix64_next(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Stateless form: what splitmix64_next returns from state `x`.
inline std::uint64_t splitmix64(std::uint64_t x) { return splitmix64_next(x); }

inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;

// FNV-1a-64 of `bytes` bytes at `data`, continuing from `h`: the basis
// starts a fresh hash, a previous result chains another buffer onto it.
inline std::uint64_t fnv1a(const void* data, std::size_t bytes,
                           std::uint64_t h = kFnv1aBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}

}  // namespace afmm
