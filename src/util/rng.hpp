// Deterministic, seedable RNG (xoshiro256++) for reproducible experiments.
//
// std::mt19937_64 results differ subtly across standard-library versions for
// the distribution adaptors, so the samplers in dist/ use these primitives
// directly and all experiments are bit-reproducible given a seed.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "util/hash.hpp"

namespace afmm {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) {
    // Seed the 256-bit state with splitmix64, as recommended by the authors.
    std::uint64_t x = seed;
    for (auto& word : s_) word = splitmix64_next(x);
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  double uniform() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  // Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  // Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next_u64() % n; }

  // Standard normal via Box-Muller (no cached spare: keeps state trivial).
  double normal() {
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
  }

  // Full generator state, for checkpoint/restore: a stream restored with
  // set_state() continues the exact sequence the snapshot interrupted.
  std::array<std::uint64_t, 4> state() const { return {s_[0], s_[1], s_[2], s_[3]}; }
  void set_state(const std::array<std::uint64_t, 4>& s) {
    for (int i = 0; i < 4; ++i) s_[i] = s[i];
  }

 private:
  static std::uint64_t rotl(std::uint64_t v, int k) {
    return (v << k) | (v >> (64 - k));
  }
  std::uint64_t s_[4];
};

}  // namespace afmm
