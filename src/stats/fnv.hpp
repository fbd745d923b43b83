// 64-bit FNV-1a, the fold behind every replay digest of the repository
// (label, stream, job and placement digests).
#pragma once

#include <cstdint>

namespace ocp::stats {

/// Running FNV-1a hash. `mix` folds one whole 64-bit word per step, the
/// format of the label and stream digests; `mix_bytes` folds a word's eight
/// bytes least significant first, the classic byte-wise form.
struct Fnv1a {
  std::uint64_t value = 0xcbf29ce484222325ULL;

  constexpr void mix(std::uint64_t v) noexcept {
    value ^= v;
    value *= 0x100000001b3ULL;
  }

  constexpr void mix_bytes(std::uint64_t v) noexcept {
    for (int b = 0; b < 8; ++b) mix((v >> (8 * b)) & 0xffu);
  }
};

}  // namespace ocp::stats
