#include "grid/cell_set.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>

namespace ocp::grid {

void CellSet::clear() noexcept {
  std::ranges::fill(bits_.words(), std::uint64_t{0});
  count_ = 0;
}

template <typename Op>
CellSet& CellSet::combine(const CellSet& other, Op op) {
  assert(topology() == other.topology());
  const auto src = other.bits_.words();
  const auto dst = bits_.words();
  count_ = 0;
  for (std::size_t k = 0; k < dst.size(); ++k) {
    dst[k] = op(dst[k], src[k]);
    count_ += static_cast<std::size_t>(std::popcount(dst[k]));
  }
  return *this;
}

// Each operation maps zero pad bits to zero.
CellSet& CellSet::operator|=(const CellSet& other) {
  return combine(other, [](std::uint64_t a, std::uint64_t b) { return a | b; });
}

CellSet& CellSet::operator-=(const CellSet& other) {
  return combine(other,
                 [](std::uint64_t a, std::uint64_t b) { return a & ~b; });
}

CellSet& CellSet::operator&=(const CellSet& other) {
  return combine(other, [](std::uint64_t a, std::uint64_t b) { return a & b; });
}

}  // namespace ocp::grid
