// A set of mesh nodes stored one bit per node, 64 nodes to a word.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "mesh/mesh2d.hpp"

namespace ocp::grid {

/// Row-major bit plane of a mesh. Each row is padded to whole words and the
/// pad bits are always zero, so a row can be shifted a word at a time: word
/// `k` of row `y` holds columns 64k..64k+63, bit `x % 64` for column `x`.
/// Word order is row-major node order, so scanning words in order and bits
/// by `countr_zero` visits members exactly as a row-major index sweep does.
class BitPlane {
 public:
  explicit BitPlane(const mesh::Mesh2D& m)
      : mesh_(m),
        words_per_row_((static_cast<std::size_t>(m.width()) + 63) / 64),
        words_(words_per_row_ * static_cast<std::size_t>(m.height()), 0) {}

  [[nodiscard]] const mesh::Mesh2D& topology() const noexcept { return mesh_; }
  [[nodiscard]] std::size_t words_per_row() const noexcept {
    return words_per_row_;
  }
  [[nodiscard]] std::span<std::uint64_t> words() noexcept { return words_; }
  [[nodiscard]] std::uint64_t* row(std::int32_t y) noexcept {
    return &words_[static_cast<std::size_t>(y) * words_per_row_];
  }
  [[nodiscard]] const std::uint64_t* row(std::int32_t y) const noexcept {
    return &words_[static_cast<std::size_t>(y) * words_per_row_];
  }
  /// Clears `c` and reports whether it was set.
  bool take(mesh::Coord c) noexcept {
    std::uint64_t& w = row(c.y)[static_cast<std::size_t>(c.x) / 64];
    const std::uint64_t bit = std::uint64_t{1} << (c.x % 64);
    const bool was = (w & bit) != 0;
    w &= ~bit;
    return was;
  }

  /// Adds `c` to the set.
  void insert(mesh::Coord c) noexcept {
    row(c.y)[static_cast<std::size_t>(c.x) / 64] |= std::uint64_t{1}
                                                     << (c.x % 64);
  }

  /// Complements the set; the pad bits stay zero.
  void flip() noexcept {
    const std::uint64_t valid =  // of a row's last word
        ~std::uint64_t{0} >> ((64 - mesh_.width() % 64) % 64);
    for (std::uint64_t& w : words_) w = ~w;
    for (std::int32_t y = 0; y < mesh_.height(); ++y) {
      row(y)[words_per_row_ - 1] &= valid;
    }
  }

  [[nodiscard]] std::size_t count() const noexcept {
    std::size_t n = 0;
    for (const std::uint64_t w : words_) {
      n += static_cast<std::size_t>(std::popcount(w));
    }
    return n;
  }

  /// Number of row runs: members whose west neighbour in the row is not a
  /// member (column 0 always starts a run), counted a word at a time as
  /// `w & ~(w << 1 | carry)`. A 4- or 8-connected component has at least
  /// one (its leftmost cell in any of its rows), so this bounds the number
  /// of components from above, even on a torus.
  [[nodiscard]] std::size_t run_starts() const noexcept {
    std::size_t n = 0;
    for (std::int32_t y = 0; y < mesh_.height(); ++y) {
      const std::uint64_t* src = row(y);
      std::uint64_t carry = 0;  // the last bit of the word to the west
      for (std::size_t k = 0; k < words_per_row_; ++k) {
        const std::uint64_t w = src[k];
        n += static_cast<std::size_t>(std::popcount(w & ~(w << 1 | carry)));
        carry = w >> 63;
      }
    }
    return n;
  }

  /// Sets exactly the nodes whose value is 1 in a row-major plane of 0/1
  /// one-byte values (a `CellSet`'s bytes, a `Safety` or `Activation` grid),
  /// eight nodes per multiply.
  template <typename T>
  void pack(const T* values) noexcept {
    static_assert(sizeof(T) == 1 && std::is_trivially_copyable_v<T>);
    const auto* bytes = reinterpret_cast<const unsigned char*>(values);
    const auto w = static_cast<std::size_t>(mesh_.width());
    for (std::int32_t y = 0; y < mesh_.height(); ++y, bytes += w) {
      std::uint64_t* dst = row(y);
      for (std::size_t k = 0; k < words_per_row_; ++k) {
        const unsigned char* src = bytes + 64 * k;
        const std::size_t n = std::min<std::size_t>(64, w - 64 * k);
        const auto eight = [src](std::size_t j) {  // bytes j.. to bits j..
          std::uint64_t v;
          std::memcpy(&v, src + j, 8);
          // Byte i's low bit lands on bit 56 + i; no partial products
          // collide.
          return ((v * 0x0102040810204080ULL) >> 56) << j;
        };
        std::uint64_t word = 0;
        std::size_t j = 0;
        if (n == 64) {  // a fixed trip count, so the loop unrolls
          for (; j < 64; j += 8) word |= eight(j);
        }
        for (; j + 8 <= n; j += 8) word |= eight(j);
        for (; j < n; ++j) word |= std::uint64_t{src[j] & 1u} << j;
        dst[k] = word;
      }
    }
  }

  /// Calls `fn(c)` for every member `c`, in row-major order; the cost is
  /// per member, not per node. Bits that `fn` clears in words not yet
  /// reached are skipped.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::int32_t y = 0; y < mesh_.height(); ++y) {
      const std::uint64_t* src = row(y);
      for (std::size_t k = 0; k < words_per_row_; ++k) {
        for (std::uint64_t word = src[k]; word != 0; word &= word - 1) {
          fn(mesh::Coord{static_cast<std::int32_t>(64 * k) +
                             std::countr_zero(word),
                         y});
        }
      }
    }
  }

 private:
  mesh::Mesh2D mesh_;
  std::size_t words_per_row_;
  std::vector<std::uint64_t> words_;
};

}  // namespace ocp::grid
