// Slot map of immutable, shared records with copy-on-write chunks.
//
// The maintained labeling keeps its faulty blocks and disabled regions here:
// a record gets a slot id when an event creates it and keeps that id until an
// event absorbs it, so an event touches only the records it rebuilds — never
// the ids of the thousands of blocks it leaves alone. Records are immutable
// `shared_ptr<const T>` handles; slots are grouped into fixed chunks of 64.
//
// `freeze()` hands out a read-only copy that shares every chunk (O(slots /
// 64) pointer copies, no record or cell vector is copied). The table then
// treats all its chunks as shared: the next write to a chunk clones it first
// (64 handle copies) and writes the clone, so a frozen copy never observes a
// later write. Chunk ownership is tracked by freeze generation rather than
// by reference count, so the writer never races a reader releasing a frozen
// copy on another thread. Single writer: `insert`, `erase` and `freeze` must
// not run concurrently with each other; frozen copies are safe to read from
// any number of threads.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace ocp::labeling {

template <typename T>
class SlotTable {
  static constexpr std::uint32_t kChunkShift = 6;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSlots - 1;
  using Chunk = std::array<std::shared_ptr<const T>, kChunkSlots>;

 public:
  /// Read-only view of the table at the moment of `freeze()`.
  class Frozen {
   public:
    /// The record in `slot`. Precondition: the slot was live when frozen.
    [[nodiscard]] const T& operator[](std::uint32_t slot) const noexcept {
      return *(*chunks_[slot >> kChunkShift])[slot & kChunkMask];
    }

   private:
    friend class SlotTable;
    std::vector<std::shared_ptr<Chunk>> chunks_;  // never written through
  };

  SlotTable() = default;
  /// A copy shares every chunk with `other`; both copy a chunk before
  /// their next write to it.
  SlotTable(const SlotTable& other)
      : chunks_(other.chunks_),
        chunk_generation_(other.chunk_generation_),
        free_(other.free_),
        generation_(other.generation_ + 1) {
    ++other.generation_;
  }
  SlotTable& operator=(const SlotTable& other) {
    if (this != &other) *this = SlotTable(other);
    return *this;
  }
  SlotTable(SlotTable&&) noexcept = default;
  SlotTable& operator=(SlotTable&&) noexcept = default;
  ~SlotTable() = default;

  /// The record in `slot`. Precondition: the slot is live.
  [[nodiscard]] const T& operator[](std::uint32_t slot) const noexcept {
    return *(*chunks_[slot >> kChunkShift])[slot & kChunkMask];
  }

  /// Stores `value` in a free slot (the most recently freed one first, so
  /// slot ids are deterministic) and returns its id.
  std::uint32_t insert(T value) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(chunks_.size()) << kChunkShift;
      for (std::uint32_t i = kChunkSlots; i-- > 1;) free_.push_back(slot + i);
      chunks_.push_back(std::make_shared<Chunk>());
      chunk_generation_.push_back(generation_);
    }
    writable(slot) = std::make_shared<const T>(std::move(value));
    return slot;
  }

  /// Releases `slot`; its id may be handed out again by a later `insert`.
  void erase(std::uint32_t slot) {
    writable(slot).reset();
    free_.push_back(slot);
  }

  /// A copy sharing every chunk; later writes to this table copy the chunk
  /// they touch first. Logically const: it only moves the generation.
  [[nodiscard]] Frozen freeze() const {
    Frozen frozen;
    frozen.chunks_ = chunks_;
    ++generation_;
    return frozen;
  }

 private:
  std::shared_ptr<const T>& writable(std::uint32_t slot) {
    const std::uint32_t c = slot >> kChunkShift;
    if (chunk_generation_[c] != generation_) {
      // Handed out by a freeze since it was last written: clone it.
      chunks_[c] = std::make_shared<Chunk>(*chunks_[c]);
      chunk_generation_[c] = generation_;
    }
    return (*chunks_[c])[slot & kChunkMask];
  }

  std::vector<std::shared_ptr<Chunk>> chunks_;
  /// `generation_` value at which each chunk was last made private.
  std::vector<std::uint64_t> chunk_generation_;
  std::vector<std::uint32_t> free_;
  mutable std::uint64_t generation_ = 0;
};

}  // namespace ocp::labeling
