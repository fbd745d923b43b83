#include "svc/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <span>

namespace ocp::svc {

namespace {

std::uint32_t min_cell_index(const mesh::Mesh2D& m,
                             const labeling::DisabledRegion& region) {
  std::size_t best = static_cast<std::size_t>(m.node_count());
  for (const mesh::Coord c : region.component.cells()) {
    best = std::min(best, m.index(c));
  }
  return static_cast<std::uint32_t>(best);
}

/// Spreads bits 0..7 of `bits` to the low bits of bytes 0..7.
constexpr std::uint64_t spread_byte(std::uint64_t bits) noexcept {
  std::uint64_t x = bits & 0xFF;
  x = (x | x << 28) & 0x0000000F0000000FULL;
  x = (x | x << 14) & 0x0003000300030003ULL;
  return (x | x << 7) & 0x0101010101010101ULL;
}

/// Row filler for the status pages from the fault bits and the flat
/// activation plane, eight nodes to a word: a faulty node's status is 2 and
/// a nonfaulty node's is its disabled byte.
static_assert(static_cast<std::uint8_t>(NodeStatus::Enabled) == 0 &&
              static_cast<std::uint8_t>(NodeStatus::Disabled) == 1 &&
              static_cast<std::uint8_t>(NodeStatus::Faulty) == 2 &&
              static_cast<std::uint8_t>(labeling::Activation::Disabled) == 1 &&
              std::endian::native == std::endian::little);
auto status_rows(const grid::CellSet& faults,
                 const grid::NodeGrid<labeling::Activation>& activation) {
  return [&fault = faults.bits(), act = activation.data(),
          width = static_cast<std::size_t>(faults.topology().width())](
             std::int32_t y, std::int32_t x0, std::span<NodeStatus> out) {
    // A page row is at most 32 nodes and starts at a multiple of the page
    // side, so its fault bits lie in one word.
    std::uint64_t faulty =
        fault.row(y)[static_cast<std::size_t>(x0) / 64] >> (x0 % 64);
    const auto* disabled = reinterpret_cast<const unsigned char*>(
        act + static_cast<std::size_t>(y) * width +
        static_cast<std::size_t>(x0));
    std::size_t k = 0;
    for (; k + 8 <= out.size(); k += 8, faulty >>= 8) {
      std::uint64_t d;
      std::memcpy(&d, disabled + k, 8);
      const std::uint64_t f = spread_byte(faulty);
      const std::uint64_t status = f << 1 | (d & ~f);
      std::memcpy(&out[k], &status, 8);
    }
    for (; k < out.size(); ++k, faulty >>= 1) {
      out[k] = (faulty & 1) != 0 ? NodeStatus::Faulty
                                 : static_cast<NodeStatus>(disabled[k]);
    }
  };
}

/// Row filler for the region-key pages from a flat key plane.
auto key_rows(const grid::NodeGrid<std::int32_t>& keys) {
  return [data = keys.data(),
          width = static_cast<std::size_t>(keys.topology().width())](
             std::int32_t y, std::int32_t x0, std::span<std::int32_t> out) {
    std::copy_n(data + static_cast<std::size_t>(y) * width +
                    static_cast<std::size_t>(x0),
                out.size(), out.begin());
  };
}

}  // namespace

Snapshot::Snapshot(std::uint64_t epoch,
                   const labeling::MaintainedLabeling& labeling,
                   const Snapshot* prev, const grid::PageSet* dirty_pages,
                   std::uint64_t padded_dirty_tiles, routing::Hand hand)
    : epoch_(epoch),
      tiles_(labeling.faults().topology()),
      hand_(hand),
      block_order_(labeling.block_order()),
      region_order_(labeling.region_order()),
      records_(true),
      block_records_(labeling.block_records().freeze()),
      region_records_(labeling.region_records().freeze()),
      router_(machine(), blocked_by_status_, hand),
      cache_(router_, machine()) {
  const auto statuses = status_rows(labeling.faults(), labeling.activation());
  const auto keys = key_rows(labeling.region_keys());
  if (prev == nullptr) {
    status_pages_ = PagedPlane<NodeStatus>::build(tiles_, statuses, page_stats_);
    region_key_pages_ =
        PagedPlane<std::int32_t>::build(tiles_, keys, page_stats_);
    return;
  }
  status_pages_ = PagedPlane<NodeStatus>::next(
      prev->status_pages_, tiles_, *dirty_pages, statuses, page_stats_);
  region_key_pages_ = PagedPlane<std::int32_t>::next(
      prev->region_key_pages_, tiles_, *dirty_pages, keys, page_stats_);
  // Warm start: routes that never probed a dirtied neighborhood are still
  // correct under the new blocked set.
  cache_carry_stats_ = cache_.adopt(prev->cache_, padded_dirty_tiles);
}

Snapshot::Snapshot(std::uint64_t epoch, grid::CellSet faults,
                   grid::NodeGrid<labeling::Safety> safety,
                   grid::NodeGrid<labeling::Activation> activation,
                   std::vector<labeling::FaultyBlock> blocks,
                   std::vector<labeling::DisabledRegion> regions,
                   routing::Hand hand)
    : epoch_(epoch),
      tiles_(faults.topology()),
      hand_(hand),
      router_(machine(), blocked_by_status_, hand),
      cache_(router_, machine()),
      faults_(std::move(faults)),
      safety_(std::move(safety)),
      activation_(std::move(activation)),
      blocks_(std::move(blocks)),
      regions_(std::move(regions)) {
  grid::NodeGrid<std::int32_t> keys(machine(), -1);
  region_order_.reserve(regions_->size());
  for (std::size_t r = 0; r < regions_->size(); ++r) {
    const std::uint32_t key = min_cell_index(machine(), (*regions_)[r]);
    for (const mesh::Coord c : (*regions_)[r].component.cells()) {
      keys[c] = static_cast<std::int32_t>(key);
    }
    region_order_.push_back({key, static_cast<std::uint32_t>(r)});
  }
  // Extraction order is key order; only a hand-assembled list needs this.
  const auto by_key = [](const labeling::OrderEntry& a,
                         const labeling::OrderEntry& b) { return a.key < b.key; };
  if (!std::is_sorted(region_order_.begin(), region_order_.end(), by_key)) {
    std::stable_sort(region_order_.begin(), region_order_.end(), by_key);
  }
  status_pages_ = PagedPlane<NodeStatus>::build(
      tiles_, status_rows(*faults_, *activation_), page_stats_);
  region_key_pages_ =
      PagedPlane<std::int32_t>::build(tiles_, key_rows(keys), page_stats_);
}

std::shared_ptr<const Snapshot> Snapshot::build(
    std::uint64_t epoch, const labeling::MaintainedLabeling& labeling,
    routing::Hand hand) {
  return std::shared_ptr<const Snapshot>(new Snapshot(
      epoch, labeling, nullptr, nullptr, ~std::uint64_t{0}, hand));
}

std::shared_ptr<const Snapshot> Snapshot::next(
    const Snapshot& prev, std::uint64_t epoch,
    const labeling::MaintainedLabeling& labeling,
    const grid::PageSet& dirty_pages, std::uint64_t padded_dirty_tiles) {
  return std::shared_ptr<const Snapshot>(
      new Snapshot(epoch, labeling, &prev, &dirty_pages, padded_dirty_tiles,
                   prev.hand_));
}

std::shared_ptr<const Snapshot> Snapshot::next(
    const Snapshot& prev, std::uint64_t epoch,
    const labeling::MaintainedLabeling& labeling, std::uint64_t dirty_tiles,
    std::uint64_t padded_dirty_tiles) {
  return next(prev, epoch, labeling, prev.tiles_.pages_of_tiles(dirty_tiles),
              padded_dirty_tiles);
}

template <typename Fn>
void Snapshot::for_each_status(Fn&& fn) const {
  for (std::uint32_t p = 0; p < tiles_.page_count(); ++p) {
    const grid::TileGrid::CellRect b = tiles_.page_bounds(p);
    for (std::int32_t y = b.y0; y < b.y1; ++y) {
      mesh::Coord c{b.x0, y};
      for (const NodeStatus s : status_pages_.row(tiles_, p, y)) {
        fn(c, s);
        ++c.x;
      }
    }
  }
}

const grid::CellSet& Snapshot::faults() const {
  std::call_once(faults_once_, [this] {
    if (faults_) return;
    faults_.emplace(machine());
    for_each_status([this](mesh::Coord c, NodeStatus s) {
      if (s == NodeStatus::Faulty) faults_->insert(c);
    });
  });
  return *faults_;
}

const grid::CellSet& Snapshot::blocked() const {
  std::call_once(blocked_once_, [this] {
    blocked_.emplace(machine());
    for_each_status([this](mesh::Coord c, NodeStatus s) {
      if (s != NodeStatus::Enabled) blocked_->insert(c);
    });
  });
  return *blocked_;
}

const grid::NodeGrid<labeling::Activation>& Snapshot::activation() const {
  std::call_once(activation_once_, [this] {
    if (activation_) return;
    activation_.emplace(machine(), labeling::Activation::Enabled);
    for_each_status([this](mesh::Coord c, NodeStatus s) {
      if (s != NodeStatus::Enabled) {
        (*activation_)[c] = labeling::Activation::Disabled;
      }
    });
  });
  return *activation_;
}

const grid::NodeGrid<labeling::Safety>& Snapshot::safety() const {
  std::call_once(safety_once_, [this] {
    if (safety_) return;
    // Unsafe exactly on the cells of the faulty blocks.
    safety_.emplace(machine(), labeling::Safety::Safe);
    for (const labeling::OrderEntry& e : block_order_) {
      for (const mesh::Coord c : block_records_[e.slot].component.cells()) {
        (*safety_)[c] = labeling::Safety::Unsafe;
      }
    }
  });
  return *safety_;
}

const std::vector<labeling::FaultyBlock>& Snapshot::blocks() const {
  std::call_once(blocks_once_, [this] {
    if (blocks_) return;
    blocks_.emplace();
    blocks_->reserve(block_order_.size());
    for (const labeling::OrderEntry& e : block_order_) {
      blocks_->push_back(block_records_[e.slot]);
    }
  });
  return *blocks_;
}

const std::vector<labeling::DisabledRegion>& Snapshot::regions() const {
  std::call_once(regions_once_, [this] {
    if (regions_) return;
    regions_.emplace();
    regions_->reserve(region_order_.size());
    for (std::size_t r = 0; r < region_order_.size(); ++r) {
      regions_->push_back(region_at(r));
      regions_->back().parent_block = parent_index(region_at(r));
    }
  });
  return *regions_;
}

std::size_t Snapshot::region_rank(mesh::Coord c) const noexcept {
  const std::int32_t key = region_key_pages_.at(tiles_, c);
  return key < 0 ? region_order_.size()
                 : labeling::order_rank(region_order_,
                                        static_cast<std::uint32_t>(key));
}

const labeling::DisabledRegion& Snapshot::region_at(
    std::size_t rank) const noexcept {
  const std::uint32_t slot = region_order_[rank].slot;
  // The raw constructor's list is set before construction ends and never
  // written again, so reading it here needs no synchronization.
  return records_ ? region_records_[slot] : (*regions_)[slot];
}

std::size_t Snapshot::parent_index(
    const labeling::DisabledRegion& region) const noexcept {
  // A record's parent_block is its parent's key; a raw list's is already
  // the index.
  return records_ ? labeling::order_rank(
                        block_order_,
                        static_cast<std::uint32_t>(region.parent_block))
                  : region.parent_block;
}

std::int32_t Snapshot::region_id(std::size_t rank) const noexcept {
  // `regions()` is in key order, except a raw list, which keeps its own.
  return static_cast<std::int32_t>(records_ ? rank : region_order_[rank].slot);
}

std::int32_t Snapshot::region_id_of(mesh::Coord c) const noexcept {
  const std::size_t rank = region_rank(c);
  return rank == region_order_.size() ? -1 : region_id(rank);
}

const labeling::DisabledRegion* Snapshot::region_of(mesh::Coord c) const {
  const std::int32_t id = region_id_of(c);
  return id < 0 ? nullptr : &regions()[static_cast<std::size_t>(id)];
}

RegionSummary Snapshot::region_summary(mesh::Coord c) const noexcept {
  const std::size_t rank = region_rank(c);
  if (rank == region_order_.size()) return {};
  const labeling::DisabledRegion& region = region_at(rank);
  return {.id = region_id(rank),
          .size = region.size(),
          .fault_count = region.fault_count,
          .parent_block = parent_index(region)};
}

check::ViolationReport Snapshot::validate(labeling::SafeUnsafeDef def,
                                          std::uint32_t checks) const {
  // The oracle consumes a PipelineResult; assemble one from the frozen
  // views. Round statistics stay zeroed, which the oracle reads as
  // "reference engine" and skips the convergence checks for.
  labeling::PipelineResult view{.safety = safety(),
                               .activation = activation(),
                               .blocks = blocks(),
                               .regions = regions(),
                               .safety_stats = {},
                               .activation_stats = {}};
  return check::check_pipeline(
      faults(), view, {.definition = def, .checks = checks});
}

std::uint64_t Snapshot::label_digest() const {
  const grid::BitPlane& f = faults().bits();
  const labeling::Safety* s = safety().data();
  const labeling::Activation* a = activation().data();
  return fold_label_digest(
      machine(),
      [&](mesh::Coord c, std::size_t i) {
        return label_bits(f.contains(c), s[i], a[i]);
      },
      records_ ? block_order_.size() : blocks_->size(), region_order_.size(),
      [this](auto&& fold) {
        for (std::size_t r = 0; r < region_order_.size(); ++r) {
          const labeling::DisabledRegion& region = region_at(r);
          fold(region.size(), region.fault_count);
        }
      });
}

}  // namespace ocp::svc
