// Sparse page-indexed state for the storage backends.
//
// A backend's page-sized maps (l2p, p2l, the OOB stamps on the media, the
// checkpoint) are nearly all of its memory: ~25–35 MiB at the default
// 524,288-page geometry.  Held as flat vectors, every device construction
// paid that whole sentinel fill, although a served dispatch touches only
// the few thousand pages it mounts and writes back.  PageMap keeps the same
// sentinel-coded words in a directory of fixed-size chunks:
//
//   * a chunk is allocated and sentinel-filled on its first store;
//   * a load from an absent chunk returns the sentinel;
//   * clear() drops every chunk;
//   * a copy copies only the chunks that are present.
//
// An empty map costs one pointer per chunk, so constructing a device is
// O(blocks) and every later cost scales with the extents it touched.
// Range fill and present-chunk iteration keep the backends' span writes,
// remount replay and invariant sweeps run-at-a-time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/error.hpp"

namespace isp::flash {

/// "No mapping" sentinel for the l2p/p2l/checkpoint words.  A flat word
/// with an impossible page number is half the width of std::optional and
/// keeps the fill loops to plain 8-byte traffic.  No device geometry
/// reaches 2^64 - 1 pages.
inline constexpr std::uint64_t kNoPage = ~std::uint64_t{0};

template <typename T>
class PageMap {
 public:
  static constexpr std::uint64_t kChunkShift = 12;
  static constexpr std::uint64_t kChunkEntries = std::uint64_t{1}
                                                 << kChunkShift;

  PageMap() = default;
  PageMap(std::uint64_t size, T sentinel)
      : size_(size),
        sentinel_(sentinel),
        dir_((size + kChunkEntries - 1) >> kChunkShift) {}

  PageMap(const PageMap& other) { *this = other; }
  PageMap& operator=(const PageMap& other) {
    if (this == &other) return *this;
    size_ = other.size_;
    sentinel_ = other.sentinel_;
    dir_.resize(other.dir_.size());
    for (std::size_t c = 0; c < dir_.size(); ++c) {
      if (!other.dir_[c]) {
        dir_[c].reset();
        continue;
      }
      // A chunk present on both sides is overwritten in place, so repeated
      // folds of one map into another reuse their allocations.
      if (!dir_[c]) {
        dir_[c] = std::make_unique_for_overwrite<T[]>(kChunkEntries);
      }
      std::copy_n(other.dir_[c].get(), kChunkEntries, dir_[c].get());
    }
    return *this;
  }
  PageMap(PageMap&&) noexcept = default;
  PageMap& operator=(PageMap&&) noexcept = default;
  ~PageMap() = default;

  [[nodiscard]] std::uint64_t size() const { return size_; }

  /// Chunks allocated so far (each holds kChunkEntries entries).
  [[nodiscard]] std::uint64_t chunks() const {
    return static_cast<std::uint64_t>(
        std::count_if(dir_.begin(), dir_.end(),
                      [](const auto& chunk) { return chunk != nullptr; }));
  }

  [[nodiscard]] T operator[](std::uint64_t i) const {
    ISP_DCHECK(i < size_, "page map index out of range");
    const T* chunk = dir_[i >> kChunkShift].get();
    return chunk != nullptr ? chunk[i & kChunkMask] : sentinel_;
  }

  /// Store `value` at `i`, allocating the chunk on its first store.
  void set(std::uint64_t i, T value) {
    ISP_DCHECK(i < size_, "page map index out of range");
    chunk_for_store(i >> kChunkShift)[i & kChunkMask] = value;
  }

  /// Entries from `i` to the end of its chunk: the longest run slots() can
  /// hand out in one piece.
  [[nodiscard]] static std::uint64_t chunk_room(std::uint64_t i) {
    return kChunkEntries - (i & kChunkMask);
  }

  /// Writable entries [first, first + count), which must lie in one chunk
  /// (count <= chunk_room(first)); allocates the chunk on its first store.
  /// The span loops of the backends read and write a run through this one
  /// pointer instead of a directory lookup per entry.
  [[nodiscard]] T* slots(std::uint64_t first, std::uint64_t count) {
    ISP_DCHECK(first + count <= size_ && count <= chunk_room(first),
               "page map run crosses a chunk");
    (void)count;
    return chunk_for_store(first >> kChunkShift) + (first & kChunkMask);
  }

  /// Store the sentinel at `i`.  An absent chunk already reads as the
  /// sentinel, so it stays absent.
  void erase(std::uint64_t i) {
    ISP_DCHECK(i < size_, "page map index out of range");
    if (T* chunk = dir_[i >> kChunkShift].get()) {
      chunk[i & kChunkMask] = sentinel_;
    }
  }

  /// Store `value` over [first, last), one chunk-sized run at a time.
  /// Filling with the sentinel skips absent chunks.
  void fill(std::uint64_t first, std::uint64_t last, T value) {
    ISP_DCHECK(first <= last && last <= size_, "page map range out of range");
    const bool clearing = value == sentinel_;
    while (first < last) {
      const std::uint64_t c = first >> kChunkShift;
      const std::uint64_t run =
          std::min(last, (c + 1) << kChunkShift) - first;
      if (!clearing || dir_[c]) {
        std::fill_n(chunk_for_store(c) + (first & kChunkMask), run, value);
      }
      first += run;
    }
  }

  /// Drop every chunk: the whole map reads as the sentinel again.
  void clear() {
    for (auto& chunk : dir_) chunk.reset();
  }

  /// Call fn(index, value) for every non-sentinel entry, in ascending index
  /// order.  Only present chunks are visited.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t c = 0; c < dir_.size(); ++c) {
      const T* chunk = dir_[c].get();
      if (chunk == nullptr) continue;
      const std::uint64_t base = static_cast<std::uint64_t>(c) << kChunkShift;
      const std::uint64_t n = std::min(kChunkEntries, size_ - base);
      for (std::uint64_t k = 0; k < n; ++k) {
        if (!(chunk[k] == sentinel_)) fn(base + k, chunk[k]);
      }
    }
  }

 private:
  static constexpr std::uint64_t kChunkMask = kChunkEntries - 1;

  T* chunk_for_store(std::uint64_t c) {
    T* chunk = dir_[c].get();
    if (chunk == nullptr) [[unlikely]] chunk = allocate(c);
    return chunk;
  }

  T* allocate(std::uint64_t c) {
    dir_[c] = std::make_unique_for_overwrite<T[]>(kChunkEntries);
    std::fill_n(dir_[c].get(), kChunkEntries, sentinel_);
    return dir_[c].get();
  }

  std::uint64_t size_ = 0;
  T sentinel_{};
  std::vector<std::unique_ptr<T[]>> dir_;
};

}  // namespace isp::flash
