// DataObject: a named value flowing between lines of an ActiveCpp program.
//
// Each object has two sizes:
//   * virtual_bytes — the Table-I-scale volume every timing model charges
//     (transfers, flash reads, Equation 1's DS terms);
//   * a physical Buffer — the real, scaled-down payload the C++ kernels
//     compute on, so functional results are real and testable.  Copies of
//     an object share that payload copy-on-write (see Buffer).
// The two are tied by the program's virtual_scale (virtual = physical ×
// scale); the execution engine maintains the invariant after every kernel.
//
// location tracks residency in the unified address space: Storage (flash),
// HostDram, or DeviceDram.  The engine charges movement whenever a consumer
// runs on the other side.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace isp::mem {

enum class Location : std::uint8_t { Storage = 0, HostDram, DeviceDram };

[[nodiscard]] std::string_view location_name(Location location);

/// Untyped, resizable payload with typed views, shared copy-on-write.
///
/// Copying a Buffer shares its bytes: a run's ObjectStore hands every kernel
/// the program's dataset payloads without copying them.  The sharing stays
/// invisible through the views:
///   * `as<const T>()` and the const `as<T>()` never copy;
///   * the non-const `as<T>()` with a mutable T first takes a private copy
///     when another Buffer shares the bytes, so a write never reaches them;
///   * `resize_elems` always allocates fresh zeroed bytes and `clear` drops
///     this Buffer's reference; neither touches the other sharers.
/// A mutable span must not be held across a copy of its Buffer: the copy
/// shares the bytes the span still writes.
///
/// Buffers sharing bytes may be read, copied and detached on distinct
/// threads.  Writing in place after the last other sharer was dropped on
/// another thread needs that drop to happen-before the write (a join, say):
/// the use count alone does not order them.  One Buffer object is not
/// itself thread-safe.
class Buffer {
 public:
  [[nodiscard]] std::size_t size_bytes() const {
    return bytes_ ? bytes_->size() : 0;
  }
  [[nodiscard]] bool empty() const { return size_bytes() == 0; }

  template <typename T>
  [[nodiscard]] std::size_t size_as() const {
    return size_bytes() / sizeof(T);
  }

  template <typename T>
  void resize_elems(std::size_t n) {
    bytes_ = std::make_shared<std::vector<std::byte>>(n * sizeof(T));
  }

  template <typename T>
  [[nodiscard]] std::span<T> as() {
    if constexpr (!std::is_const_v<T>) detach();
    return view<T>();
  }

  template <typename T>
  [[nodiscard]] std::span<const T> as() const {
    return view<const T>();
  }

  void clear() { bytes_.reset(); }

 private:
  /// Take a private copy of the bytes if another Buffer shares them.
  void detach() {
    if (bytes_ && bytes_.use_count() > 1) {
      bytes_ = std::make_shared<std::vector<std::byte>>(*bytes_);
    }
  }

  template <typename T>
  [[nodiscard]] std::span<T> view() const {
    if (!bytes_) return {};
    ISP_DCHECK(bytes_->size() % sizeof(T) == 0,
               "buffer size not a multiple of element size");
    return {reinterpret_cast<T*>(bytes_->data()),
            bytes_->size() / sizeof(T)};
  }

  std::shared_ptr<std::vector<std::byte>> bytes_;
};

struct DataObject {
  std::string name;
  Location location = Location::HostDram;
  Bytes virtual_bytes;  // Table-I-scale size used by all timing models
  Buffer physical;      // real payload the kernels compute on
  /// Set when a migration left this object behind in device DRAM: the host
  /// reaches it through the BAR window at a penalty (§III-D, the paper's
  /// residual post-migration overhead).
  bool bar_remote = false;

  /// Objects that begin life on flash (referenced files of the program).
  [[nodiscard]] bool starts_on_storage() const {
    return location == Location::Storage;
  }

  /// Re-derive the virtual size from the physical payload after a kernel
  /// produced it.  `virtual_scale` is virtual bytes per physical byte.
  void sync_virtual_size(double virtual_scale) {
    virtual_bytes = Bytes{static_cast<std::uint64_t>(
        static_cast<double>(physical.size_bytes()) * virtual_scale)};
  }
};

}  // namespace isp::mem
