// Internal helpers shared by the application builders.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "apps/registry.hpp"
#include "common/error.hpp"
#include "common/units.hpp"

namespace isp::apps::detail {

/// Table-I data size (decimal GB) scaled by the config's size factor.
inline Bytes table_bytes(double gigabytes, const AppConfig& config) {
  return Bytes{static_cast<std::uint64_t>(gigabytes * 1e9 *
                                          config.size_factor)};
}

/// Physical element count backing a virtual volume.
inline std::size_t phys_elems(Bytes virtual_bytes, const AppConfig& config,
                              std::size_t elem_bytes) {
  const double phys = virtual_bytes.as_double() / config.virtual_scale;
  const auto n = static_cast<std::size_t>(phys / elem_bytes);
  return n > 0 ? n : 1;
}

/// Dense ids in first-seen order over the raw id domain [0, domain): the
/// id compaction of the CSR builds.  A flat table indexed by raw id, sized
/// from the generator's domain; an id outside it fails loudly.
class FirstSeenIds {
 public:
  explicit FirstSeenIds(std::uint32_t domain) : table_(domain, kUnseen) {}

  std::uint32_t operator()(std::uint32_t raw) {
    ISP_CHECK(raw < table_.size(), "id " << raw << " outside the domain [0, "
                                         << table_.size() << ")");
    auto& id = table_[raw];
    if (id == kUnseen) id = count_++;
    return id;
  }

  /// Distinct ids seen so far.
  [[nodiscard]] std::uint32_t count() const { return count_; }

 private:
  static constexpr std::uint32_t kUnseen =
      std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> table_;
  std::uint32_t count_ = 0;
};

}  // namespace isp::apps::detail
