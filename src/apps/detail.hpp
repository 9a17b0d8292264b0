// Internal helpers shared by the application builders.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
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

/// for_blocks piece of the cheap element-wise lines (the load, convert and
/// narrow lines, the matrixmul epilogue): a few hundred microseconds of
/// work at size_factor 1, and still several pieces at the test sizes.
inline constexpr std::size_t kMapBlock = std::size_t{1} << 15;

/// Order-preserving filter of `rows` into `out`: emit(row) for each row
/// with keep(row), in row order.  Each piece counts its survivors in
/// parallel, a serial prefix sum turns the counts into output offsets, and
/// each piece then fills its own slice, so the bytes match a serial scan.
template <typename Out, typename Row, typename Keep, typename Emit>
void filter_rows(ir::KernelCtx& ctx, std::span<const Row> rows,
                 std::size_t block, mem::Buffer& out, Keep keep, Emit emit) {
  const std::size_t pieces = (rows.size() + block - 1) / block;
  std::vector<std::size_t> offset(pieces + 1, 0);
  ctx.for_blocks(rows.size(), block, [&](std::size_t begin, std::size_t end) {
    std::size_t kept = 0;
    for (std::size_t i = begin; i < end; ++i) kept += keep(rows[i]) ? 1 : 0;
    offset[begin / block + 1] = kept;
  });
  for (std::size_t k = 0; k < pieces; ++k) offset[k + 1] += offset[k];
  out.resize_elems<Out>(offset[pieces]);
  const auto dst = out.as<Out>();
  ctx.for_blocks(rows.size(), block, [&](std::size_t begin, std::size_t end) {
    std::size_t at = offset[begin / block];
    for (std::size_t i = begin; i < end; ++i) {
      if (keep(rows[i])) dst[at++] = emit(rows[i]);
    }
  });
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
