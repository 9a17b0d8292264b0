// Shared TPC-H dataset builders for the Q1/Q6/Q14 workloads.
#pragma once

#include "apps/data_gen.hpp"
#include "apps/registry.hpp"
#include "ir/program.hpp"

namespace isp::apps {

/// Lineitem rows per for_blocks piece of a query's filter line.
inline constexpr std::size_t kLineitemFilterBlock = std::size_t{1} << 13;

/// A LINEITEM dataset of `virtual_bytes`, physically scaled per the config.
/// `part_keys` bounds l_partkey (pass the physical PART row count for Q14).
[[nodiscard]] ir::Dataset make_lineitem_dataset(const AppConfig& config,
                                                Bytes virtual_bytes,
                                                std::uint32_t part_keys);

/// A PART dataset of `virtual_bytes`; returns the physical row count through
/// `phys_rows_out` so lineitem generation can bound its keys.
[[nodiscard]] ir::Dataset make_part_dataset(const AppConfig& config,
                                            Bytes virtual_bytes,
                                            std::size_t& phys_rows_out);

}  // namespace isp::apps
