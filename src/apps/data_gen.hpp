// Synthetic dataset generators for the evaluation workloads.
//
// The paper evaluates on multi-gigabyte inputs (TPC-H tables, feature
// matrices, edge lists).  We do not ship those; each generator produces a
// deterministic, seeded physical payload whose statistics match the workload
// (TPC-H value distributions, Zipf-skewed graphs) at the configured physical
// scale, while the owning DataObject carries the Table-I virtual size.
#pragma once

#include <cstdint>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ir/program.hpp"
#include "mem/data_object.hpp"

namespace isp::apps {

// ---- TPC-H ---------------------------------------------------------------

/// One LINEITEM row with the columns Q1/Q6/Q14 touch.
struct LineitemRow {
  double quantity;
  double extended_price;
  double discount;
  double tax;
  std::int32_t ship_date;  // days since epoch-of-benchmark (0..2555 ≈ 7y)
  std::int32_t part_key;
  char return_flag;  // 'A' | 'N' | 'R'
  char line_status;  // 'O' | 'F'
  char pad[6];
};
static_assert(sizeof(LineitemRow) == 48);

struct PartRow {
  std::int32_t part_key;
  std::int32_t is_promo;  // p_type LIKE 'PROMO%'
};
static_assert(sizeof(PartRow) == 8);

/// `part_keys` bounds l_partkey so joins against a PART table of that many
/// rows resolve.
void fill_lineitem(mem::Buffer& buffer, std::size_t rows,
                   std::uint32_t part_keys, Rng rng);
void fill_part(mem::Buffer& buffer, std::size_t rows, Rng rng);

// ---- Blackscholes ----------------------------------------------------------

/// On-disk record: double-precision fields as the upstream feed writes them.
struct OptionRecord {
  double spot;
  double strike;
  double rate;
  double volatility;
  double expiry;
  std::int32_t is_call;
  std::int32_t pad;
};
static_assert(sizeof(OptionRecord) == 48);

/// In-memory row after parsing (single precision — half the volume).
struct OptionRow {
  float spot;
  float strike;
  float rate;
  float volatility;
  float expiry;
  std::int32_t is_call;
};
static_assert(sizeof(OptionRow) == 24);

void fill_options(mem::Buffer& buffer, std::size_t rows, Rng rng);

// ---- Dense numeric ---------------------------------------------------------

/// Uniform floats in [-1, 1).
void fill_floats(mem::Buffer& buffer, std::size_t count, Rng rng);
/// Uniform doubles in [-1, 1).
void fill_doubles(mem::Buffer& buffer, std::size_t count, Rng rng);

// ---- Graphs ----------------------------------------------------------------

/// On-disk edge record: 64-bit global vertex ids, as graph dumps ship them.
struct EdgeRecord {
  std::uint64_t src;
  std::uint64_t dst;
};
static_assert(sizeof(EdgeRecord) == 16);

/// In-memory edge after id narrowing.
struct Edge {
  std::uint32_t src;
  std::uint32_t dst;
};
static_assert(sizeof(Edge) == 8);

/// Zipf-skewed edge list over `vertices` vertices.  Both endpoints are drawn
/// from a Zipf distribution (hubs dominate), so the number of *distinct*
/// vertices is concave in the number of edges sampled — the property that
/// makes compacted-CSR output volume concave and drives the paper's
/// over-estimation of CSR size (§V).
void fill_edges_zipf(mem::Buffer& buffer, std::size_t edges,
                     std::uint32_t vertices, double skew, Rng rng);

// ---- GBDT forest (LightGBM) ------------------------------------------------

/// One node of a binary decision tree laid out breadth-first; leaves carry
/// values in `threshold` and feature = -1.
struct TreeNode {
  std::int32_t feature;  // -1 for leaf
  float threshold;       // split threshold, or leaf value
};
static_assert(sizeof(TreeNode) == 8);

/// A forest of `trees` complete binary trees of `depth` levels over
/// `features` input features, laid out tree-major.
void fill_forest(mem::Buffer& buffer, std::size_t trees, std::uint32_t depth,
                 std::uint32_t features, Rng rng);

[[nodiscard]] constexpr std::size_t forest_nodes(std::size_t trees,
                                                 std::uint32_t depth) {
  return trees * ((std::size_t{1} << depth) - 1);
}

// ---- Helpers ----------------------------------------------------------------

/// Build a storage-resident dataset: virtual size from Table I (scaled by the
/// config), physical payload of `phys_bytes` sized and filled by `fill` (the
/// generators above size their buffer themselves, so it is allocated once).
template <typename Fill>
ir::Dataset storage_dataset(const std::string& name, Bytes virtual_bytes,
                            std::size_t phys_bytes, std::uint32_t elem_bytes,
                            Fill&& fill) {
  ir::Dataset d;
  d.object.name = name;
  d.object.location = mem::Location::Storage;
  d.object.virtual_bytes = virtual_bytes;
  d.elem_bytes = elem_bytes;
  fill(d.object.physical);
  ISP_CHECK(d.object.physical.size_bytes() == phys_bytes,
            "fill for '" << name << "' produced "
                         << d.object.physical.size_bytes()
                         << " bytes, expected " << phys_bytes);
  return d;
}

}  // namespace isp::apps
