// TPC-H Q14: the promotion-effect query (Table I: 7.1 GB = lineitem + part).
//
// A one-month shipdate filter over lineitem (~1.2% selectivity), a promo
// lookup structure built from PART, and a hash-join-style conditional
// aggregation.  Two storage-resident inputs exercise multi-dataset planning.
#include "apps/detail.hpp"
#include "apps/tpch_data.hpp"

namespace isp::apps {

namespace {

struct Q14Row {
  double extended_price;
  double discount;
  std::int32_t part_key;
  std::int32_t pad;
};
static_assert(sizeof(Q14Row) == 24);

constexpr std::int32_t kMonthStart = 2160;
constexpr std::int32_t kMonthEnd = 2190;

}  // namespace

ir::Program make_tpch_q14(const AppConfig& config) {
  ir::Program program("tpch-q14", config.virtual_scale);

  std::size_t part_rows = 0;
  program.add_dataset(
      make_part_dataset(config, detail::table_bytes(0.2, config), part_rows));
  program.add_dataset(make_lineitem_dataset(
      config, detail::table_bytes(6.9, config),
      static_cast<std::uint32_t>(part_rows)));

  {
    ir::CodeRegion line;
    line.name = "rows = lineitem[shipdate in month]";
    line.inputs = {"lineitem"};
    line.outputs = {"q14_rows"};
    line.elem_bytes = sizeof(LineitemRow);
    line.cost.cycles_per_elem = 240.0;  // 5 cycles/byte filter+projection
    line.host_threads = 1;
    line.csd_threads = 6;
    line.chunks = 128;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto rows = ctx.input(0).physical.as<LineitemRow>();
      detail::filter_rows<Q14Row>(
          ctx, rows, kLineitemFilterBlock, ctx.output(0).physical,
          [](const LineitemRow& row) {
            return row.ship_date >= kMonthStart && row.ship_date < kMonthEnd;
          },
          [](const LineitemRow& row) {
            return Q14Row{row.extended_price, row.discount, row.part_key, 0};
          });
    };
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "promo = build_lookup(part)";
    line.inputs = {"part"};
    line.outputs = {"q14_promo_map"};
    line.elem_bytes = sizeof(PartRow);
    line.cost.cycles_per_elem = 64.0;
    line.host_threads = 1;
    line.csd_threads = 4;
    line.chunks = 8;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto parts = ctx.input(0).physical.as<PartRow>();
      auto& out = ctx.output(0);
      out.physical.resize_elems<std::uint8_t>(parts.size());
      auto map = out.physical.as<std::uint8_t>();
      for (const auto& part : parts) {
        const auto key = static_cast<std::size_t>(part.part_key);
        if (key < map.size()) {
          map[key] = part.is_promo != 0 ? 1 : 0;
        }
      }
    };
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "ratio = join_aggregate(rows, promo)";
    line.inputs = {"q14_rows", "q14_promo_map"};
    line.outputs = {"q14_result"};
    line.elem_bytes = sizeof(Q14Row);
    line.cost.cycles_per_elem = 100.0;  // random map lookup per row
    line.host_threads = 1;
    line.csd_threads = 4;  // pointer-chasing joins parallelise poorly
    line.chunks = 8;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto rows = ctx.input(0).physical.as<Q14Row>();
      const auto map = ctx.input(1).physical.as<std::uint8_t>();
      // Serial: floating reductions, whose bytes depend on addition order.
      double promo = 0.0;
      double total = 0.0;
      for (const auto& row : rows) {
        const double revenue = row.extended_price * (1.0 - row.discount);
        total += revenue;
        const auto key = static_cast<std::size_t>(row.part_key);
        if (key < map.size() && map[key] != 0) promo += revenue;
      }
      auto& out = ctx.output(0);
      out.physical.resize_elems<double>(3);
      auto dst = out.physical.as<double>();
      dst[0] = total > 0.0 ? 100.0 * promo / total : 0.0;
      dst[1] = promo;
      dst[2] = total;
    };
    program.add_line(std::move(line));
  }

  return program;
}

}  // namespace isp::apps
