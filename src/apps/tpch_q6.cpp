// TPC-H Q6: the forecast-revenue-change query (Table I: 6.9 GB).
//
//   SELECT sum(l_extendedprice * l_discount)
//   FROM lineitem
//   WHERE l_shipdate in one year AND l_discount in [0.05, 0.07]
//     AND l_quantity < 24
//
// Structure: a storage-bound scan+filter with ~2% selectivity (the classic
// ISP showcase — Summarizer evaluates the same query), a multiply-accumulate
// over the survivors, and a constant-size result line.
#include <cmath>

#include "apps/detail.hpp"
#include "apps/tpch_data.hpp"

namespace isp::apps {

namespace {

struct Q6Row {
  double extended_price;
  double discount;
};

constexpr std::int32_t kYearStart = 365;
constexpr std::int32_t kYearEnd = 730;

bool q6_match(const LineitemRow& row) {
  return row.ship_date >= kYearStart && row.ship_date < kYearEnd &&
         row.discount >= 0.05 - 1e-9 && row.discount <= 0.07 + 1e-9 &&
         row.quantity < 24.0;
}

}  // namespace

ir::Program make_tpch_q6(const AppConfig& config) {
  ir::Program program("tpch-q6", config.virtual_scale);
  program.add_dataset(
      make_lineitem_dataset(config, detail::table_bytes(6.9, config),
                            /*part_keys=*/200000));

  {
    ir::CodeRegion line;
    line.name = "rows = lineitem[pred(shipdate,discount,qty)]";
    line.inputs = {"lineitem"};
    line.outputs = {"q6_filtered"};
    line.elem_bytes = sizeof(LineitemRow);
    line.cost.cycles_per_elem = 240.0;  // 5 cycles/byte row predicate
    line.host_threads = 1;
    line.csd_threads = 6;  // scan is device-DRAM-bandwidth bound on the CSE
    line.chunks = 128;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto rows = ctx.input(0).physical.as<LineitemRow>();
      detail::filter_rows<Q6Row>(ctx, rows, kLineitemFilterBlock,
                                 ctx.output(0).physical, q6_match,
                                 [](const LineitemRow& row) {
                                   return Q6Row{row.extended_price,
                                                row.discount};
                                 });
    };
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "revenue = sum(rows.price * rows.discount)";
    line.inputs = {"q6_filtered"};
    line.outputs = {"q6_revenue"};
    line.elem_bytes = sizeof(Q6Row);
    line.cost.cycles_per_elem = 30.0;
    line.host_threads = 1;
    line.csd_threads = 6;
    line.chunks = 8;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto rows = ctx.input(0).physical.as<Q6Row>();
      // Serial: a floating reduction, whose bytes depend on addition order.
      double revenue = 0.0;
      for (const auto& row : rows) {
        revenue += row.extended_price * row.discount;
      }
      auto& out = ctx.output(0);
      out.physical.resize_elems<double>(1);
      out.physical.as<double>()[0] = revenue;
    };
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "result = format(revenue)";
    line.inputs = {"q6_revenue"};
    line.outputs = {"q6_result"};
    line.elem_bytes = sizeof(double);
    line.cost.base_cycles = 5000.0;
    line.cost.cycles_per_elem = 1.0;
    line.host_threads = 1;
    line.csd_threads = 1;
    line.chunks = 1;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto revenue = ctx.input(0).physical.as<double>();
      auto& out = ctx.output(0);
      out.physical.resize_elems<double>(2);
      out.physical.as<double>()[0] = revenue.empty() ? 0.0 : revenue[0];
      out.physical.as<double>()[1] = 6.0;  // query id tag
    };
    program.add_line(std::move(line));
  }

  return program;
}

}  // namespace isp::apps
