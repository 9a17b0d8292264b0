// TPC-H Q1: the pricing summary report (Table I: 6.9 GB).
//
// A high-selectivity date filter (~98% of rows survive) followed by a
// six-group aggregation — the interesting ISP case where the *intermediate*
// is nearly as large as the raw input, so offloading only pays if the whole
// pipeline stays on the CSD.
#include <array>

#include "apps/detail.hpp"
#include "apps/tpch_data.hpp"

namespace isp::apps {

namespace {

struct Q1Row {
  double quantity;
  double extended_price;
  double discount;
  double tax;
  char return_flag;
  char line_status;
  char pad[6];
};
static_assert(sizeof(Q1Row) == 40);

struct Q1Group {
  double sum_qty = 0.0;
  double sum_base_price = 0.0;
  double sum_disc_price = 0.0;
  double sum_charge = 0.0;
  double sum_discount = 0.0;
  double count = 0.0;
};

constexpr std::int32_t kCutoff = 2445;  // l_shipdate <= date '1998-09-02'

std::size_t group_index(char flag, char status) {
  const std::size_t f = flag == 'A' ? 0 : (flag == 'N' ? 1 : 2);
  const std::size_t s = status == 'O' ? 0 : 1;
  return f * 2 + s;
}

}  // namespace

ir::Program make_tpch_q1(const AppConfig& config) {
  ir::Program program("tpch-q1", config.virtual_scale);
  program.add_dataset(
      make_lineitem_dataset(config, detail::table_bytes(6.9, config),
                            /*part_keys=*/200000));

  {
    ir::CodeRegion line;
    line.name = "rows = lineitem[shipdate <= cutoff]";
    line.inputs = {"lineitem"};
    line.outputs = {"q1_rows"};
    line.elem_bytes = sizeof(LineitemRow);
    line.cost.cycles_per_elem = 144.0;  // 3 cycles/byte projection+filter
    line.host_threads = 1;
    line.csd_threads = 6;
    line.chunks = 128;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto rows = ctx.input(0).physical.as<LineitemRow>();
      detail::filter_rows<Q1Row>(
          ctx, rows, kLineitemFilterBlock, ctx.output(0).physical,
          [](const LineitemRow& row) { return row.ship_date <= kCutoff; },
          [](const LineitemRow& row) {
            Q1Row q{};
            q.quantity = row.quantity;
            q.extended_price = row.extended_price;
            q.discount = row.discount;
            q.tax = row.tax;
            q.return_flag = row.return_flag;
            q.line_status = row.line_status;
            return q;
          });
    };
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "groups = aggregate(rows, by=(flag,status))";
    line.inputs = {"q1_rows"};
    line.outputs = {"q1_groups"};
    line.elem_bytes = sizeof(Q1Row);
    line.cost.cycles_per_elem = 192.0;  // multi-accumulator update per row
    line.host_threads = 1;
    line.csd_threads = 6;
    line.chunks = 128;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto rows = ctx.input(0).physical.as<Q1Row>();
      // Serial: floating reductions, whose bytes depend on addition order.
      std::array<Q1Group, 6> groups{};
      for (const auto& row : rows) {
        auto& g = groups[group_index(row.return_flag, row.line_status)];
        g.sum_qty += row.quantity;
        g.sum_base_price += row.extended_price;
        const double disc_price = row.extended_price * (1.0 - row.discount);
        g.sum_disc_price += disc_price;
        g.sum_charge += disc_price * (1.0 + row.tax);
        g.sum_discount += row.discount;
        g.count += 1.0;
      }
      auto& out = ctx.output(0);
      out.physical.resize_elems<Q1Group>(groups.size());
      auto dst = out.physical.as<Q1Group>();
      for (std::size_t i = 0; i < groups.size(); ++i) dst[i] = groups[i];
    };
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "report = averages(groups)";
    line.inputs = {"q1_groups"};
    line.outputs = {"q1_report"};
    line.elem_bytes = sizeof(Q1Group);
    line.cost.base_cycles = 8000.0;
    line.cost.cycles_per_elem = 50.0;
    line.host_threads = 1;
    line.csd_threads = 1;
    line.chunks = 1;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto groups = ctx.input(0).physical.as<Q1Group>();
      auto& out = ctx.output(0);
      // avg_qty, avg_price, avg_disc per group.
      out.physical.resize_elems<double>(groups.size() * 3);
      auto dst = out.physical.as<double>();
      for (std::size_t i = 0; i < groups.size(); ++i) {
        const double n = groups[i].count > 0.0 ? groups[i].count : 1.0;
        dst[i * 3 + 0] = groups[i].sum_qty / n;
        dst[i * 3 + 1] = groups[i].sum_base_price / n;
        dst[i * 3 + 2] = groups[i].sum_discount / n;
      }
    };
    program.add_line(std::move(line));
  }

  return program;
}

}  // namespace isp::apps
