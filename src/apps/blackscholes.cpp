// Blackscholes: European option pricing (Table I: 9.1 GB).
//
// The PARSEC-style workload: parse a large table of option parameters, price
// every option with the closed-form Black–Scholes model, and reduce the
// prices to portfolio statistics.  Compute-heavy per byte, with a 6× volume
// reduction at the pricing step and a total reduction to 32 bytes — the
// pattern that makes it one of the strongest ISP candidates in Figure 4 and
// one of the applications ActivePy chooses to migrate at 50% availability.
#include <algorithm>
#include <cmath>

#include "apps/data_gen.hpp"
#include "apps/detail.hpp"

namespace isp::apps {

namespace {

/// for_blocks pieces: rows per parse piece and options per pricing piece.
constexpr std::size_t kParseBlock = std::size_t{1} << 14;
constexpr std::size_t kPriceBlock = std::size_t{1} << 13;

/// Cumulative normal distribution (Abramowitz–Stegun polynomial, the same
/// approximation the PARSEC kernel uses).
float cndf(float x) {
  const float sign = x < 0.0F ? -1.0F : 1.0F;
  const float ax = std::fabs(x);
  const float k = 1.0F / (1.0F + 0.2316419F * ax);
  const float poly =
      k * (0.319381530F +
           k * (-0.356563782F +
                k * (1.781477937F + k * (-1.821255978F + k * 1.330274429F))));
  const float pdf =
      0.39894228040143270F * std::exp(-0.5F * ax * ax);  // 1/sqrt(2π)
  const float cdf = 1.0F - pdf * poly;
  return sign > 0.0F ? cdf : 1.0F - cdf;
}

float price_option(const OptionRow& opt) {
  const float sqrt_t = std::sqrt(opt.expiry);
  const float d1 =
      (std::log(opt.spot / opt.strike) +
       (opt.rate + 0.5F * opt.volatility * opt.volatility) * opt.expiry) /
      (opt.volatility * sqrt_t);
  const float d2 = d1 - opt.volatility * sqrt_t;
  const float discounted = opt.strike * std::exp(-opt.rate * opt.expiry);
  if (opt.is_call != 0) {
    return opt.spot * cndf(d1) - discounted * cndf(d2);
  }
  return discounted * cndf(-d2) - opt.spot * cndf(-d1);
}

}  // namespace

ir::Program make_blackscholes(const AppConfig& config) {
  ir::Program program("blackscholes", config.virtual_scale);

  const Bytes size = detail::table_bytes(9.1, config);
  const std::size_t rows =
      detail::phys_elems(size, config, sizeof(OptionRecord));
  program.add_dataset(storage_dataset(
      "options_file", size, rows * sizeof(OptionRecord), sizeof(OptionRecord),
      [&](mem::Buffer& b) {
        fill_options(b, rows, Rng{config.seed}.fork(0xb5c0));
      }));

  {
    ir::CodeRegion line;
    line.name = "options = parse(options_file)";
    line.inputs = {"options_file"};
    line.outputs = {"options"};
    line.elem_bytes = sizeof(OptionRecord);
    line.cost.cycles_per_elem = 96.0;  // 2 cycles/byte parse + downconvert
    line.host_threads = 1;
    line.csd_threads = 6;
    line.chunks = 64;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto in = ctx.input(0).physical.as<OptionRecord>();
      auto& out = ctx.output(0);
      out.physical.resize_elems<OptionRow>(in.size());
      const auto dst = out.physical.as<OptionRow>();
      ctx.for_blocks(in.size(), kParseBlock, [&](std::size_t begin,
                                                 std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          OptionRow row;
          row.spot = static_cast<float>(in[i].spot);
          row.strike = static_cast<float>(in[i].strike);
          row.rate = static_cast<float>(in[i].rate);
          // Defensive clamping stands in for parse-time validation.
          row.volatility =
              std::max(static_cast<float>(in[i].volatility), 1e-4F);
          row.expiry = std::max(static_cast<float>(in[i].expiry), 1e-4F);
          row.is_call = in[i].is_call;
          dst[i] = row;
        }
      });
    };
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "prices = black_scholes(options)";
    line.inputs = {"options"};
    line.outputs = {"prices"};
    line.elem_bytes = sizeof(OptionRow);
    line.cost.cycles_per_elem = 480.0;  // exp/log/sqrt chain per option
    line.host_threads = 1;
    line.csd_threads = 8;  // embarrassingly parallel across CSE cores
    line.chunks = 128;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto in = ctx.input(0).physical.as<OptionRow>();
      auto& out = ctx.output(0);
      out.physical.resize_elems<float>(in.size());
      const auto dst = out.physical.as<float>();
      ctx.for_blocks(in.size(), kPriceBlock,
                     [&](std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         dst[i] = price_option(in[i]);
                       }
                     });
    };
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "stats = reduce(prices)";
    line.inputs = {"prices"};
    line.outputs = {"price_stats"};
    line.elem_bytes = sizeof(float);
    line.cost.cycles_per_elem = 4.0;
    line.host_threads = 1;
    line.csd_threads = 8;
    line.chunks = 8;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto prices = ctx.input(0).physical.as<float>();
      // Serial: a floating reduction, whose bytes depend on addition order.
      double sum = 0.0;
      double sum_sq = 0.0;
      float lo = prices.empty() ? 0.0F : prices[0];
      float hi = lo;
      for (const float p : prices) {
        sum += p;
        sum_sq += static_cast<double>(p) * p;
        lo = std::min(lo, p);
        hi = std::max(hi, p);
      }
      const double n = prices.empty() ? 1.0 : static_cast<double>(prices.size());
      auto& out = ctx.output(0);
      out.physical.resize_elems<double>(4);
      auto dst = out.physical.as<double>();
      dst[0] = sum / n;
      dst[1] = std::sqrt(std::max(0.0, sum_sq / n - (sum / n) * (sum / n)));
      dst[2] = lo;
      dst[3] = hi;
    };
    program.add_line(std::move(line));
  }

  return program;
}

}  // namespace isp::apps
