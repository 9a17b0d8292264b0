// MatrixMul: batched dense matrix multiplication (Table I: 6.0 GB).
//
// A stream of independent 32×32 double GEMM pairs (A_i, B_i) → C_i — the
// shape a recommendation or graphics pipeline produces.  The multiply
// consumes both operand files directly (the Python source memory-maps them),
// then a BLAS-style alpha·C+beta epilogue and a Frobenius-norm check run over
// the result.  Work is linear in the batch count, so every sampled fit is
// clean; the interesting property is the *lack* of reduction (|C| equals
// half the input), which pushes Equation 1 close to its break-even point.
#include <algorithm>
#include <cmath>

#include "apps/data_gen.hpp"
#include "apps/detail.hpp"

namespace isp::apps {

namespace {

constexpr std::size_t kDim = 32;
constexpr std::size_t kMatrixBytes = kDim * kDim * sizeof(double);
/// Matrix pairs per for_blocks piece of the batched multiply.
constexpr std::size_t kGemmBlock = 16;

void gemm(const double* a, const double* b, double* c) {
  for (std::size_t i = 0; i < kDim; ++i) {
    for (std::size_t j = 0; j < kDim; ++j) c[i * kDim + j] = 0.0;
    for (std::size_t k = 0; k < kDim; ++k) {
      const double aik = a[i * kDim + k];
      for (std::size_t j = 0; j < kDim; ++j) {
        c[i * kDim + j] += aik * b[k * kDim + j];
      }
    }
  }
}

}  // namespace

ir::Program make_matmul(const AppConfig& config) {
  ir::Program program("matrixmul", config.virtual_scale);

  const Bytes half = detail::table_bytes(3.0, config);
  const std::size_t matrices = detail::phys_elems(half, config, kMatrixBytes);
  for (const char* name : {"a_batch", "b_batch"}) {
    const std::uint64_t stream = name[0] == 'a' ? 0xaaaa : 0xbbbb;
    program.add_dataset(storage_dataset(
        name, half, matrices * kMatrixBytes,
        static_cast<std::uint32_t>(kMatrixBytes), [&](mem::Buffer& b) {
          fill_doubles(b, matrices * kDim * kDim,
                       Rng{config.seed}.fork(stream));
        }));
  }

  {
    ir::CodeRegion line;
    line.name = "c = batch_matmul(a_batch, b_batch)";
    line.inputs = {"a_batch", "b_batch"};
    line.outputs = {"c"};
    // Element = one (A_i, B_i) pair.
    line.elem_bytes = 2.0 * kMatrixBytes;
    // 2·32³ flops per pair at ~0.5 flops/cycle (naive scalar triple loop).
    line.cost.cycles_per_elem = 4.0 * static_cast<double>(kDim * kDim * kDim);
    line.host_threads = 1;
    line.csd_threads = 6;  // fp64 is the A72's weak point
    line.chunks = 128;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto a = ctx.input(0).physical.as<double>();
      const auto b = ctx.input(1).physical.as<double>();
      const std::size_t pairs = std::min(a.size(), b.size()) / (kDim * kDim);
      auto& out = ctx.output(0);
      out.physical.resize_elems<double>(pairs * kDim * kDim);
      const auto c = out.physical.as<double>();
      ctx.for_blocks(pairs, kGemmBlock, [&](std::size_t begin,
                                            std::size_t end) {
        for (std::size_t p = begin; p < end; ++p) {
          gemm(a.data() + p * kDim * kDim, b.data() + p * kDim * kDim,
               c.data() + p * kDim * kDim);
        }
      });
    };
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "c2 = alpha_c_plus_beta(c)";
    line.inputs = {"c"};
    line.outputs = {"c2"};
    line.elem_bytes = sizeof(double);
    line.cost.cycles_per_elem = 8.0;  // 1 cycle/byte FMA epilogue
    line.host_threads = 1;
    line.csd_threads = 8;
    line.chunks = 8;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto c = ctx.input(0).physical.as<double>();
      auto& out = ctx.output(0);
      out.physical.resize_elems<double>(c.size());
      const auto dst = out.physical.as<double>();
      constexpr double kAlpha = 0.5;
      constexpr double kBeta = 1.0;
      ctx.for_blocks(c.size(), detail::kMapBlock,
                     [&](std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         dst[i] = kAlpha * c[i] + kBeta;
                       }
                     });
    };
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "norm = frobenius(c2)";
    line.inputs = {"c2"};
    line.outputs = {"c_norm"};
    line.elem_bytes = sizeof(double);
    line.cost.cycles_per_elem = 2.0;
    line.host_threads = 1;
    line.csd_threads = 8;
    line.chunks = 4;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto c = ctx.input(0).physical.as<double>();
      // Serial: a floating reduction, whose bytes depend on addition order.
      double sum = 0.0;
      for (const double v : c) sum += v * v;
      auto& out = ctx.output(0);
      out.physical.resize_elems<double>(1);
      out.physical.as<double>()[0] = std::sqrt(sum);
    };
    program.add_line(std::move(line));
  }

  return program;
}

}  // namespace isp::apps
