// LightGBM: gradient-boosted-decision-tree inference (Table I: 7.1 GB).
//
// A 40-tree, depth-6 forest scores 32-feature rows; the margin vector is
// squashed and thresholded into labels and summarised into a tiny histogram.
// Inference is branchy per row — the kind of code the CSE's in-order cores
// run at a disadvantage — so only part of the pipeline offloads profitably.
#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "apps/data_gen.hpp"
#include "apps/detail.hpp"

namespace isp::apps {

namespace {

constexpr std::uint32_t kFeatures = 32;
constexpr std::size_t kTrees = 40;
constexpr std::uint32_t kDepth = 6;
/// On-disk rows carry double-precision features (the ETL output)...
constexpr std::size_t kFileRowBytes = kFeatures * sizeof(double);
/// ...inference runs on single-precision rows.
constexpr std::size_t kRowBytes = kFeatures * sizeof(float);
constexpr std::size_t kNodesPerTree = (std::size_t{1} << kDepth) - 1;

/// Rows scored together: each tree is walked by kRowBlock rows at once, one
/// level at a time, so their node loads overlap instead of each row's
/// dependent chain of loads running alone.
constexpr std::size_t kRowBlock = 8;
/// Rows per for_blocks piece of forest_predict: whole 8-row blocks.
constexpr std::size_t kPredictBlock = 128 * kRowBlock;
/// Margins per for_blocks piece of sigmoid_threshold.
constexpr std::size_t kSigmoidBlock = std::size_t{1} << 12;

/// Score `count` (at most kRowBlock) consecutive rows into `margins`.  Each
/// row's margin is summed in tree order, exactly as a row-at-a-time walk
/// sums it.  fill_forest builds complete trees, so every walk reaches a leaf
/// after kDepth - 1 hops.
void score_block(const float* rows, std::size_t count,
                 std::span<const TreeNode> forest, float* margins) {
  std::array<float, kRowBlock> margin{};
  for (std::size_t t = 0; t < kTrees; ++t) {
    const TreeNode* tree = forest.data() + t * kNodesPerTree;
    std::array<std::size_t, kRowBlock> node{};
    for (std::uint32_t level = 1; level < kDepth; ++level) {
      for (std::size_t r = 0; r < count; ++r) {
        const TreeNode& split = tree[node[r]];
        const float v =
            rows[r * kFeatures + static_cast<std::size_t>(split.feature)];
        node[r] = 2 * node[r] + (v <= split.threshold ? 1 : 2);
      }
    }
    for (std::size_t r = 0; r < count; ++r) {
      ISP_DCHECK(tree[node[r]].feature < 0, "forest walk ended off a leaf");
      margin[r] += tree[node[r]].threshold;  // leaf value
    }
  }
  for (std::size_t r = 0; r < count; ++r) margins[r] = margin[r];
}

}  // namespace

ir::Program make_lightgbm(const AppConfig& config) {
  ir::Program program("lightgbm", config.virtual_scale);

  const Bytes size = detail::table_bytes(7.1, config);
  const std::size_t rows = detail::phys_elems(size, config, kFileRowBytes);
  program.add_dataset(storage_dataset(
      "features_file", size, rows * kFileRowBytes,
      static_cast<std::uint32_t>(kFileRowBytes), [&](mem::Buffer& b) {
        fill_doubles(b, rows * kFeatures, Rng{config.seed}.fork(0x16b0));
      }));

  // The trained model: a small memory-resident dataset the sampler must not
  // truncate.
  {
    ir::Dataset model;
    model.object.name = "model";
    model.object.location = mem::Location::HostDram;
    model.object.virtual_bytes = 8_MiB;
    fill_forest(model.object.physical, kTrees, kDepth, kFeatures,
                Rng{config.seed}.fork(0xf07e));
    model.elem_bytes = sizeof(TreeNode);
    model.sampler = [](const mem::DataObject& full, double) { return full; };
    program.add_dataset(std::move(model));
  }

  {
    ir::CodeRegion line;
    line.name = "features = load_f32(features_file)";
    line.inputs = {"features_file"};
    line.outputs = {"features"};
    line.elem_bytes = kFileRowBytes;
    line.cost.cycles_per_elem = 512.0;  // 2 cycles/byte decode+narrow
    line.host_threads = 1;
    line.csd_threads = 6;
    line.chunks = 64;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto in = ctx.input(0).physical.as<double>();
      auto& out = ctx.output(0);
      out.physical.resize_elems<float>(in.size());
      const auto dst = out.physical.as<float>();
      ctx.for_blocks(in.size(), detail::kMapBlock,
                     [&](std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         dst[i] = static_cast<float>(in[i]);
                       }
                     });
    };
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "margins = forest_predict(features, model)";
    line.inputs = {"features", "model"};
    line.outputs = {"margins"};
    line.elem_bytes = kRowBytes;
    line.cost.cycles_per_elem = 1920.0;  // trees × depth × branchy hops
    line.host_threads = 1;
    line.csd_threads = 6;  // in-order cores lose on branchy traversal
    line.chunks = 128;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto feats = ctx.input(0).physical.as<float>();
      const auto forest = ctx.input(1).physical.as<TreeNode>();
      const std::size_t n = feats.size() / kFeatures;
      auto& out = ctx.output(0);
      out.physical.resize_elems<float>(n);
      const auto dst = out.physical.as<float>();
      ctx.for_blocks(n, kPredictBlock, [&](std::size_t begin,
                                           std::size_t end) {
        for (std::size_t i = begin; i < end; i += kRowBlock) {
          score_block(feats.data() + i * kFeatures,
                      std::min(kRowBlock, end - i), forest, dst.data() + i);
        }
      });
    };
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "labels = sigmoid_threshold(margins)";
    line.inputs = {"margins"};
    line.outputs = {"labels"};
    line.elem_bytes = sizeof(float);
    line.cost.cycles_per_elem = 20.0;  // exp + compare
    line.host_threads = 1;
    line.csd_threads = 8;
    line.chunks = 8;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto margins = ctx.input(0).physical.as<float>();
      auto& out = ctx.output(0);
      out.physical.resize_elems<std::uint8_t>(margins.size());
      const auto dst = out.physical.as<std::uint8_t>();
      ctx.for_blocks(margins.size(), kSigmoidBlock,
                     [&](std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         const float p =
                             1.0F / (1.0F + std::exp(-margins[i]));
                         dst[i] = p >= 0.5F ? 1 : 0;
                       }
                     });
    };
    program.add_line(std::move(line));
  }

  {
    ir::CodeRegion line;
    line.name = "summary = histogram(labels)";
    line.inputs = {"labels"};
    line.outputs = {"label_summary"};
    line.elem_bytes = 1.0;
    line.cost.cycles_per_elem = 2.0;
    line.host_threads = 1;
    line.csd_threads = 8;
    line.chunks = 4;
    line.kernel = [](ir::KernelCtx& ctx) {
      const auto labels = ctx.input(0).physical.as<std::uint8_t>();
      std::array<std::uint64_t, 2> histogram{};
      for (const auto label : labels) histogram[label & 1] += 1;
      auto& out = ctx.output(0);
      out.physical.resize_elems<std::uint64_t>(2);
      auto dst = out.physical.as<std::uint64_t>();
      dst[0] = histogram[0];
      dst[1] = histogram[1];
    };
    program.add_line(std::move(line));
  }

  return program;
}

}  // namespace isp::apps
