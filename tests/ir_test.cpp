// Unit tests: complexity basis, cost models, program structure, sampling.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "ir/complexity.hpp"
#include "ir/cost_model.hpp"
#include "ir/plan.hpp"
#include "ir/program.hpp"

namespace isp::ir {
namespace {

TEST(Complexity, BasisValues) {
  EXPECT_DOUBLE_EQ(basis(ComplexityClass::O1, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(basis(ComplexityClass::ON, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(basis(ComplexityClass::ON2, 100.0), 10000.0);
  EXPECT_DOUBLE_EQ(basis(ComplexityClass::ON3, 10.0), 1000.0);
  EXPECT_NEAR(basis(ComplexityClass::ONLogN, 1023.0),
              1023.0 * std::log2(1024.0), 1e-9);
  // Degenerate inputs clamp to n=1.
  EXPECT_DOUBLE_EQ(basis(ComplexityClass::ON, 0.5), 1.0);
}

TEST(Complexity, Names) {
  EXPECT_EQ(to_string(ComplexityClass::O1), "O(1)");
  EXPECT_EQ(to_string(ComplexityClass::ONLogN), "O(n log n)");
  EXPECT_EQ(kAllComplexityClasses.size(), 5u);
}

TEST(CostModel, LinearGrowth) {
  CostModel model;
  model.base_cycles = 100.0;
  model.cycles_per_elem = 2.0;
  model.jitter = 0.0;
  EXPECT_DOUBLE_EQ(model.cycles_for(1000.0).value(), 100.0 + 2000.0);
  EXPECT_DOUBLE_EQ(model.instructions_for(1000.0), 2100.0 * model.host_ipc);
}

TEST(CostModel, PowerLaw) {
  CostModel model;
  model.base_cycles = 0.0;
  model.cycles_per_elem = 1.0;
  model.exponent = 1.5;
  model.jitter = 0.0;
  EXPECT_NEAR(model.cycles_for(100.0).value(), 1000.0, 1e-9);
}

TEST(CostModel, JitterBoundedAndDeterministic) {
  CostModel model;
  model.base_cycles = 0.0;
  model.cycles_per_elem = 1.0;
  model.jitter = 0.05;
  model.jitter_seed = 77;
  const double clean = 1e6;
  const double a = model.cycles_for(1e6).value();
  const double b = model.cycles_for(1e6).value();
  EXPECT_EQ(a, b);  // deterministic for a given (n, seed)
  EXPECT_GE(a, clean * 0.95);
  EXPECT_LE(a, clean * 1.05);
  // Different seeds perturb differently.
  CostModel other = model;
  other.jitter_seed = 78;
  EXPECT_NE(other.cycles_for(1e6).value(), a);
}

TEST(CostModel, RejectsNegativeCount) {
  CostModel model;
  EXPECT_THROW(static_cast<void>(model.cycles_for(-1.0)), Error);
}

Program tiny_program() {
  Program program("tiny", 16.0);
  Dataset d;
  d.object.name = "input";
  d.object.location = mem::Location::Storage;
  d.object.virtual_bytes = Bytes{16 * 1024};
  d.object.physical.resize_elems<float>(256);
  d.elem_bytes = sizeof(float);
  program.add_dataset(std::move(d));

  CodeRegion line;
  line.name = "out = f(input)";
  line.inputs = {"input"};
  line.outputs = {"out"};
  line.elem_bytes = sizeof(float);
  line.kernel = [](KernelCtx& ctx) {
    const auto in = ctx.input(0).physical.as<float>();
    auto& out = ctx.output(0);
    out.physical.resize_elems<float>(in.size() / 2);
    auto dst = out.physical.as<float>();
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = in[2 * i];
  };
  program.add_line(std::move(line));
  return program;
}

TEST(Program, ValidatePasses) {
  const auto program = tiny_program();
  EXPECT_NO_THROW(program.validate());
  EXPECT_EQ(program.line_count(), 1u);
  EXPECT_EQ(program.total_storage_bytes().count(), 16u * 1024u);
}

TEST(Program, ValidateCatchesUnknownInput) {
  auto program = tiny_program();
  CodeRegion bad;
  bad.name = "bad";
  bad.inputs = {"nonexistent"};
  bad.outputs = {"y"};
  program.add_line(std::move(bad));
  EXPECT_THROW(program.validate(), Error);
}

TEST(Program, ValidateCatchesDuplicateOutput) {
  auto program = tiny_program();
  CodeRegion bad;
  bad.name = "bad";
  bad.inputs = {"input"};
  bad.outputs = {"out"};  // already produced by line 0
  program.add_line(std::move(bad));
  EXPECT_THROW(program.validate(), Error);
}

TEST(Program, ValidateCatchesDuplicateLineName) {
  auto program = tiny_program();
  CodeRegion dup;
  dup.name = "out = f(input)";
  dup.inputs = {"out"};
  dup.outputs = {"z"};
  program.add_line(std::move(dup));
  EXPECT_THROW(program.validate(), Error);
}

TEST(Program, StoreHoldsDatasets) {
  const auto program = tiny_program();
  auto store = program.make_store();
  EXPECT_TRUE(store.contains("input"));
  EXPECT_FALSE(store.contains("out"));
  EXPECT_EQ(store.at("input").physical.size_as<float>(), 256u);

  // The timing-only store keeps names, locations and sizes, not payloads.
  const auto virtual_store = program.make_virtual_store();
  EXPECT_EQ(virtual_store.size(), store.size());
  const auto& v = virtual_store.at("input");
  EXPECT_EQ(v.location, store.at("input").location);
  EXPECT_EQ(v.virtual_bytes, store.at("input").virtual_bytes);
  EXPECT_TRUE(v.physical.empty());
}

TEST(Program, SampledStoreScalesBothSizes) {
  const auto program = tiny_program();
  auto store = program.make_sampled_store(0.25);
  const auto& obj = store.at("input");
  EXPECT_EQ(obj.virtual_bytes.count(), 4u * 1024u);
  EXPECT_EQ(obj.physical.size_as<float>(), 64u);
}

TEST(Program, SampledStoreKeepsAtLeastOneElement) {
  const auto program = tiny_program();
  auto store = program.make_sampled_store(1.0 / 100000.0);
  EXPECT_GE(store.at("input").physical.size_as<float>(), 1u);
}

TEST(Program, PrefixSamplePreservesLeadingData) {
  const auto program = tiny_program();
  auto full = program.make_store();
  auto full_view = full.at("input").physical.as<float>();
  full_view[0] = 42.0F;  // mutate the copy, not the program

  const auto sampled =
      prefix_sample(full.at("input"), 0.5, sizeof(float));
  EXPECT_DOUBLE_EQ(sampled.physical.as<float>()[0], 42.0F);
  EXPECT_EQ(sampled.physical.size_as<float>(), 128u);
}

TEST(Program, CustomSamplerIsUsed) {
  auto program = tiny_program();
  Dataset model;
  model.object.name = "model";
  model.object.location = mem::Location::HostDram;
  model.object.virtual_bytes = Bytes{100};
  model.object.physical.resize_elems<std::byte>(100);
  model.sampler = [](const mem::DataObject& whole, double) { return whole; };
  program.add_dataset(std::move(model));

  auto store = program.make_sampled_store(0.01);
  EXPECT_EQ(store.at("model").physical.size_bytes(), 100u);
}

TEST(Program, KernelProducesOutput) {
  const auto program = tiny_program();
  auto store = program.make_store();
  KernelCtx ctx(store, program.lines()[0].inputs, program.lines()[0].outputs,
                program.virtual_scale());
  program.lines()[0].kernel(ctx);
  EXPECT_TRUE(store.contains("out"));
  EXPECT_EQ(store.at("out").physical.size_as<float>(), 128u);
}

/// Pieces for_blocks hands `fn`, in call order.
using Pieces = std::vector<std::pair<std::size_t, std::size_t>>;

Pieces pieces_of(const KernelCtx& ctx, std::size_t n, std::size_t block) {
  Pieces seen;
  ctx.for_blocks(n, block, [&](std::size_t begin, std::size_t end) {
    seen.emplace_back(begin, end);
  });
  return seen;
}

TEST(ForBlocks, WithoutRunnerRunsFixedPiecesInlineInOrder) {
  ObjectStore store;
  const std::vector<std::string> none;
  const KernelCtx ctx(store, none, none, 1.0);
  EXPECT_EQ(pieces_of(ctx, 10, 4), (Pieces{{0, 4}, {4, 8}, {8, 10}}));
  EXPECT_EQ(pieces_of(ctx, 8, 4), (Pieces{{0, 4}, {4, 8}}));
  EXPECT_EQ(pieces_of(ctx, 3, 4), (Pieces{{0, 3}}));
  EXPECT_TRUE(pieces_of(ctx, 0, 4).empty());
  EXPECT_THROW(pieces_of(ctx, 10, 0), Error);
}

TEST(ForBlocks, RunnerGetsTheSamePiecesOnlyFromTwoPiecesOn) {
  ObjectStore store;
  const std::vector<std::string> none;
  std::vector<std::size_t> calls;
  // Runs the tasks backwards: the pieces, not their order, are the contract.
  const BlockRunner backwards =
      [&](std::size_t n, const std::function<void(std::size_t)>& task) {
        calls.push_back(n);
        for (std::size_t k = n; k-- > 0;) task(k);
      };
  const KernelCtx ctx(store, none, none, 1.0, &backwards);
  EXPECT_EQ(pieces_of(ctx, 10, 4), (Pieces{{8, 10}, {4, 8}, {0, 4}}));
  EXPECT_EQ(pieces_of(ctx, 4, 4), (Pieces{{0, 4}}));
  EXPECT_TRUE(pieces_of(ctx, 0, 4).empty());
  EXPECT_EQ(calls, (std::vector<std::size_t>{3}));
}

TEST(Plan, Helpers) {
  auto plan = Plan::host_only(4);
  EXPECT_EQ(plan.size(), 4u);
  EXPECT_FALSE(plan.any_on_csd());
  plan.placement[2] = Placement::Csd;
  EXPECT_TRUE(plan.any_on_csd());
  EXPECT_EQ(plan.csd_line_count(), 1u);
  EXPECT_EQ(to_string(Placement::Csd), "csd");
  EXPECT_EQ(to_string(Placement::Host), "host");
}

TEST(Program, RejectsBadConstruction) {
  EXPECT_THROW(Program("x", 0.5), Error);  // scale must be >= 1
  Program program("x", 2.0);
  CodeRegion line;
  line.name = "";
  EXPECT_THROW(program.add_line(std::move(line)), Error);
  CodeRegion zero_elem;
  zero_elem.name = "z";
  zero_elem.elem_bytes = 0.0;
  EXPECT_THROW(program.add_line(std::move(zero_elem)), Error);
}

}  // namespace
}  // namespace isp::ir
