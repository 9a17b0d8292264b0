// Golden kernel outputs: pins the bytes every registered app produces.
//
// For each of the 10 apps at a reduced size and a fixed seed this suite
// checks two constants recorded from a known-good build:
//   * an FNV-1a over every dataset payload (names and bytes, in dataset
//     order), which pins the generators and the Rng draws they make;
//   * recovery::digest_outputs of one host-only functional run, which pins
//     every kernel's output bytes.
// A change that only makes kernels or generators faster must leave both
// unchanged.  The CSR builds of pagerank and sparsemv are further checked
// byte for byte against an in-test hash-map first-seen remap, on the full
// store and on each of the sampler's prefix fractions.
//
// Kernel parallelism is checked at the same size: a functional run whose
// kernels fan out across the engine's pool gives the same output bytes as
// one whose kernels run inline (inside a batch), every data-parallel line
// spans at least two for_blocks pieces there, its pieces give the same
// bytes in reverse order, and only an outermost run starts threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/data_gen.hpp"
#include "apps/registry.hpp"
#include "common/digest.hpp"
#include "common/error.hpp"
#include "exec/pool.hpp"
#include "profile/sampler.hpp"
#include "recovery/recovery.hpp"
#include "runtime/engine.hpp"

namespace isp::apps {
namespace {

AppConfig golden_config() {
  AppConfig config;
  config.size_factor = 0.05;
  config.seed = 1234;
  return config;
}

std::uint64_t dataset_digest(const ir::Program& program) {
  std::uint64_t h = kFnvOffset;
  for (const auto& d : program.datasets()) {
    h = fnv1a(h, d.object.name);
    const auto bytes = d.object.physical.as<const std::byte>();
    h = fnv1a_bytes(h, bytes.data(), bytes.size());
  }
  return h;
}

std::uint64_t functional_output_digest(const ir::Program& program) {
  runtime::EngineOptions options;
  options.monitoring = false;
  options.migration = false;
  system::SystemModel system;
  auto store = program.make_store();
  runtime::run_program(system, program,
                       ir::Plan::host_only(program.line_count()),
                       codegen::ExecMode::NativeC, options, &store);
  return recovery::digest_outputs(program, store);
}

struct Golden {
  const char* app;
  std::uint64_t datasets;
  std::uint64_t outputs;
};

void PrintTo(const Golden& golden, std::ostream* os) { *os << golden.app; }

// Recorded with golden_config() on the build before the shared payloads, the
// dense CSR remap, the row-interleaved forest walk and the hoisted Zipf
// constants; each of those changes left every value as it was.
constexpr Golden kGolden[] = {
    {"blackscholes", 0x9418bfc6689e5e43ULL, 0x4743e828bbaee799ULL},
    {"kmeans", 0xc9d373eb0724723cULL, 0x395e66f462222078ULL},
    {"lightgbm", 0xe75080c9d48bcbf2ULL, 0xab04779b7baeb6ccULL},
    {"matrixmul", 0x8303aac2b176c79aULL, 0x2196c1f427595588ULL},
    {"mixedgemm", 0xb5cd8aec0e03ba15ULL, 0x7de0ff68375c3ec8ULL},
    {"pagerank", 0xb30f3e81d5cc85d9ULL, 0xf9c6992523d8c5deULL},
    {"tpch-q1", 0xb1003ad34899026eULL, 0x68108e94a98dc2c8ULL},
    {"tpch-q6", 0xb1003ad34899026eULL, 0xb3c533afdd292843ULL},
    {"tpch-q14", 0x9caecd1da7b9856cULL, 0x2a94b986df92fcfeULL},
    {"sparsemv", 0xd21d3884ce2f1cecULL, 0x70177815a6167a6cULL},
};

TEST(GoldenOutputs, CoversEveryRegisteredApp) {
  ASSERT_EQ(std::size(kGolden), all_apps().size());
  for (std::size_t i = 0; i < all_apps().size(); ++i) {
    EXPECT_EQ(all_apps()[i].name, kGolden[i].app);
  }
}

class GoldenOutputs : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenOutputs, DatasetsAndKernelOutputsMatch) {
  const auto& golden = GetParam();
  const auto program = make_app(golden.app, golden_config());
  EXPECT_EQ(dataset_digest(program), golden.datasets);
  EXPECT_EQ(functional_output_digest(program), golden.outputs);
}

/// gtest parameter name: the app name with '-' as '_'.
std::string app_param_name(const ::testing::TestParamInfo<Golden>& info) {
  std::string name = info.param.app;
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllApps, GoldenOutputs, ::testing::ValuesIn(kGolden),
                         app_param_name);

/// Run line `i` of the program's kernels directly on `store`, with
/// `blocks` as the kernel's BlockRunner (none: every piece inline).
void run_line(const ir::Program& program, ir::ObjectStore& store,
              std::size_t i, const ir::BlockRunner* blocks = nullptr) {
  const auto& line = program.lines()[i];
  ir::KernelCtx ctx(store, line.inputs, line.outputs, program.virtual_scale(),
                    blocks);
  line.kernel(ctx);
}

// ---- Kernel parallelism ----------------------------------------------------

/// The data-parallel lines of each app, by the call in the line's name
/// ("x = call(args)"; the TPC-H filters read "rows = lineitem[pred]").
/// Every other line keeps its kernel serial.
const std::vector<std::pair<std::string, std::set<std::string>>>&
parallel_lines() {
  static const std::vector<std::pair<std::string, std::set<std::string>>>
      table = {
          {"blackscholes", {"parse", "black_scholes"}},
          {"kmeans", {"load_normalize", "assign_update", "assign"}},
          {"lightgbm", {"load_f32", "forest_predict", "sigmoid_threshold"}},
          {"matrixmul", {"batch_matmul", "alpha_c_plus_beta"}},
          {"mixedgemm",
           {"load_bf16", "batch_gemm_bf16", "bias_gelu", "reduce_tiles"}},
          {"pagerank", {"load_narrow"}},
          {"tpch-q1", {"lineitem"}},
          {"tpch-q6", {"lineitem"}},
          {"tpch-q14", {"lineitem"}},
          {"sparsemv", {"load_narrow", "normalize"}},
      };
  return table;
}

/// "x = call(args)" -> "call".
std::string call_of(const std::string& line_name) {
  const auto start = line_name.find("= ") + 2;
  return line_name.substr(start,
                          line_name.find_first_of("([", start) - start);
}

/// Digest of a run inside a one-job batch: the outermost-only rule keeps
/// every kernel inline.
std::uint64_t inline_output_digest(const ir::Program& program) {
  return exec::run_batch(
             1, [&](std::size_t) { return functional_output_digest(program); },
             1)
      .front();
}

class KernelParallelism : public ::testing::TestWithParam<Golden> {};

TEST_P(KernelParallelism, FannedOutRunMatchesInlineRun) {
  const auto program = make_app(GetParam().app, golden_config());
  ASSERT_FALSE(exec::in_batch());
  const auto started = exec::threads_started();
  const auto fanned = functional_output_digest(program);
  if (exec::default_jobs() > 1) {
    EXPECT_GT(exec::threads_started(), started) << "no kernel fanned out";
  }
  EXPECT_EQ(fanned, inline_output_digest(program));
  EXPECT_EQ(fanned, GetParam().outputs);
}

TEST_P(KernelParallelism, ParallelLinesSpanTwoPiecesInAnyOrder) {
  const auto program = make_app(GetParam().app, golden_config());
  const auto& expected = std::find_if(
      parallel_lines().begin(), parallel_lines().end(),
      [&](const auto& entry) { return entry.first == GetParam().app; });
  ASSERT_NE(expected, parallel_lines().end());

  // A runner that runs each batch of pieces backwards and keeps the
  // largest batch per line.
  std::size_t most = 0;
  const ir::BlockRunner backwards =
      [&](std::size_t n, const std::function<void(std::size_t)>& task) {
        most = std::max(most, n);
        for (std::size_t k = n; k-- > 0;) task(k);
      };
  auto store = program.make_store();
  std::set<std::string> fanned;
  for (std::size_t i = 0; i < program.line_count(); ++i) {
    most = 0;
    run_line(program, store, i, &backwards);
    const auto call = call_of(program.lines()[i].name);
    if (expected->second.count(call) > 0) {
      EXPECT_GE(most, 2u) << program.lines()[i].name;
      fanned.insert(call);
    } else {
      EXPECT_EQ(most, 0u) << program.lines()[i].name << " is not listed";
    }
  }
  EXPECT_EQ(fanned, expected->second);
  EXPECT_EQ(recovery::digest_outputs(program, store), GetParam().outputs);
}

INSTANTIATE_TEST_SUITE_P(AllApps, KernelParallelism,
                         ::testing::ValuesIn(kGolden), app_param_name);

TEST(KernelThreads, RunInsideABatchStartsNoThread) {
  const auto program = make_app("mixedgemm", golden_config());
  auto started = exec::threads_started();
  (void)inline_output_digest(program);
  EXPECT_EQ(exec::threads_started(), started);

  // A task of a pool's batch, on a worker thread or on the calling one:
  // only the batch's own pool starts threads.
  for (const unsigned workers : {1u, 2u}) {
    started = exec::threads_started();
    exec::Pool pool(workers);
    const auto digests = exec::run_batch(pool, 2, [&](std::size_t) {
      return functional_output_digest(program);
    });
    EXPECT_EQ(exec::threads_started() - started, workers - 1);
    EXPECT_EQ(digests[0], digests[1]);
  }
}

TEST(KernelThreads, RunBelowTwoPiecesStartsNoThread) {
  AppConfig tiny = golden_config();
  tiny.size_factor = 1e-4;
  for (const auto& app : all_apps()) {
    const auto program = make_app(app.name, tiny);
    const auto started = exec::threads_started();
    (void)functional_output_digest(program);
    EXPECT_EQ(exec::threads_started(), started) << app.name;
  }
}

TEST(KernelThreads, FannedOutRunStartsOnePoolAtMost) {
  for (const auto& app : all_apps()) {
    const auto program = make_app(app.name, golden_config());
    const auto started = exec::threads_started();
    (void)functional_output_digest(program);
    EXPECT_LE(exec::threads_started() - started, exec::default_jobs() - 1)
        << app.name;
  }
}

// ---- CSR oracle ------------------------------------------------------------

/// Reference compaction: dense ids in first-seen order, src/row before
/// dst/col, through a hash map.
struct FirstSeen {
  std::unordered_map<std::uint32_t, std::uint32_t> ids;
  std::uint32_t operator()(std::uint32_t raw) {
    return ids.try_emplace(raw, static_cast<std::uint32_t>(ids.size()))
        .first->second;
  }
};

/// CSR bytes as pagerank lays them out: {V, E} | rowptr u64[V+1] |
/// cols u32[E], padded to 8 bytes.
std::vector<std::byte> pagerank_csr_oracle(const mem::Buffer& compacted) {
  const auto edges = compacted.as<Edge>();
  FirstSeen remap;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> compact;
  for (const auto& e : edges) {
    const auto src = remap(e.src);
    const auto dst = remap(e.dst);
    compact.emplace_back(src, dst);
  }
  const std::uint64_t v = remap.ids.size();
  const std::uint64_t n = compact.size();
  std::vector<std::uint64_t> rowptr(v + 1, 0);
  for (const auto& [src, dst] : compact) ++rowptr[src + 1];
  for (std::uint64_t i = 0; i < v; ++i) rowptr[i + 1] += rowptr[i];
  std::vector<std::uint32_t> cols(n);
  std::vector<std::uint64_t> cursor(rowptr.begin(), rowptr.end() - 1);
  for (const auto& [src, dst] : compact) cols[cursor[src]++] = dst;

  const std::size_t bytes =
      (16 + (v + 1) * 8 + n * 4 + 7) & ~std::size_t{7};
  std::vector<std::byte> out(bytes, std::byte{0});
  std::memcpy(out.data(), &v, 8);
  std::memcpy(out.data() + 8, &n, 8);
  std::memcpy(out.data() + 16, rowptr.data(), (v + 1) * 8);
  std::memcpy(out.data() + 16 + (v + 1) * 8, cols.data(), n * 4);
  return out;
}

/// In-memory triplet of sparsemv after its load narrows values to float.
struct Triplet {
  std::uint32_t row;
  std::uint32_t col;
  float value;
};

/// CSR bytes as sparsemv lays them out: {V, N} | rowptr u64[V+1] |
/// cols u32[N] | vals f32[N], padded to 8 bytes.
std::vector<std::byte> sparsemv_csr_oracle(const mem::Buffer& compacted) {
  const auto triplets = compacted.as<Triplet>();
  FirstSeen remap;
  std::vector<Triplet> compact;
  for (const auto& t : triplets) {
    const auto row = remap(t.row);
    const auto col = remap(t.col);
    compact.push_back(Triplet{row, col, t.value});
  }
  const std::uint64_t v = remap.ids.size();
  const std::uint64_t n = compact.size();
  std::vector<std::uint64_t> rowptr(v + 1, 0);
  for (const auto& t : compact) ++rowptr[t.row + 1];
  for (std::uint64_t i = 0; i < v; ++i) rowptr[i + 1] += rowptr[i];
  std::vector<std::uint32_t> cols(n);
  std::vector<float> vals(n);
  std::vector<std::uint64_t> cursor(rowptr.begin(), rowptr.end() - 1);
  for (const auto& t : compact) {
    const auto at = cursor[t.row]++;
    cols[at] = t.col;
    vals[at] = t.value;
  }

  const std::size_t bytes =
      (16 + (v + 1) * 8 + n * 8 + 7) & ~std::size_t{7};
  std::vector<std::byte> out(bytes, std::byte{0});
  std::memcpy(out.data(), &v, 8);
  std::memcpy(out.data() + 8, &n, 8);
  std::byte* at = out.data() + 16;
  std::memcpy(at, rowptr.data(), (v + 1) * 8);
  std::memcpy(at + (v + 1) * 8, cols.data(), n * 4);
  std::memcpy(at + (v + 1) * 8 + n * 4, vals.data(), n * 4);
  return out;
}

/// Both apps load and narrow their records on line 0 and build the CSR on
/// line 1.
constexpr std::size_t kCsrLine = 1;

struct CsrCase {
  const char* app;
  const char* compact;           // line 0's output, the CSR build's input
  std::size_t words_per_record;  // u32 words per record of `compact`
  std::vector<std::byte> (*oracle)(const mem::Buffer& compacted);
};

void PrintTo(const CsrCase& c, std::ostream* os) { *os << c.app; }

constexpr CsrCase kCsrCases[] = {{"pagerank", "edges", 2, pagerank_csr_oracle},
                                 {"sparsemv", "triplets", 3,
                                  sparsemv_csr_oracle}};

/// Run the CSR build on `store` and compare its bytes with the oracle's.
void expect_csr_matches_oracle(const CsrCase& c, const ir::Program& program,
                               ir::ObjectStore& store,
                               const std::string& what) {
  const auto expected = c.oracle(store.at(c.compact).physical);
  run_line(program, store, kCsrLine);
  const auto actual = store.at("csr").physical.as<const std::byte>();
  ASSERT_EQ(actual.size(), expected.size()) << c.app << " " << what;
  EXPECT_EQ(0, std::memcmp(actual.data(), expected.data(), expected.size()))
      << c.app << " " << what;
}

/// The id domain the generator drew from: half the records, at least 64
/// (both generators size it this way).
std::uint32_t id_domain(const ir::Program& program) {
  const auto& file = program.datasets().front();
  const auto records = file.object.physical.size_bytes() / file.elem_bytes;
  return static_cast<std::uint32_t>(std::max<std::size_t>(records / 2, 64));
}

/// A full store after line 0 whose last record's second id is `id`.  Ids
/// lead both record types, and by the last record the build has already
/// assigned ids.
ir::ObjectStore store_with_last_id(const CsrCase& c,
                                   const ir::Program& program,
                                   std::uint32_t id) {
  auto store = program.make_store();
  run_line(program, store, 0);
  auto words = store.at(c.compact).physical.as<std::uint32_t>();
  words[words.size() - c.words_per_record + 1] = id;
  return store;
}

class CsrOracle : public ::testing::TestWithParam<CsrCase> {};

TEST_P(CsrOracle, FullStoreMatchesHashMapRemap) {
  const auto program = make_app(GetParam().app, golden_config());
  ASSERT_EQ(program.lines()[kCsrLine].outputs.front(), "csr");
  auto store = program.make_store();
  run_line(program, store, 0);
  expect_csr_matches_oracle(GetParam(), program, store, "full store");
}

TEST_P(CsrOracle, SampledStoresMatchHashMapRemap) {
  const auto program = make_app(GetParam().app, golden_config());
  for (const double fraction : profile::SamplerConfig{}.fractions) {
    auto store = program.make_sampled_store(fraction);
    run_line(program, store, 0);
    expect_csr_matches_oracle(GetParam(), program, store,
                              "fraction " + std::to_string(fraction));
  }
}

TEST_P(CsrOracle, LargestInDomainIdIsAccepted) {
  const auto program = make_app(GetParam().app, golden_config());
  auto store = store_with_last_id(GetParam(), program, id_domain(program) - 1);
  expect_csr_matches_oracle(GetParam(), program, store, "largest id");
}

TEST_P(CsrOracle, OutOfDomainIdThrows) {
  const auto program = make_app(GetParam().app, golden_config());
  for (const std::uint32_t bad :
       {id_domain(program), std::numeric_limits<std::uint32_t>::max()}) {
    auto store = store_with_last_id(GetParam(), program, bad);
    EXPECT_THROW(run_line(program, store, kCsrLine), Error)
        << GetParam().app << " id " << bad;
  }
}

INSTANTIATE_TEST_SUITE_P(CsrApps, CsrOracle, ::testing::ValuesIn(kCsrCases),
                         [](const ::testing::TestParamInfo<CsrCase>& info) {
                           return std::string(info.param.app);
                         });

}  // namespace
}  // namespace isp::apps
