// Unit + property tests: address space, allocator, data objects, and the
// copy-on-write sharing of payloads between a program and its runs.
#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/pool.hpp"
#include "mem/address_space.hpp"
#include "mem/allocator.hpp"
#include "mem/data_object.hpp"
#include "recovery/recovery.hpp"
#include "runtime/engine.hpp"

namespace isp::mem {
namespace {

TEST(AddressSpace, StandardLayoutResolvesKinds) {
  const auto space = AddressSpace::standard_layout(1_GiB, 512_MiB);
  EXPECT_EQ(space.kind_of(0), MemKind::HostDram);
  EXPECT_EQ(space.kind_of((1_GiB).count() - 1), MemKind::HostDram);
  EXPECT_EQ(space.kind_of((1_GiB).count()), MemKind::DeviceDram);
  EXPECT_EQ(space.kind_of((1_GiB).count() + (512_MiB).count()),
            MemKind::DeviceBar);
  EXPECT_FALSE(
      space.kind_of((1_GiB).count() + 2 * (512_MiB).count()).has_value());
}

TEST(AddressSpace, RejectsOverlap) {
  AddressSpace space;
  space.map(MemKind::HostDram, 0, Bytes{1000});
  EXPECT_THROW(space.map(MemKind::DeviceDram, 500, Bytes{1000}), Error);
  EXPECT_NO_THROW(space.map(MemKind::DeviceDram, 1000, Bytes{1000}));
}

TEST(AddressSpace, WindowLookup) {
  const auto space = AddressSpace::standard_layout(1_GiB, 512_MiB);
  const auto* host = space.window(MemKind::HostDram);
  ASSERT_NE(host, nullptr);
  EXPECT_EQ(host->size.count(), (1_GiB).count());
  EXPECT_EQ(space.window(MemKind::DeviceBar)->size.count(), (512_MiB).count());
}

TEST(Allocator, FirstFitAndAlignment) {
  const Window window{MemKind::HostDram, 4096, 1_MiB};
  Allocator allocator(window);
  const auto a = allocator.allocate(Bytes{100}, Bytes{64});
  ASSERT_TRUE(a);
  EXPECT_EQ(a->address % 64, 0u);
  EXPECT_GE(a->address, 4096u);
  const auto b = allocator.allocate(Bytes{100}, Bytes{256});
  ASSERT_TRUE(b);
  EXPECT_EQ(b->address % 256, 0u);
  EXPECT_GE(b->address, a->address + 100);
  allocator.check_invariants();
}

TEST(Allocator, ExhaustionReturnsNullopt) {
  const Window window{MemKind::HostDram, 0, Bytes{1024}};
  Allocator allocator(window);
  EXPECT_TRUE(allocator.allocate(Bytes{512}, Bytes{1}));
  EXPECT_TRUE(allocator.allocate(Bytes{512}, Bytes{1}));
  EXPECT_FALSE(allocator.allocate(Bytes{1}, Bytes{1}));
}

TEST(Allocator, ReleaseCoalesces) {
  const Window window{MemKind::HostDram, 0, Bytes{4096}};
  Allocator allocator(window);
  const auto a = allocator.allocate(Bytes{1024}, Bytes{1});
  const auto b = allocator.allocate(Bytes{1024}, Bytes{1});
  const auto c = allocator.allocate(Bytes{1024}, Bytes{1});
  ASSERT_TRUE(a && b && c);
  allocator.release(*a);
  allocator.release(*c);
  allocator.check_invariants();
  // Freeing b merges everything back into one block.
  allocator.release(*b);
  allocator.check_invariants();
  EXPECT_EQ(allocator.largest_free_block().count(), 4096u);
}

TEST(Allocator, DoubleFreeDetected) {
  const Window window{MemKind::HostDram, 0, Bytes{4096}};
  Allocator allocator(window);
  const auto a = allocator.allocate(Bytes{128}, Bytes{1});
  ASSERT_TRUE(a);
  allocator.release(*a);
  EXPECT_THROW(allocator.release(*a), Error);
}

TEST(Allocator, RejectsZeroAndForeign) {
  const Window window{MemKind::HostDram, 0, Bytes{4096}};
  Allocator allocator(window);
  EXPECT_THROW(allocator.allocate(Bytes{0}), Error);
  EXPECT_THROW(allocator.allocate(Bytes{64}, Bytes{3}), Error);
  Allocation foreign{0, Bytes{64}, MemKind::DeviceDram};
  EXPECT_THROW(allocator.release(foreign), Error);
}

class AllocatorChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocatorChurn, NoOverlapNoLeak) {
  const Window window{MemKind::HostDram, 1 << 20, 8_MiB};
  Allocator allocator(window);
  Rng rng(GetParam());
  std::vector<Allocation> live;

  for (int i = 0; i < 2000; ++i) {
    if (live.empty() || rng.next_double() < 0.6) {
      const auto alloc =
          allocator.allocate(Bytes{rng.uniform_u64(1, 32 * 1024)});
      if (alloc) {
        // No overlap with any live allocation.
        for (const auto& other : live) {
          const bool disjoint =
              alloc->address + alloc->size.count() <= other.address ||
              other.address + other.size.count() <= alloc->address;
          ASSERT_TRUE(disjoint);
        }
        live.push_back(*alloc);
      }
    } else {
      const auto idx = rng.uniform_u64(0, live.size() - 1);
      allocator.release(live[idx]);
      live[idx] = live.back();
      live.pop_back();
    }
    if (i % 100 == 0) allocator.check_invariants();
  }
  for (const auto& a : live) allocator.release(a);
  allocator.check_invariants();
  EXPECT_EQ(allocator.free_bytes().count(), (8_MiB).count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorChurn,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

TEST(PlaceNearConsumer, Policy) {
  EXPECT_EQ(place_near_consumer(true), MemKind::DeviceDram);
  EXPECT_EQ(place_near_consumer(false), MemKind::HostDram);
}

TEST(Buffer, TypedViews) {
  Buffer buffer;
  buffer.resize_elems<double>(4);
  EXPECT_EQ(buffer.size_bytes(), 32u);
  EXPECT_EQ(buffer.size_as<double>(), 4u);
  auto view = buffer.as<double>();
  view[0] = 1.5;
  view[3] = -2.5;
  const auto& const_buffer = buffer;
  EXPECT_DOUBLE_EQ(const_buffer.as<double>()[0], 1.5);
  EXPECT_DOUBLE_EQ(const_buffer.as<double>()[3], -2.5);
  buffer.clear();
  EXPECT_TRUE(buffer.empty());
}

/// A Buffer of `n` ints holding 0, 1, ..., n-1.
Buffer iota_buffer(std::size_t n) {
  Buffer buffer;
  buffer.resize_elems<int>(n);
  auto view = buffer.as<int>();
  for (std::size_t i = 0; i < n; ++i) view[i] = static_cast<int>(i);
  return buffer;
}

TEST(BufferSharing, CopySharesBytes) {
  const Buffer a = iota_buffer(4);
  const Buffer b = a;
  EXPECT_EQ(a.as<int>().data(), b.as<int>().data());
  EXPECT_EQ(b.size_as<int>(), 4u);
}

TEST(BufferSharing, MutableViewDetachesAndLeavesOtherCopyUnchanged) {
  Buffer a = iota_buffer(4);
  Buffer b = a;
  const int* shared = std::as_const(a).as<int>().data();
  auto view = b.as<int>();  // b takes a private copy before handing it out
  EXPECT_NE(view.data(), shared);
  view[0] = 99;
  EXPECT_EQ(std::as_const(a).as<int>()[0], 0);
  EXPECT_EQ(std::as_const(b).as<int>()[0], 99);
  EXPECT_EQ(std::as_const(b).as<int>()[3], 3);
  // a is now the bytes' only owner: its mutable view writes in place.
  EXPECT_EQ(a.as<int>().data(), shared);
}

TEST(BufferSharing, ConstViewsNeverDetach) {
  Buffer a = iota_buffer(4);
  Buffer b = a;
  const int* shared = std::as_const(a).as<int>().data();
  EXPECT_EQ(b.as<const int>().data(), shared);
  EXPECT_EQ(b.as<const std::byte>().data(),
            reinterpret_cast<const std::byte*>(shared));
  EXPECT_EQ(std::as_const(b).as<int>().data(), shared);
  EXPECT_EQ(a.as<const int>().data(), shared);
}

TEST(BufferSharing, ResizeAndClearLeaveOtherCopiesIntact) {
  const Buffer a = iota_buffer(4);
  Buffer resized = a;
  Buffer cleared = a;
  resized.resize_elems<int>(2);
  cleared.clear();
  EXPECT_NE(resized.as<const int>().data(), a.as<int>().data());
  EXPECT_EQ(resized.as<const int>()[0], 0);
  EXPECT_EQ(resized.as<const int>()[1], 0);
  EXPECT_TRUE(cleared.empty());
  EXPECT_TRUE(cleared.as<int>().empty());
  ASSERT_EQ(a.size_as<int>(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.as<int>()[i], i);
}

TEST(BufferSharing, EmptyBufferHasEmptyViews) {
  Buffer empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size_bytes(), 0u);
  EXPECT_TRUE(empty.as<double>().empty());
  EXPECT_TRUE(std::as_const(empty).as<double>().empty());
  const Buffer copy = empty;
  EXPECT_TRUE(copy.empty());
}

std::uint64_t dataset_digest(const ir::Program& program) {
  std::uint64_t h = kFnvOffset;
  for (const auto& d : program.datasets()) {
    const auto bytes = d.object.physical.as<const std::byte>();
    h = fnv1a_bytes(h, bytes.data(), bytes.size());
  }
  return h;
}

// Four workers run one Program functionally, each from its own make_store():
// every run reads the program's dataset bytes without copying them, computes
// the same outputs, and a write through a run's store (which detaches that
// store's copy) never reaches the program.
TEST(BufferSharing, ParallelFunctionalRunsShareOneProgram) {
  apps::AppConfig config;
  config.size_factor = 0.05;
  config.seed = 7;
  for (const char* app : {"tpch-q14", "pagerank"}) {
    const auto program = apps::make_app(app, config);
    const auto before = dataset_digest(program);
    const auto* first_bytes =
        program.datasets().front().object.physical.as<std::byte>().data();

    const auto digests = exec::run_batch(
        std::size_t{8},
        [&](std::size_t) {
          auto store = program.make_store();
          const auto& name = program.datasets().front().object.name;
          const auto& shared = std::as_const(store).at(name).physical;
          EXPECT_EQ(shared.as<std::byte>().data(), first_bytes);
          runtime::EngineOptions options;
          options.monitoring = false;
          options.migration = false;
          system::SystemModel system;
          runtime::run_program(system, program,
                               ir::Plan::host_only(program.line_count()),
                               codegen::ExecMode::NativeC, options, &store);
          const auto digest = recovery::digest_outputs(program, store);
          auto bytes = store.at(name).physical.as<std::byte>();
          bytes[0] = ~bytes[0];
          return digest;
        },
        4);

    for (const auto digest : digests) {
      EXPECT_EQ(digest, digests.front()) << app;
    }
    EXPECT_EQ(dataset_digest(program), before) << app;
    const auto& first = program.datasets().front().object.physical;
    EXPECT_EQ(first.as<std::byte>().data(), first_bytes) << app;
  }
}

TEST(DataObject, SyncVirtualSize) {
  DataObject obj;
  obj.name = "x";
  obj.physical.resize_elems<float>(1000);  // 4000 physical bytes
  obj.sync_virtual_size(128.0);
  EXPECT_EQ(obj.virtual_bytes.count(), 512000u);
}

TEST(DataObject, LocationNames) {
  EXPECT_EQ(location_name(Location::Storage), "storage");
  EXPECT_EQ(location_name(Location::HostDram), "host-dram");
  EXPECT_EQ(location_name(Location::DeviceDram), "device-dram");
}

}  // namespace
}  // namespace isp::mem
