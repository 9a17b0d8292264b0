// Program representation: an ordered list of "lines".
//
// ActivePy's unit of analysis, placement and migration is one line of the
// interpreted program — a single-entry-single-exit code region (§III-B).  A
// CodeRegion here carries everything the runtime needs about a line:
//   * dataflow (named inputs/outputs against an ObjectStore),
//   * a real C++ kernel computing the physical payload,
//   * the analytic compute-cost law standing in for the physical machine,
//   * placement-relevant structure (parallelism on each side, progress
//     granularity for status updates).
//
// A Program is immutable during execution; every run owns its own
// ObjectStore so the exhaustive oracle can replay thousands of placements.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ir/cost_model.hpp"
#include "mem/data_object.hpp"

namespace isp::ir {

/// Live values during one run, keyed by object name.
class ObjectStore {
 public:
  mem::DataObject& at(const std::string& name);
  const mem::DataObject& at(const std::string& name) const;
  mem::DataObject& emplace(mem::DataObject object);
  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] std::size_t size() const { return objects_.size(); }

 private:
  std::map<std::string, mem::DataObject> objects_;
};

/// Runs task(0) … task(n − 1), each exactly once and possibly concurrently,
/// and returns once every one has finished.  The engine supplies one per
/// functional run (backed by an exec::Pool) so that ir stays free of the
/// executor.
using BlockRunner = std::function<void(
    std::size_t n, const std::function<void(std::size_t)>& task)>;

/// Kernel execution context: typed access to the line's operands.
class KernelCtx {
 public:
  KernelCtx(ObjectStore& store, const std::vector<std::string>& inputs,
            const std::vector<std::string>& outputs, double virtual_scale,
            const BlockRunner* blocks = nullptr)
      : store_(&store),
        inputs_(&inputs),
        outputs_(&outputs),
        virtual_scale_(virtual_scale),
        blocks_(blocks) {}

  [[nodiscard]] const mem::DataObject& input(std::size_t i) const;
  [[nodiscard]] mem::DataObject& output(std::size_t i);
  [[nodiscard]] std::size_t input_count() const { return inputs_->size(); }
  [[nodiscard]] std::size_t output_count() const { return outputs_->size(); }
  /// Virtual bytes per physical byte (for kernels sizing virtual outputs).
  [[nodiscard]] double virtual_scale() const { return virtual_scale_; }

  /// Run fn(begin, end) over [0, n) cut into consecutive pieces of `block`
  /// elements (the last may be shorter).  With a BlockRunner and at least
  /// two pieces, the pieces run on it in any order and concurrently;
  /// otherwise they run inline, in order.  The pieces are the same either
  /// way, so a kernel whose pieces write disjoint parts of an output it
  /// sized beforehand produces the same bytes on any number of threads.
  /// `fn` must not touch the store: take every span before the call (a
  /// mutable `as<T>()` may detach a shared payload, which is not
  /// thread-safe).
  template <typename Fn>
  void for_blocks(std::size_t n, std::size_t block, Fn&& fn) const {
    ISP_CHECK(block > 0, "for_blocks needs a positive block size");
    const std::size_t pieces = (n + block - 1) / block;
    const auto piece = [&](std::size_t k) {
      fn(k * block, std::min(n, (k + 1) * block));
    };
    if (blocks_ == nullptr || pieces < 2) {
      for (std::size_t k = 0; k < pieces; ++k) piece(k);
      return;
    }
    (*blocks_)(pieces, piece);
  }

 private:
  ObjectStore* store_;
  const std::vector<std::string>* inputs_;
  const std::vector<std::string>* outputs_;
  double virtual_scale_;
  const BlockRunner* blocks_;
};

using Kernel = std::function<void(KernelCtx&)>;

/// One line of the program: a single-entry-single-exit code region.
struct CodeRegion {
  std::string name;  // the "source line" as shown in reports
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
  CostModel cost;
  /// Bytes per element of the dominant input, converting input volume into
  /// the n of the cost law.
  double elem_bytes = 1.0;
  /// Threads the reference C implementation uses on the host (reference
  /// kernels are typically single-threaded loops).
  std::uint32_t host_threads = 1;
  /// CSE cores the generated firmware spreads this line across.
  std::uint32_t csd_threads = 8;
  /// Progress chunks per line: each chunk ends with a patched status update.
  std::uint32_t chunks = 16;
  /// Outputs are persisted to flash (result write-back): the engine charges
  /// the NAND program path on the CSD, or link + NAND when running on the
  /// host.
  bool writes_storage = false;
  Kernel kernel;  // may be empty for timing-only modelling

  [[nodiscard]] double elems_for(Bytes input_virtual) const {
    return input_virtual.as_double() / elem_bytes;
  }
};

/// An initial value of the program (usually a referenced file on storage).
struct Dataset {
  mem::DataObject object;
  std::uint32_t elem_bytes = 1;
  /// Optional custom sampler for the sampling phase; the default takes the
  /// leading `fraction` of elements (the paper's heuristic subset).
  std::function<mem::DataObject(const mem::DataObject& full, double fraction)>
      sampler;
};

class Program {
 public:
  Program(std::string name, double virtual_scale);

  [[nodiscard]] const std::string& name() const { return name_; }
  /// Virtual bytes represented by one physical byte (e.g. 1024 when the
  /// physical payload is a 2^-10 scale model of the Table-I dataset).
  [[nodiscard]] double virtual_scale() const { return virtual_scale_; }

  CodeRegion& add_line(CodeRegion line);
  Dataset& add_dataset(Dataset dataset);

  [[nodiscard]] const std::vector<CodeRegion>& lines() const { return lines_; }
  /// Mutable access for experiment harnesses that perturb cost models (e.g.
  /// injecting the §II-B(3) input-change dynamic into a stock workload).
  [[nodiscard]] CodeRegion& line_mut(std::size_t i);
  [[nodiscard]] const std::vector<Dataset>& datasets() const {
    return datasets_;
  }
  [[nodiscard]] std::size_t line_count() const { return lines_.size(); }

  /// Raw input volume: the Table-I "data size" of the program.
  [[nodiscard]] Bytes total_storage_bytes() const;

  /// Fresh store populated with the initial datasets.  The store's objects
  /// share the datasets' payloads copy-on-write (mem::Buffer), so a run
  /// costs no payload copy and cannot modify the program's datasets.
  [[nodiscard]] ObjectStore make_store() const;

  /// The initial datasets' names, locations and virtual sizes without their
  /// payloads: everything a timing-only run reads.
  [[nodiscard]] ObjectStore make_virtual_store() const;

  /// Store populated with sampled datasets scaled by `fraction` (§III-A).
  [[nodiscard]] ObjectStore make_sampled_store(double fraction) const;

  /// Structural checks: inputs resolve to a dataset or an earlier line's
  /// output, no output name is produced twice, line names unique.
  void validate() const;

 private:
  std::string name_;
  double virtual_scale_;
  std::vector<CodeRegion> lines_;
  std::vector<Dataset> datasets_;
};

/// Default sampler: keep the first ceil(fraction * n_elems) elements.
[[nodiscard]] mem::DataObject prefix_sample(const mem::DataObject& full,
                                            double fraction,
                                            std::uint32_t elem_bytes);

}  // namespace isp::ir
