// Deterministic pseudo-random number generation.
//
// Everything in the reproduction that involves randomness — dataset
// generation, cost-model jitter, contention schedules — draws from Rng so a
// given seed reproduces a run bit-for-bit.  xoshiro256** with splitmix64
// seeding; no dependence on std::random_device or platform distributions
// (std:: distributions are not cross-implementation stable, ours are).
#pragma once

#include <cstdint>
#include <vector>

namespace isp {

/// xoshiro256** generator with deterministic splitmix64 seeding.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // The draws are inline: the dataset generators make millions of them,
  // and a constant range folds uniform_u64's two divisions.

  /// Uniform 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi) {
    if (lo > hi) [[unlikely]] fail_empty_range();
    const std::uint64_t span = hi - lo + 1;
    if (span == 0) return next_u64();  // full 64-bit range
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = span * (~0ULL / span);
    std::uint64_t x;
    do {
      x = next_u64();
    } while (x >= limit);
    return lo + x % span;
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

  /// Standard normal via Box–Muller (deterministic, caches the pair).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Zipf-distributed integer in [0, n) with exponent s (inverse CDF of
  /// the continuous Zipf envelope; deterministic).  One draw of
  /// ZipfDraw{n, s}: loops drawing many ranks over one domain should build
  /// the ZipfDraw once.
  std::uint64_t zipf(std::uint64_t n, double s);

  /// A derived generator whose stream is independent of this one.
  [[nodiscard]] Rng fork(std::uint64_t stream_id) const;

  /// Deterministic shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_u64(0, i - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  /// uniform_u64's error path, out of line.
  [[noreturn]] static void fail_empty_range();

  std::uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Zipf-distributed ranks in [0, n) with exponent s, with the per-domain
/// constants of the inverse CDF computed once.  Each draw consumes one
/// next_double() (none when n == 1) and is bit-identical to Rng::zipf.
class ZipfDraw {
 public:
  ZipfDraw(std::uint64_t n, double s);

  std::uint64_t operator()(Rng& rng) const;

 private:
  std::uint64_t n_;
  bool harmonic_;              // s == 1: the envelope's CDF is logarithmic
  double log_n_ = 0.0;         // ln n (harmonic case)
  double span_ = 0.0;          // n^(1-s) - 1
  double inv_exponent_ = 0.0;  // 1 / (1-s)
};

/// splitmix64 single step — also useful as a cheap stateless hash for
/// deterministic per-item jitter.
std::uint64_t splitmix64(std::uint64_t x);

/// Deterministic hash of x into a double in [0, 1).
double hash_unit(std::uint64_t x);

}  // namespace isp
