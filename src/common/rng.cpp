#include "common/rng.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace isp {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double hash_unit(std::uint64_t x) {
  // 53 high bits -> [0, 1).
  return static_cast<double>(splitmix64(x) >> 11) * 0x1.0p-53;
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) {
    s = splitmix64(s);
    word = s;
  }
  // xoshiro must not start from the all-zero state.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

void Rng::fail_empty_range() {
  detail::raise_check_failure("lo <= hi", __FILE__, __LINE__, "empty range");
}

double Rng::normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1 = next_double();
  const double u2 = next_double();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

std::uint64_t Rng::zipf(std::uint64_t n, double s) {
  return ZipfDraw{n, s}(*this);
}

// Inverse-CDF approximation over the continuous Zipf envelope (Gray et al.,
// "Quickly generating billion-record synthetic databases").
ZipfDraw::ZipfDraw(std::uint64_t n, double s) : n_(n), harmonic_(s == 1.0) {
  ISP_CHECK(n > 0, "zipf over empty domain");
  const double nd = static_cast<double>(n);
  if (harmonic_) {
    log_n_ = std::log(nd);
  } else {
    const double one_minus_s = 1.0 - s;
    span_ = std::pow(nd, one_minus_s) - 1.0;
    inv_exponent_ = 1.0 / one_minus_s;
  }
}

std::uint64_t ZipfDraw::operator()(Rng& rng) const {
  if (n_ == 1) return 0;
  const double u = rng.next_double();
  if (harmonic_) {
    const double x = std::exp(u * log_n_);
    return static_cast<std::uint64_t>(x) - 1;
  }
  const double x = std::pow(u * span_ + 1.0, inv_exponent_);
  auto rank = static_cast<std::uint64_t>(x);
  if (rank >= n_) rank = n_ - 1;
  return rank;
}

Rng Rng::fork(std::uint64_t stream_id) const {
  return Rng{splitmix64(state_[0] ^ splitmix64(stream_id))};
}

}  // namespace isp
