#include "util/rng.h"

#include <bit>
#include <cmath>

#include "util/require.h"

namespace noisybeeps {
namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// One xoshiro256** step by Blackman & Vigna (public domain reference
// algorithm) on a state held wherever the caller keeps it.
inline std::uint64_t XoshiroStep(std::uint64_t& s0, std::uint64_t& s1,
                                 std::uint64_t& s2, std::uint64_t& s3) {
  const std::uint64_t result = std::rotl(s1 * 5, 7) * 9;
  const std::uint64_t t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  s3 = std::rotl(s3, 45);
  return result;
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(s);
}

std::uint64_t Rng::NextU64() {
  return XoshiroStep(state_[0], state_[1], state_[2], state_[3]);
}

void Rng::FillBernoulli(std::span<std::uint8_t> out, std::uint64_t threshold,
                        std::uint8_t base) {
  std::uint64_t s0 = state_[0];
  std::uint64_t s1 = state_[1];
  std::uint64_t s2 = state_[2];
  std::uint64_t s3 = state_[3];
  for (std::uint8_t& bit : out) {
    const bool below = (XoshiroStep(s0, s1, s2, s3) >> 11) < threshold;
    bit = base ^ static_cast<std::uint8_t>(below);
  }
  state_ = {s0, s1, s2, s3};
}

std::uint64_t Rng::UniformInt(std::uint64_t bound) {
  NB_REQUIRE(bound > 0, "UniformInt bound must be positive");
  // Lemire's multiply-shift method with rejection for exact uniformity.
  std::uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::UniformDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  // Validate before drawing: an out-of-range p must not advance the
  // stream (comparison operand order is unspecified).
  const std::uint64_t threshold = BernoulliThreshold(p);
  return (NextU64() >> 11) < threshold;
}

std::uint64_t BernoulliThreshold(double p) {
  NB_REQUIRE(p >= 0.0 && p <= 1.0, "Bernoulli parameter out of [0,1]");
  // p * 2^53 is exact (power-of-two scaling of a double in [0, 1]), so
  // ceil introduces no rounding; the result fits in 54 bits.
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

BernoulliSampler::BernoulliSampler(double p) : p_(p), threshold_(0) {
  NB_REQUIRE(p >= 0.0 && p <= 1.0, "Bernoulli parameter out of [0,1]");
  threshold_ = BernoulliThreshold(p);
}

Rng Rng::Restore(const std::array<std::uint64_t, 4>& state) {
  NB_REQUIRE(state[0] != 0 || state[1] != 0 || state[2] != 0 || state[3] != 0,
             "all-zero state is the xoshiro256** fixed point");
  Rng rng(0);
  rng.state_ = state;
  return rng;
}

BernoulliWordSampler::BernoulliWordSampler(double p) : p_(p), threshold_(0) {
  NB_REQUIRE(p >= 0.0 && p <= 1.0, "Bernoulli parameter out of [0,1]");
  threshold_ = BernoulliThreshold(p);
}

std::uint64_t BernoulliWordSampler::NoiseWord(Rng& rng) const {
  if (threshold_ == 0) return 0;                          // p == 0: no draw
  if (threshold_ >= (std::uint64_t{1} << 53)) {           // p == 1: no draw
    return ~std::uint64_t{0};
  }
  // Lane l is true iff its 53-bit uniform k_l < threshold_.  Generate the
  // k_l bit-sliced from the MSB (bit 52) down: draw r supplies bit j of
  // every lane's uniform.  While a lane's bits have matched the
  // threshold's, it is undecided; the first differing bit decides it
  // (uniform bit 0 under threshold bit 1 => below; 1 under 0 => above).
  // Lanes still undecided after all 53 bits equal the threshold exactly,
  // and k == t is not k < t: they stay 0.
  std::uint64_t result = 0;
  std::uint64_t undecided = ~std::uint64_t{0};
  for (int j = 52; j >= 0; --j) {
    const std::uint64_t r = rng.NextU64();
    if ((threshold_ >> j) & 1u) {
      result |= undecided & ~r;
      undecided &= r;
    } else {
      undecided &= ~r;
    }
    if (undecided == 0) break;
  }
  return result;
}

GeometricSkipSampler::GeometricSkipSampler(double p) : p_(p) {
  NB_REQUIRE(p >= 0.0 && p <= 1.0, "Bernoulli parameter out of [0,1]");
  if (p > 0.0 && p < 1.0) inv_log_q_ = 1.0 / std::log1p(-p);
}

std::uint64_t GeometricSkipSampler::NextGap(Rng& rng) const {
  if (p_ <= 0.0) return kNoSuccess;  // skip to infinity, stream untouched
  if (p_ >= 1.0) return 0;           // every position succeeds, no draw
  const double u = rng.UniformDouble();  // [0, 1): log1p(-u) is finite
  const double gap = std::log1p(-u) * inv_log_q_;
  // For tiny p the inverted gap can exceed any caller's range (and even
  // u64); saturate rather than wrap.  9e18 < 2^63 keeps the cast exact.
  if (!(gap < 9.0e18)) return kNoSuccess;
  return static_cast<std::uint64_t>(gap);
}

Rng Rng::Split() {
  // Seed the child from fresh output; the child reseeds through SplitMix64
  // so parent and child trajectories are decorrelated.
  return Rng(NextU64());
}

}  // namespace noisybeeps
