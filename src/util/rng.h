// Deterministic, splittable random number generation.
//
// Every stochastic component of the library (channel noise, randomized
// protocols, workload generators, Monte Carlo experiments) draws from an
// Rng that is explicitly seeded, so that every test, example, and benchmark
// is reproducible bit-for-bit.  The generator is xoshiro256** seeded via
// SplitMix64; Split() derives an independent child stream, which is how the
// executor hands private randomness to parties without correlating them.
#ifndef NOISYBEEPS_UTIL_RNG_H_
#define NOISYBEEPS_UTIL_RNG_H_

#include <array>
#include <cstdint>
#include <span>

namespace noisybeeps {

class Rng {
 public:
  // Seeds the full 256-bit state from a 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Next 64 uniform random bits.
  std::uint64_t NextU64();

  // Uniform integer in [0, bound).  Precondition: bound > 0.
  // Uses rejection sampling (Lemire-style) and is exactly uniform.
  std::uint64_t UniformInt(std::uint64_t bound);

  // Uniform double in [0, 1) with 53 bits of precision.
  double UniformDouble();

  // True with probability p.  Precondition: 0 <= p <= 1.
  // Consumes exactly one NextU64 and decides via the fixed-point
  // threshold (see BernoulliThreshold), which is bit-identical to the
  // historical `UniformDouble() < p` comparison.
  bool Bernoulli(double p);

  // Uniform random bit.
  bool Bit() { return (NextU64() >> 63) != 0; }

  // Fills out[i] = base ^ ((NextU64() >> 11) < threshold), in index order:
  // for threshold = BernoulliThreshold(p), draw-for-draw the loop
  // `out[i] = base ^ BernoulliSampler(p).Sample(*this)`, so the bits and
  // the generator state afterwards are identical.  The state lives in
  // registers for the whole span instead of being reloaded around every
  // byte store (a byte store may alias it).  This is the per-listener
  // noise loop of the independent channel.
  void FillBernoulli(std::span<std::uint8_t> out, std::uint64_t threshold,
                     std::uint8_t base);

  // Derives an independent generator.  The child stream is decorrelated
  // from the parent's subsequent output (distinct SplitMix64 seed chain).
  Rng Split();

  // The full 256-bit generator state, for checkpointing (resilience
  // layer).  Restore(SaveState()) reconstructs a generator that emits the
  // identical stream from this point on.
  [[nodiscard]] std::array<std::uint64_t, 4> SaveState() const {
    return state_;
  }

  // Rebuilds a generator from a saved state.
  // Precondition: state is not all-zero (the xoshiro256** fixed point).
  [[nodiscard]] static Rng Restore(const std::array<std::uint64_t, 4>& state);

 private:
  std::array<std::uint64_t, 4> state_;
};

// The fixed-point threshold t(p) = ceil(p * 2^53), so that for the 53-bit
// draw k = NextU64() >> 11 the comparisons
//
//     k < t(p)      and      k * 2^-53 < p
//
// agree for EVERY double p in [0, 1] and every k in [0, 2^53):  k * 2^-53
// and p * 2^53 are both exact in IEEE double (power-of-two scaling, no
// overflow since p <= 1, and a subnormal p scales up to a normal value),
// so `k * 2^-53 < p  <=>  k < p * 2^53  <=>  k < ceil(p * 2^53)` for
// integer k.  This lets hot paths replace a u64->double conversion,
// multiply, and double compare per sample with a single integer compare
// against a precomputed constant -- without changing a single random
// stream.  Precondition: 0 <= p <= 1.
[[nodiscard]] std::uint64_t BernoulliThreshold(double p);

// Precomputed Bernoulli(p) sampler for hot loops that draw from one fixed
// p many times (the channel Deliver implementations).  Sample() consumes
// exactly one NextU64 and is bit-identical to Rng::Bernoulli(p) -- and to
// the historical `UniformDouble() < p` path -- so threading a sampler
// through a hot loop never perturbs a seeded stream.
class BernoulliSampler {
 public:
  // Precondition: 0 <= p <= 1.
  explicit BernoulliSampler(double p = 0.0);

  // True with probability p(); consumes exactly one NextU64.
  [[nodiscard]] bool Sample(Rng& rng) const {
    return (rng.NextU64() >> 11) < threshold_;
  }

  [[nodiscard]] double p() const { return p_; }
  [[nodiscard]] std::uint64_t threshold() const { return threshold_; }

 private:
  double p_;
  std::uint64_t threshold_;
};

// Word-parallel Bernoulli sampler for the fast word-delivery mode
// (docs/PERFORMANCE.md): one NoiseWord() call yields 64 i.i.d.
// Bernoulli(p) lanes packed into a u64.
//
// Each lane conceptually compares a fresh 53-bit uniform k against the
// same fixed-point threshold t(p) = BernoulliThreshold(p) the scalar
// sampler uses, so every lane is EXACTLY Bernoulli(t(p)/2^53) -- the
// identical distribution BernoulliSampler::Sample realizes per draw
// (same distribution, different stream: fast mode has its own goldens).
// The uniforms are generated bit-sliced, MSB first: bit j of one NextU64
// supplies bit j of EVERY lane's uniform, and a lane is decided the
// first time its uniform bit differs from the threshold bit.  Undecided
// lanes halve per draw in expectation, so a word costs ~log2(64) + 2
// (about 7.5) NextU64 calls regardless of p -- versus 64 for the scalar
// per-listener loop.  p == 0 and p == 1 consume no draws at all.
class BernoulliWordSampler {
 public:
  // Precondition: 0 <= p <= 1.
  explicit BernoulliWordSampler(double p = 0.0);

  // 64 i.i.d. Bernoulli(p()) bits.  Consumes between 0 and 53 NextU64
  // calls (deterministic given the rng state).
  [[nodiscard]] std::uint64_t NoiseWord(Rng& rng) const;

  [[nodiscard]] double p() const { return p_; }
  [[nodiscard]] std::uint64_t threshold() const { return threshold_; }

 private:
  double p_;
  std::uint64_t threshold_;
};

// Geometric skip-sampling for sparse noise (fast word-delivery mode,
// small epsilon): instead of flipping a coin per position, NextGap
// returns the number of Bernoulli(p) failures strictly before the next
// success, sampled by inversion (floor(log(1-U) / log(1-p))).  Walking
// positions pos += gap + 1 visits exactly the success positions of an
// i.i.d. Bernoulli(p) sequence (up to double rounding in the logs --
// documented in docs/PERFORMANCE.md), at a cost of one NextU64 per
// SUCCESS rather than one per position.
//
// Edge cases, pinned by tests/channel_words_test.cc: p == 0 returns
// kNoSuccess ("skip to infinity") WITHOUT consuming a draw; p == 1
// returns 0 without consuming a draw; gaps too large for the caller's
// range saturate at kNoSuccess instead of overflowing.
class GeometricSkipSampler {
 public:
  static constexpr std::uint64_t kNoSuccess = ~std::uint64_t{0};

  // Precondition: 0 <= p <= 1.
  explicit GeometricSkipSampler(double p = 0.0);

  // Failures before the next success; kNoSuccess when p == 0 (no draw).
  [[nodiscard]] std::uint64_t NextGap(Rng& rng) const;

  [[nodiscard]] double p() const { return p_; }

 private:
  double p_;
  double inv_log_q_ = 0.0;  // 1 / log(1 - p); 0 when degenerate
};

}  // namespace noisybeeps

#endif  // NOISYBEEPS_UTIL_RNG_H_
