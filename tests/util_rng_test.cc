#include "util/rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

namespace noisybeeps {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == b.NextU64();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(3);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 7ull, 100ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.UniformInt(bound), bound);
    }
  }
}

TEST(Rng, UniformIntZeroBoundThrows) {
  Rng rng(4);
  EXPECT_THROW(rng.UniformInt(0), std::invalid_argument);
}

TEST(Rng, UniformIntIsRoughlyUniform) {
  Rng rng(5);
  constexpr int kBuckets = 8;
  constexpr int kSamples = 80000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[rng.UniformInt(kBuckets)];
  const double expected = static_cast<double>(kSamples) / kBuckets;
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], expected, 5 * std::sqrt(expected)) << b;
  }
}

TEST(Rng, UniformDoubleInHalfOpenUnitInterval) {
  Rng rng(6);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesRate) {
  Rng rng(7);
  for (double p : {0.0, 0.1, 0.333, 0.5, 0.9, 1.0}) {
    int hits = 0;
    constexpr int kSamples = 40000;
    for (int i = 0; i < kSamples; ++i) hits += rng.Bernoulli(p);
    EXPECT_NEAR(static_cast<double>(hits) / kSamples, p, 0.01) << p;
  }
}

TEST(Rng, BernoulliRejectsOutOfRange) {
  Rng rng(8);
  EXPECT_THROW(rng.Bernoulli(-0.1), std::invalid_argument);
  EXPECT_THROW(rng.Bernoulli(1.1), std::invalid_argument);
}

TEST(Rng, BitIsBalanced) {
  Rng rng(9);
  int ones = 0;
  for (int i = 0; i < 40000; ++i) ones += rng.Bit();
  EXPECT_NEAR(ones / 40000.0, 0.5, 0.01);
}

TEST(Rng, SplitProducesDecorrelatedStream) {
  Rng parent(10);
  Rng child = parent.Split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += parent.NextU64() == child.NextU64();
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitIsDeterministic) {
  Rng a(11);
  Rng b(11);
  Rng ca = a.Split();
  Rng cb = b.Split();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(ca.NextU64(), cb.NextU64());
}

TEST(Rng, SaveRestoreResumesIdenticalStream) {
  Rng rng(77);
  for (int i = 0; i < 13; ++i) (void)rng.NextU64();  // mid-stream state
  const std::array<std::uint64_t, 4> state = rng.SaveState();
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 64; ++i) expected.push_back(rng.NextU64());
  Rng restored = Rng::Restore(state);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(restored.NextU64(), expected[i]);
  // Splits resume identically too (checkpoint/resume depends on this).
  Rng again = Rng::Restore(state);
  Rng child_a = Rng::Restore(state).Split();
  Rng child_b = again.Split();
  EXPECT_EQ(child_a.NextU64(), child_b.NextU64());
}

TEST(Rng, RestoreRejectsAllZeroState) {
  EXPECT_THROW((void)Rng::Restore({0, 0, 0, 0}), std::invalid_argument);
}

TEST(Rng, NoShortCycles) {
  Rng rng(12);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(seen.insert(rng.NextU64()).second) << "cycle at " << i;
  }
}

// The p values the fixed-point threshold must get exactly right: the
// endpoints, subnormal-adjacent values, values just below/above exactly
// representable thresholds, and a spread of "ordinary" rates.
std::vector<double> ThresholdSweep() {
  const double denorm = std::numeric_limits<double>::denorm_min();
  std::vector<double> ps = {
      0.0,
      denorm,                            // smallest positive double
      2.0 * denorm,
      std::numeric_limits<double>::min(),  // smallest normal
      1e-300,
      0x1.0p-53,                         // exactly one 53-bit grain
      std::nextafter(0x1.0p-53, 0.0),
      std::nextafter(0x1.0p-53, 1.0),
      1e-9,
      0.1,
      1.0 / 3.0,
      0.25,
      std::nextafter(0.25, 0.0),
      std::nextafter(0.25, 1.0),
      0.5,
      0.75,
      0.9,
      std::nextafter(1.0, 0.0),          // largest double below 1
      1.0,
  };
  return ps;
}

TEST(Rng, BernoulliThresholdAgreesWithDoubleCompareForAllGrains) {
  // For every p in the sweep and every interesting 53-bit draw k, the
  // integer compare k < t(p) must agree with the historical double
  // compare k * 2^-53 < p.  The ks probe both sides of the threshold and
  // both ends of the draw range.
  constexpr std::uint64_t kMaxDraw = (1ULL << 53) - 1;
  for (double p : ThresholdSweep()) {
    const std::uint64_t t = BernoulliThreshold(p);
    ASSERT_LE(t, 1ULL << 53) << p;
    std::vector<std::uint64_t> ks = {0, 1, 2, kMaxDraw - 1, kMaxDraw};
    for (std::uint64_t around : {t}) {
      for (std::uint64_t delta : {0ULL, 1ULL, 2ULL}) {
        if (around >= delta) ks.push_back(around - delta);
        if (around + delta <= kMaxDraw) ks.push_back(around + delta);
      }
    }
    for (std::uint64_t k : ks) {
      const bool fixed_point = k < t;
      const bool reference = std::ldexp(static_cast<double>(k), -53) < p;
      EXPECT_EQ(fixed_point, reference) << "p=" << p << " k=" << k;
    }
  }
}

TEST(Rng, BernoulliIsBitIdenticalToUniformDoublePath) {
  // Stream-level property: Rng::Bernoulli must produce exactly the
  // decisions the historical `UniformDouble() < p` path produced, from
  // the same generator state, for every p and seed.
  for (std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
    for (double p : ThresholdSweep()) {
      Rng historical(seed);
      Rng fixed_point(seed);
      for (int i = 0; i < 512; ++i) {
        const bool reference = historical.UniformDouble() < p;
        EXPECT_EQ(fixed_point.Bernoulli(p), reference)
            << "seed=" << seed << " p=" << p << " draw=" << i;
      }
    }
  }
}

TEST(Rng, BernoulliSamplerIsBitIdenticalToBernoulli) {
  for (std::uint64_t seed : {7ULL, 123456789ULL}) {
    for (double p : ThresholdSweep()) {
      const BernoulliSampler sampler(p);
      EXPECT_EQ(sampler.p(), p);
      EXPECT_EQ(sampler.threshold(), BernoulliThreshold(p));
      Rng direct(seed);
      Rng sampled(seed);
      for (int i = 0; i < 256; ++i) {
        EXPECT_EQ(sampler.Sample(sampled), direct.Bernoulli(p))
            << "seed=" << seed << " p=" << p << " draw=" << i;
      }
      // Both paths consumed the same number of draws.
      EXPECT_EQ(sampled.NextU64(), direct.NextU64());
    }
  }
}

// FillBernoulli is the per-listener noise loop: it must be, draw for
// draw, `out[i] = base ^ sampler.Sample(rng)` -- the same bits and the
// same generator state afterwards.
TEST(Rng, FillBernoulliMatchesTheSampleLoop) {
  for (const double p : {0.0, 0.05, 0.3, 0.5, 1.0}) {
    const BernoulliSampler sampler(p);
    for (const std::size_t size : {0u, 1u, 7u, 64u, 200u}) {
      for (const std::uint8_t base : {0, 1}) {
        Rng filled(99);
        Rng sampled(99);
        std::vector<std::uint8_t> out(size, 0xaa);
        filled.FillBernoulli(out, sampler.threshold(), base);
        std::vector<std::uint8_t> expected(size, 0);
        for (std::uint8_t& bit : expected) {
          bit = base ^ static_cast<std::uint8_t>(sampler.Sample(sampled));
        }
        EXPECT_EQ(out, expected) << "p=" << p << " size=" << size;
        EXPECT_EQ(filled.SaveState(), sampled.SaveState())
            << "p=" << p << " size=" << size;
      }
    }
  }
}

TEST(Rng, FillBernoulliEdgeCases) {
  // The empty span draws nothing.
  Rng rng(5);
  const auto before = rng.SaveState();
  rng.FillBernoulli({}, BernoulliThreshold(0.5), 1);
  EXPECT_EQ(rng.SaveState(), before);
  // p = 0 and p = 1 still draw once per slot (the stream contract), and
  // yield base and !base.
  std::vector<std::uint8_t> out(9, 0);
  Rng never(5);
  never.FillBernoulli(out, BernoulliThreshold(0.0), 1);
  EXPECT_EQ(out, std::vector<std::uint8_t>(9, 1));
  Rng always(5);
  always.FillBernoulli(out, BernoulliThreshold(1.0), 1);
  EXPECT_EQ(out, std::vector<std::uint8_t>(9, 0));
  Rng reference(5);
  for (int i = 0; i < 9; ++i) (void)reference.NextU64();
  EXPECT_EQ(never.SaveState(), reference.SaveState());
  EXPECT_EQ(always.SaveState(), reference.SaveState());
}

TEST(Rng, BernoulliThresholdEndpoints) {
  EXPECT_EQ(BernoulliThreshold(0.0), 0u);
  EXPECT_EQ(BernoulliThreshold(1.0), 1ULL << 53);
  // The smallest positive double still gets a nonzero threshold (it must
  // be able to fire), and probabilities below one grain round up.
  EXPECT_EQ(BernoulliThreshold(std::numeric_limits<double>::denorm_min()),
            1u);
  EXPECT_EQ(BernoulliThreshold(0x1.0p-53), 1u);
  EXPECT_EQ(BernoulliThreshold(0.5), 1ULL << 52);
  EXPECT_THROW((void)BernoulliThreshold(-0.1), std::invalid_argument);
  EXPECT_THROW((void)BernoulliThreshold(1.5), std::invalid_argument);
  EXPECT_THROW(BernoulliSampler(2.0), std::invalid_argument);
}

// --- BernoulliWordSampler: 64 exact Bernoulli lanes per call -------------

TEST(BernoulliWordSampler, EndpointsConsumeNoRandomness) {
  Rng rng(7);
  const auto before = rng.SaveState();
  BernoulliWordSampler zero(0.0);
  EXPECT_EQ(zero.NoiseWord(rng), 0u);
  EXPECT_EQ(rng.SaveState(), before);
  BernoulliWordSampler one(1.0);
  EXPECT_EQ(one.NoiseWord(rng), ~std::uint64_t{0});
  EXPECT_EQ(rng.SaveState(), before);
}

TEST(BernoulliWordSampler, DeterministicFromTheSameState) {
  BernoulliWordSampler sampler(0.3);
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(sampler.NoiseWord(a), sampler.NoiseWord(b));
  }
}

TEST(BernoulliWordSampler, LaneMarginalMatchesTheProbability) {
  // Each of the 64 lanes must be Bernoulli(p) exactly; check the pooled
  // empirical rate against a 5-sigma band.
  for (double p : {0.05, 0.5, 0.9}) {
    BernoulliWordSampler sampler(p);
    Rng rng(20260808);
    const int kWords = 4000;
    std::int64_t ones = 0;
    for (int i = 0; i < kWords; ++i) {
      ones += std::popcount(sampler.NoiseWord(rng));
    }
    const double trials = 64.0 * kWords;
    const double sigma = std::sqrt(p * (1.0 - p) * trials);
    EXPECT_NEAR(static_cast<double>(ones), p * trials, 5.0 * sigma)
        << "p=" << p;
  }
}

TEST(BernoulliWordSampler, LanesAreIndependentAcrossCalls) {
  // Adjacent words must not be correlated: the XOR of two consecutive
  // draws at p=0.5 is itself Bernoulli(0.5) per lane.
  BernoulliWordSampler sampler(0.5);
  Rng rng(11);
  std::int64_t ones = 0;
  const int kPairs = 2000;
  for (int i = 0; i < kPairs; ++i) {
    ones += std::popcount(sampler.NoiseWord(rng) ^ sampler.NoiseWord(rng));
  }
  const double trials = 64.0 * kPairs;
  const double sigma = std::sqrt(0.25 * trials);
  EXPECT_NEAR(static_cast<double>(ones), 0.5 * trials, 5.0 * sigma);
}

// --- GeometricSkipSampler: gaps between Bernoulli successes --------------

TEST(GeometricSkipSampler, EndpointsConsumeNoRandomness) {
  Rng rng(7);
  const auto before = rng.SaveState();
  GeometricSkipSampler never(0.0);
  EXPECT_EQ(never.NextGap(rng), GeometricSkipSampler::kNoSuccess);
  EXPECT_EQ(rng.SaveState(), before);
  GeometricSkipSampler always(1.0);
  EXPECT_EQ(always.NextGap(rng), 0u);
  EXPECT_EQ(rng.SaveState(), before);
}

TEST(GeometricSkipSampler, MeanGapMatchesTheGeometricDistribution) {
  // E[gap] = (1-p)/p for the number of failures before a success.
  for (double p : {0.5, 0.05, 0.004}) {
    GeometricSkipSampler sampler(p);
    Rng rng(20260808);
    const int kDraws = 20000;
    double sum = 0.0;
    for (int i = 0; i < kDraws; ++i) {
      const std::uint64_t gap = sampler.NextGap(rng);
      ASSERT_NE(gap, GeometricSkipSampler::kNoSuccess);
      sum += static_cast<double>(gap);
    }
    const double mean = sum / kDraws;
    const double expect = (1.0 - p) / p;
    // Var[gap] = (1-p)/p^2; 5-sigma band on the sample mean.
    const double sigma = std::sqrt((1.0 - p) / (p * p) / kDraws);
    EXPECT_NEAR(mean, expect, 5.0 * sigma) << "p=" << p;
  }
}

TEST(GeometricSkipSampler, OneDrawPerGap) {
  GeometricSkipSampler sampler(0.01);
  Rng a(5);
  Rng b(5);
  for (int i = 0; i < 100; ++i) {
    (void)sampler.NextGap(a);
    (void)b.NextU64();
  }
  EXPECT_EQ(a.SaveState(), b.SaveState());
}

}  // namespace
}  // namespace noisybeeps

