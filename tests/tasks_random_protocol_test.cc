#include "tasks/random_protocol.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "channel/correlated.h"
#include "channel/noiseless.h"
#include "coding/rewind_sim.h"
#include "protocol/executor.h"
#include "util/rng.h"

namespace noisybeeps {
namespace {

TEST(RandomProtocol, DeterministicGivenSeeds) {
  Rng rng(1);
  const RandomProtocolSpec spec = SampleRandomProtocol(6, 50, 0.2, true, rng);
  const auto a = MakeRandomProtocol(spec);
  const auto b = MakeRandomProtocol(spec);
  EXPECT_EQ(ReferenceTranscript(*a), ReferenceTranscript(*b));
}

TEST(RandomProtocol, DensityControlsTranscriptWeight) {
  Rng rng(2);
  // With n parties each beeping at rate d, a round is 1 w.p. 1-(1-d)^n.
  for (double density : {0.02, 0.1, 0.5}) {
    const RandomProtocolSpec spec =
        SampleRandomProtocol(8, 2000, density, true, rng);
    const auto protocol = MakeRandomProtocol(spec);
    const BitString pi = ReferenceTranscript(*protocol);
    // Quantization to 1/256 shifts the effective rate slightly.
    const double quantized = static_cast<int>(density * 256) / 256.0;
    const double expected = 1.0 - std::pow(1.0 - quantized, 8);
    const double observed = static_cast<double>(pi.PopCount()) / pi.size();
    EXPECT_NEAR(observed, expected, 0.05) << density;
  }
}

TEST(RandomProtocol, AdaptiveBeepsReactToPrefix) {
  Rng rng(3);
  const RandomProtocolSpec spec =
      SampleRandomProtocol(1, 64, 0.5, true, rng);
  const auto protocol = MakeRandomProtocol(spec);
  // Same round, two different prefixes: the decisions must differ for
  // SOME round (overwhelmingly likely at density 1/2 over 64 rounds).
  BitString zeros(16);
  BitString ones;
  for (int i = 0; i < 16; ++i) ones.PushBack(true);
  int differences = 0;
  for (int m = 0; m < 48; ++m) {
    zeros.PushBack(false);
    ones.PushBack(false);
    if (protocol->party(0).ChooseBeep(zeros) !=
        protocol->party(0).ChooseBeep(ones)) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 5);
}

TEST(RandomProtocol, ObliviousBeepsIgnorePrefix) {
  Rng rng(4);
  const RandomProtocolSpec spec =
      SampleRandomProtocol(1, 64, 0.5, false, rng);
  const auto protocol = MakeRandomProtocol(spec);
  BitString zeros(16);
  BitString ones;
  for (int i = 0; i < 16; ++i) ones.PushBack(true);
  for (int m = 0; m < 48; ++m) {
    zeros.PushBack(false);
    ones.PushBack(false);
    EXPECT_EQ(protocol->party(0).ChooseBeep(zeros),
              protocol->party(0).ChooseBeep(ones))
        << m;
  }
}

TEST(RandomProtocol, OutputDigestDetectsTranscriptCorruption) {
  Rng rng(5);
  const RandomProtocolSpec spec = SampleRandomProtocol(4, 40, 0.2, true, rng);
  const auto protocol = MakeRandomProtocol(spec);
  const BitString reference = ReferenceTranscript(*protocol);
  BitString corrupted = reference;
  corrupted.Set(17, !corrupted[17]);
  EXPECT_NE(TranscriptDigest(reference), TranscriptDigest(corrupted));
  EXPECT_EQ(protocol->party(0).ComputeOutput(reference)[0],
            TranscriptDigest(reference));
}

class RandomProtocolSimTest
    : public ::testing::TestWithParam<std::tuple<double, bool>> {};

TEST_P(RandomProtocolSimTest, RewindReconstructsArbitraryProtocols) {
  // The Theorem 1.2 quantifier, fuzz-style: the rewind scheme must
  // reconstruct pseudorandom protocols of any density and adaptivity.
  const auto [density, adaptive] = GetParam();
  Rng rng(600 + static_cast<int>(density * 100) + (adaptive ? 7 : 0));
  const CorrelatedNoisyChannel channel(0.05);
  const RewindSimulator sim;
  int correct = 0;
  constexpr int kTrials = 8;
  for (int t = 0; t < kTrials; ++t) {
    const RandomProtocolSpec spec =
        SampleRandomProtocol(10, 40, density, adaptive, rng);
    const auto protocol = MakeRandomProtocol(spec);
    const SimulationResult result = sim.Simulate(*protocol, channel, rng);
    correct += !result.budget_exhausted() &&
               result.AllMatch(ReferenceTranscript(*protocol));
  }
  EXPECT_GE(correct, kTrials - 1)
      << "density=" << density << " adaptive=" << adaptive;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RandomProtocolSimTest,
    ::testing::Combine(::testing::Values(0.02, 0.1, 0.3, 0.7),
                       ::testing::Bool()));

// --- the prefix-digest memo ------------------------------------------
//
// A party keeps a private memo of its prefix digest across calls.  These
// tests drive one long-lived party through every kind of prefix move the
// schemes make (extend, rewind, diverge, repeat, alternate) and hold each
// answer to a freshly built party and to a from-scratch fold kept here.

std::uint64_t ReferenceMix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t ReferenceFold(const BitString& prefix) {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    const std::uint64_t bit =
        prefix[i] ? 0x9e3779b97f4a7c15ULL : 0x7f4a7c159e3779b9ULL;
    h = ReferenceMix(h ^ bit ^ (i * 0xff51afd7ed558ccdULL));
  }
  return h;
}

class PrefixMemoChecker {
 public:
  explicit PrefixMemoChecker(std::uint64_t seed)
      : spec_(MakeSpec(seed)),
        beeper_(MakeRandomProtocol(spec_)),
        outputter_(MakeRandomProtocol(spec_)) {}

  // One step: the long-lived beeper answers ChooseBeep then ComputeOutput
  // on `prefix`, the long-lived outputter only ComputeOutput; all answers
  // must match a fresh party and the reference fold.
  void Check(const BitString& prefix) {
    const std::uint64_t fold = ReferenceFold(prefix);
    const std::uint64_t digest = ReferenceMix(fold ^ prefix.size());
    const int threshold = static_cast<int>(spec_.density * 256.0);
    const bool beep =
        static_cast<int>(ReferenceMix(spec_.seeds[0] ^
                                      (prefix.size() * 0xc2b2ae3d27d4eb4fULL) ^
                                      fold) &
                         0xff) < threshold;
    const auto fresh = MakeRandomProtocol(spec_);
    ASSERT_EQ(TranscriptDigest(prefix), digest) << prefix.ToString();
    ASSERT_EQ(fresh->party(0).ChooseBeep(prefix), beep) << prefix.ToString();
    ASSERT_EQ(beeper_->party(0).ChooseBeep(prefix), beep)
        << "step " << steps_ << ": " << prefix.ToString();
    ASSERT_EQ(beeper_->party(0).ComputeOutput(prefix), PartyOutput{digest})
        << "step " << steps_ << ": " << prefix.ToString();
    ASSERT_EQ(outputter_->party(0).ComputeOutput(prefix), PartyOutput{digest})
        << "step " << steps_ << ": " << prefix.ToString();
    ++steps_;
  }

 private:
  static RandomProtocolSpec MakeSpec(std::uint64_t seed) {
    Rng rng(seed);
    return SampleRandomProtocol(1, 1, 0.5, /*adaptive=*/true, rng);
  }

  RandomProtocolSpec spec_;
  std::unique_ptr<Protocol> beeper_;
  std::unique_ptr<Protocol> outputter_;
  int steps_ = 0;
};

BitString RandomBits(std::size_t count, Rng& rng) {
  BitString bits;
  for (std::size_t i = 0; i < count; ++i) bits.PushBack(rng.Bit());
  return bits;
}

void Extend(BitString& prefix, std::size_t count, Rng& rng) {
  prefix.Append(RandomBits(count, rng));
}

TEST(RandomProtocolMemo, ExtendsOneBitAndManyWords) {
  Rng rng(70);
  PrefixMemoChecker checker(1);
  BitString prefix;
  checker.Check(prefix);
  for (int m = 0; m < 200; ++m) {
    prefix.PushBack(rng.Bit());
    checker.Check(prefix);
  }
  for (const std::size_t jump : {65u, 64u, 130u, 1u, 191u}) {
    Extend(prefix, jump, rng);
    checker.Check(prefix);
  }
}

TEST(RandomProtocolMemo, TruncatesToZeroAndAroundWordBoundaries) {
  Rng rng(71);
  PrefixMemoChecker checker(2);
  const BitString full = RandomBits(400, rng);
  checker.Check(full);
  checker.Check(full.Prefix(0));
  checker.Check(full);
  for (const std::size_t boundary : {64u, 128u, 192u, 320u}) {
    for (const std::size_t size : {boundary - 1, boundary, boundary + 1}) {
      checker.Check(full.Prefix(size));
      checker.Check(full);  // re-extend past the rewind point
    }
  }
  // Successive rewinds without re-extending, walking down across words.
  for (const std::size_t size : {257u, 256u, 255u, 129u, 128u, 63u, 1u, 0u}) {
    checker.Check(full.Prefix(size));
  }
}

TEST(RandomProtocolMemo, FlipBelowLastCheckpointAndRepeat) {
  Rng rng(72);
  PrefixMemoChecker checker(3);
  BitString prefix = RandomBits(300, rng);
  checker.Check(prefix);
  checker.Check(prefix);  // the same prefix again
  for (const std::size_t pos : {0u, 63u, 64u, 100u, 255u, 256u, 299u}) {
    prefix.Set(pos, !prefix[pos]);
    checker.Check(prefix);
    checker.Check(prefix);
  }
}

TEST(RandomProtocolMemo, AlternatesDivergentPrefixes) {
  // Chunk simulation and verification evaluate the committed transcript
  // and a candidate that diverges from it, turn and turn about.
  Rng rng(73);
  PrefixMemoChecker checker(4);
  BitString a = RandomBits(150, rng);
  BitString b = a;
  b.Set(70, !b[70]);
  for (int turn = 0; turn < 40; ++turn) {
    Extend(a, 1 + rng.UniformInt(3), rng);
    Extend(b, 1 + rng.UniformInt(3), rng);
    checker.Check(a);
    checker.Check(b);
  }
}

TEST(RandomProtocolMemo, SeededPrefixWalkMatchesFreshParties) {
  constexpr std::size_t kMaxBits = 700;
  Rng rng(74);
  PrefixMemoChecker checker(5);
  BitString prefix;
  BitString other = RandomBits(90, rng);
  for (int step = 0; step < 1500; ++step) {
    switch (rng.UniformInt(7)) {
      case 0:
        prefix.PushBack(rng.Bit());
        break;
      case 1:
        Extend(prefix, 65 + rng.UniformInt(100), rng);
        break;
      case 2:
        prefix.Truncate(0);
        break;
      case 3: {  // a word multiple, or one bit either side of it
        const std::size_t words = prefix.size() / 64;
        const std::size_t base = 64 * rng.UniformInt(words + 1);
        const std::size_t size =
            std::min(prefix.size(), base + rng.UniformInt(3) - (base > 0));
        prefix.Truncate(size);
        break;
      }
      case 4:  // flip a bit below the last word checkpoint
        if (prefix.size() >= 64) {
          const std::size_t pos = rng.UniformInt(prefix.size() / 64 * 64);
          prefix.Set(pos, !prefix[pos]);
        }
        break;
      case 5:  // repeat
        break;
      default:  // switch to the divergent sibling prefix
        std::swap(prefix, other);
        break;
    }
    if (prefix.size() > kMaxBits) prefix.Truncate(kMaxBits);
    checker.Check(prefix);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(RandomProtocol, ValidatesParameters) {
  Rng rng(6);
  EXPECT_THROW((void)SampleRandomProtocol(0, 10, 0.1, true, rng),
               std::invalid_argument);
  EXPECT_THROW((void)SampleRandomProtocol(2, 10, 1.5, true, rng),
               std::invalid_argument);
  EXPECT_THROW((void)MakeRandomProtocol(RandomProtocolSpec{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace noisybeeps
