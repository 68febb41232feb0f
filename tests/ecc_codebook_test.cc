#include "ecc/codebook.h"

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <vector>

#include "ecc/code.h"
#include "util/rng.h"

namespace noisybeeps {
namespace {

TEST(CodebookCode, ExplicitBookRoundTrips) {
  std::vector<BitString> book{BitString::FromString("0000"),
                              BitString::FromString("1111"),
                              BitString::FromString("0110")};
  const CodebookCode code(std::move(book));
  EXPECT_EQ(code.num_messages(), 3u);
  EXPECT_EQ(code.codeword_length(), 4u);
  for (std::uint64_t m = 0; m < 3; ++m) {
    EXPECT_EQ(code.Decode(code.Encode(m)), m);
  }
}

TEST(CodebookCode, RejectsInvalidBooks) {
  EXPECT_THROW(CodebookCode({BitString::FromString("01")}),
               std::invalid_argument);  // too few words
  EXPECT_THROW(CodebookCode({BitString::FromString("01"),
                             BitString::FromString("011")}),
               std::invalid_argument);  // ragged lengths
  EXPECT_THROW(CodebookCode({BitString::FromString("01"),
                             BitString::FromString("01")}),
               std::invalid_argument);  // duplicates
  EXPECT_THROW(CodebookCode({BitString(), BitString()}),
               std::invalid_argument);  // empty words
}

TEST(CodebookCode, RandomConstructionIsDeterministicInSeed) {
  const CodebookCode a = CodebookCode::Random(17, 24, 99);
  const CodebookCode b = CodebookCode::Random(17, 24, 99);
  for (std::uint64_t m = 0; m < 17; ++m) {
    EXPECT_EQ(a.Encode(m), b.Encode(m));
  }
  const CodebookCode c = CodebookCode::Random(17, 24, 100);
  std::size_t same = 0;
  for (std::uint64_t m = 0; m < 17; ++m) same += a.Encode(m) == c.Encode(m);
  EXPECT_LT(same, 3u);
}

TEST(CodebookCode, RandomBookHasReasonableDistance) {
  // Random codes of length 8*log2(q) concentrate near relative distance
  // 1/2; anything below L/5 would be an implementation bug.
  const CodebookCode code = CodebookCode::Random(33, 48, 7);
  EXPECT_GE(MinimumDistance(code), 48u / 5);
}

TEST(CodebookCode, DecodeNearestTiesBreakLow) {
  std::vector<BitString> book{BitString::FromString("0000"),
                              BitString::FromString("0011")};
  const CodebookCode code(std::move(book));
  // "0001" is at distance 1 from both; message 0 must win.
  const BitString tie = BitString::FromString("0001");
  EXPECT_EQ(code.Decode(tie), 0u);
  // 2 * 1 is not below d_min = 2, so either candidate falls through to
  // the scan, which breaks the tie low.
  EXPECT_EQ(code.Decode(tie.words(), 0), 0u);
  EXPECT_EQ(code.Decode(tie.words(), 1), 0u);
}

TEST(CodebookCode, DecodeRejectsWrongLength) {
  const CodebookCode code = CodebookCode::Random(4, 10, 1);
  EXPECT_THROW((void)code.Decode(BitString::FromString("01")),
               std::invalid_argument);
}

TEST(CodebookCode, MinimumDistanceMatchesEnumeration) {
  for (const std::size_t length : {10u, 24u, 60u, 64u, 65u, 130u}) {
    const CodebookCode code = CodebookCode::Random(33, length, 17);
    EXPECT_EQ(code.minimum_distance(), MinimumDistance(code)) << length;
    EXPECT_EQ(code.words_per_codeword(), (length + 63) / 64);
  }
}

TEST(CodebookCode, PackedCodewordMatchesEncode) {
  const CodebookCode code = CodebookCode::Random(9, 70, 3);
  for (std::uint64_t m = 0; m < code.num_messages(); ++m) {
    const BitString word = code.Encode(m);
    const std::span<const std::uint64_t> packed = code.Codeword(m);
    ASSERT_EQ(packed.size(), word.word_count());
    for (std::size_t wi = 0; wi < packed.size(); ++wi) {
      EXPECT_EQ(packed[wi], word.Word(wi)) << m;
    }
  }
  EXPECT_THROW((void)code.Codeword(9), std::invalid_argument);
}

// Flips `flips` distinct positions of `word`, chosen uniformly.
BitString FlipDistinct(BitString word, std::size_t flips, Rng& rng) {
  std::vector<std::size_t> positions(word.size());
  for (std::size_t i = 0; i < positions.size(); ++i) positions[i] = i;
  for (std::size_t k = 0; k < flips; ++k) {
    const std::size_t j = k + rng.UniformInt(positions.size() - k);
    std::swap(positions[k], positions[j]);
    word.Set(positions[k], !word[positions[k]]);
  }
  return word;
}

// The packed decoder, with and without a candidate, must agree with the
// reference exhaustive search on every word: noisy codewords at every
// error weight from 0 to L, uniform words, and every candidate.
TEST(CodebookCode, PackedDecodeMatchesNearestCodewordReference) {
  for (const std::size_t length : {12u, 60u, 64u, 100u, 150u}) {
    const CodebookCode code = CodebookCode::Random(20, length, length);
    const std::uint64_t q = code.num_messages();
    Rng rng(1000 + length);
    for (int trial = 0; trial < 400; ++trial) {
      BitString word;
      if (trial % 4 == 3) {
        for (std::size_t i = 0; i < length; ++i) word.PushBack(rng.Bit());
      } else {
        const std::size_t flips = rng.UniformInt(length + 1);
        word = FlipDistinct(code.Encode(rng.UniformInt(q)), flips, rng);
      }
      const std::uint64_t want = NearestCodewordDecode(code, word);
      ASSERT_EQ(code.Decode(word), want) << length << " " << trial;
      for (std::uint64_t candidate = 0; candidate < q; ++candidate) {
        ASSERT_EQ(code.Decode(word.words(), candidate), want)
            << length << " " << trial << " candidate " << candidate;
      }
    }
  }
}

// A word at exactly 2d == d_min from the candidate is outside the
// unique-decoding radius: a lower-indexed codeword at the same distance
// must still win.
TEST(CodebookCode, PackedDecodeAtExactRadiusFallsThrough) {
  const CodebookCode code({BitString::FromString("000000"),
                           BitString::FromString("001111"),
                           BitString::FromString("111100")});
  ASSERT_EQ(code.minimum_distance(), 4u);
  // Distance 2 from both messages 0 and 1.
  const BitString word = BitString::FromString("000011");
  ASSERT_EQ(code.Encode(1).HammingDistance(word), 2u);
  ASSERT_EQ(code.Encode(0).HammingDistance(word), 2u);
  EXPECT_EQ(code.Decode(word.words(), 1), 0u);
  EXPECT_EQ(NearestCodewordDecode(code, word), 0u);
  // One bit closer to message 1 is inside its radius: one comparison.
  const BitString inside = BitString::FromString("000111");
  EXPECT_EQ(code.Decode(inside.words(), 1), 1u);
  // A wrong, far candidate falls through to the scan's answer.
  EXPECT_EQ(code.Decode(inside.words(), 2), 1u);
}

TEST(CodebookCode, PackedDecodeOnMultiWordBook) {
  const CodebookCode code = CodebookCode::Random(40, 200, 8);
  ASSERT_EQ(code.words_per_codeword(), 4u);
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t msg = rng.UniformInt(code.num_messages());
    const BitString word =
        FlipDistinct(code.Encode(msg), rng.UniformInt(120), rng);
    const std::uint64_t want = NearestCodewordDecode(code, word);
    // Right, wrong and far candidates all give the reference answer.
    EXPECT_EQ(code.Decode(word.words(), msg), want) << trial;
    EXPECT_EQ(code.Decode(word.words(), (msg + 1) % 40), want) << trial;
    EXPECT_EQ(code.Decode(word), want) << trial;
  }
}

TEST(CodebookCode, PackedDecodeRejectsBadInput) {
  const CodebookCode code = CodebookCode::Random(5, 70, 2);
  const BitString word = code.Encode(3);
  // Word count must be ceil(70 / 64) = 2.
  const std::vector<std::uint64_t> short_word{word.Word(0)};
  EXPECT_THROW((void)code.Decode(short_word, 0), std::invalid_argument);
  const std::vector<std::uint64_t> long_word{word.Word(0), word.Word(1), 0};
  EXPECT_THROW((void)code.Decode(long_word, 0), std::invalid_argument);
  // Bit 70 lies past L in the last word.
  const std::vector<std::uint64_t> dirty_tail{word.Word(0),
                                              word.Word(1) | (1ULL << 6)};
  EXPECT_THROW((void)code.Decode(dirty_tail, 0), std::invalid_argument);
  EXPECT_THROW((void)code.Decode(word.words(), 5), std::invalid_argument);
  EXPECT_EQ(code.Decode(word.words(), 4), 3u);
}

TEST(GilbertVarshamov, GuaranteesMinimumDistance) {
  const std::size_t d = 9;
  const CodebookCode code = CodebookCode::GilbertVarshamov(16, 32, d, 5);
  EXPECT_GE(MinimumDistance(code), d);
}

TEST(GilbertVarshamov, ImpossibleParametersThrow) {
  // 2^8 = 256 codewords of length 8 at distance 8 means all-distinct
  // repetitions -- impossible beyond 2 words.
  EXPECT_THROW(
      (void)CodebookCode::GilbertVarshamov(10, 8, 8, 1),
      std::runtime_error);
}

TEST(GilbertVarshamov, CorrectsHalfDistanceErrors) {
  const std::size_t d = 11;
  const CodebookCode code = CodebookCode::GilbertVarshamov(8, 40, d, 6);
  Rng rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t msg = rng.UniformInt(code.num_messages());
    BitString word = code.Encode(msg);
    // Up to (d-1)/2 errors are always correctable.
    for (std::size_t e = 0; e < (d - 1) / 2; ++e) {
      const std::size_t p = rng.UniformInt(word.size());
      word.Set(p, !word[p]);
    }
    // Distinct positions not guaranteed above, so the effective error
    // count is <= (d-1)/2 -- decoding must still succeed.
    EXPECT_EQ(code.Decode(word), msg) << trial;
  }
}

class CodebookBscTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(CodebookBscTest, MlDecodingSurvivesBscNoise) {
  const auto [q, eps] = GetParam();
  // Length ~ 8 * log2(q): generous rate, so decode failures should be
  // rare at these noise levels.
  std::size_t length = 8;
  while ((1u << (length / 8)) < static_cast<unsigned>(q)) length += 8;
  length += 24;
  const CodebookCode code = CodebookCode::Random(q, length, 42);
  Rng rng(4242);
  int failures = 0;
  constexpr int kTrials = 300;
  for (int t = 0; t < kTrials; ++t) {
    const std::uint64_t msg = rng.UniformInt(q);
    BitString word = code.Encode(msg);
    for (std::size_t i = 0; i < word.size(); ++i) {
      if (rng.Bernoulli(eps)) word.Set(i, !word[i]);
    }
    failures += code.Decode(word) != msg;
  }
  EXPECT_LE(failures, kTrials / 10)
      << "q=" << q << " eps=" << eps << " L=" << length;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CodebookBscTest,
    ::testing::Combine(::testing::Values(5, 17, 65),
                       ::testing::Values(0.02, 0.05, 0.10)));

}  // namespace
}  // namespace noisybeeps
