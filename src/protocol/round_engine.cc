#include "protocol/round_engine.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "util/require.h"

namespace noisybeeps {

RoundEngine::RoundEngine(const Channel& channel, Rng& rng,
                         std::int64_t num_parties)
    : channel_(&channel), rng_(&rng), num_parties_(num_parties) {
  NB_REQUIRE(num_parties >= 1, "need at least one party");
  // Buffers are lazily sized on first use: a word-path run of a mega-n
  // engine never pays for the byte-per-party scalar buffer, and vice
  // versa.
}

std::span<const std::uint8_t> RoundEngine::Round(
    std::span<const std::uint8_t> beeps) {
  NB_REQUIRE(static_cast<std::int64_t>(beeps.size()) == num_parties_,
             "beeps vector has wrong size");
  if (received_.size() != beeps.size()) received_.assign(beeps.size(), 0);
  // Beepers counted 8 slots per u64: the 0/1 lanes' sum lands in the top
  // byte of the product (at most 8, so it cannot carry out).
  constexpr std::uint64_t kSumLanes = 0x0101010101010101ULL;
  std::int64_t num_beepers = 0;
  ForEachByteLanes(beeps, [&num_beepers](std::size_t, std::uint64_t lanes) {
    num_beepers += static_cast<std::int64_t>(
        (NonzeroByteLanes(lanes) * kSumLanes) >> 56);
  });
  channel_->Deliver(num_beepers, received_, *rng_);
  AccountRound();
  return received_;
}

std::span<const std::uint64_t> RoundEngine::RoundWords(
    std::span<const std::uint64_t> beep_words) {
  NB_REQUIRE(beep_words.size() == WordsForParties(num_parties_),
             "beep word span has wrong size");
  NB_REQUIRE((beep_words.back() & ~TailWordMask(num_parties_)) == 0,
             "beep word tail bits past num_parties must be zero");
  if (received_words_.size() != beep_words.size()) {
    received_words_.assign(beep_words.size(), 0);
  }
  std::int64_t num_beepers = 0;
  for (std::uint64_t w : beep_words) num_beepers += std::popcount(w);
  channel_->DeliverWords(num_beepers, received_words_, num_parties_,
                         word_mode_, *rng_);
  AccountRound();
  return received_words_;
}

void TallyRounds(RoundEngine& engine, std::span<const std::uint8_t> beeps,
                 int reps, std::span<std::size_t> ones) {
  NB_REQUIRE(static_cast<std::int64_t>(ones.size()) == engine.num_parties(),
             "one tally slot per party");
  NB_REQUIRE(reps >= 0, "repetition count must be non-negative");
  // Byte counters, 8 parties per u64: each round adds a 0/1 lane word, so
  // a counter reaches at most kMaxRounds before it is flushed and reset.
  constexpr int kMaxRounds = 255;
  const std::size_t n = ones.size();
  std::vector<std::uint64_t> counters((n + 7) / 8);
  std::fill(ones.begin(), ones.end(), 0);
  for (int done = 0; done < reps;) {
    const int block = std::min(reps - done, kMaxRounds);
    std::fill(counters.begin(), counters.end(), 0);
    for (int t = 0; t < block; ++t) {
      ForEachByteLanes(engine.Round(beeps),
                       [&counters](std::size_t g, std::uint64_t lanes) {
                         counters[g] += NonzeroByteLanes(lanes);
                       });
    }
    for (std::size_t i = 0; i < n; ++i) {
      ones[i] += (counters[i / 8] >> (8 * (i % 8))) & 0xff;
    }
    done += block;
  }
}

bool RoundEngine::RoundShared(std::span<const std::uint8_t> beeps) {
  NB_REQUIRE(channel_->is_correlated(),
             "RoundShared requires a correlated channel");
  return Round(beeps)[0] != 0;
}

}  // namespace noisybeeps
