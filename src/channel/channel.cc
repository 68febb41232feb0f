#include "channel/channel.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "util/require.h"

namespace noisybeeps {

void FillSharedWords(std::span<std::uint64_t> words, std::int64_t n,
                     bool bit) {
  if (words.empty()) return;
  const std::uint64_t fill = bit ? ~std::uint64_t{0} : 0;
  for (std::uint64_t& w : words) w = fill;
  words.back() &= TailWordMask(n);
}

// Byte lanes are loaded little-endian: lane k is the k-th byte in memory.
static_assert(std::endian::native == std::endian::little,
              "byte-lane packing assumes a little-endian host");

void PackBits(std::span<const std::uint8_t> bytes,
              std::span<std::uint64_t> words) {
  NB_REQUIRE(words.size() ==
                 WordsForParties(static_cast<std::int64_t>(bytes.size())),
             "word span does not match the byte span's party count");
  // Multiplying 0/1 byte lanes by this constant moves lane k's bit to bit
  // 56 + k; every partial product lands on a distinct bit, so nothing
  // carries into the top byte.
  constexpr std::uint64_t kGather = 0x0102040810204080ULL;
  for (std::size_t w = 0; w < words.size(); ++w) {
    const std::size_t base = w * 64;
    const std::size_t lanes = std::min<std::size_t>(64, bytes.size() - base);
    std::uint64_t word = 0;
    ForEachByteLanes(bytes.subspan(base, lanes),
                     [&word](std::size_t g, std::uint64_t group) {
                       word |= ((NonzeroByteLanes(group) * kGather) >> 56)
                               << (8 * g);
                     });
    words[w] = word;
  }
}

void UnpackBits(std::span<const std::uint64_t> words,
                std::span<std::uint8_t> bytes) {
  NB_REQUIRE(words.size() ==
                 WordsForParties(static_cast<std::int64_t>(bytes.size())),
             "word span does not match the byte span's party count");
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>((words[i / 64] >> (i % 64)) & 1u);
  }
}

void Transpose64(std::span<std::uint64_t, 64> rows) {
  // Round j swaps, in every 2j x 2j block, the top-right j x j block
  // (rows k, columns j..2j-1) with the bottom-left one (rows k + j,
  // columns 0..j-1); `mask` selects the low j columns of each 2j group.
  std::uint64_t mask = 0x00000000ffffffffULL;
  for (std::size_t j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (std::size_t k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t swap = ((rows[k] >> j) ^ rows[k + j]) & mask;
      rows[k] ^= swap << j;
      rows[k + j] ^= swap;
    }
  }
}

void Channel::CheckWordDelivery(std::int64_t num_beepers,
                                std::span<const std::uint64_t> received,
                                std::int64_t num_parties) {
  NB_REQUIRE(num_parties >= 1, "need at least one listener");
  NB_REQUIRE(num_beepers >= 0 && num_beepers <= num_parties,
             "beeper count out of [0, num_parties]");
  NB_REQUIRE(received.size() == WordsForParties(num_parties),
             "received word span does not match the party count");
}

void Channel::DeliverWords(std::int64_t num_beepers,
                           std::span<std::uint64_t> received,
                           std::int64_t num_parties, WordMode mode,
                           Rng& rng) const {
  CheckWordDelivery(num_beepers, received, num_parties);
  (void)mode;  // the scalar path has only one stream
  // Compatibility fallback for channel implementations that predate the
  // word path: round-trip through the scalar Deliver.  Allocates a byte
  // per listener per call -- correct for wrappers and external channels,
  // never the hot path (every built-in channel overrides DeliverWords).
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(num_parties), 0);
  Deliver(num_beepers, bytes, rng);
  PackBits(bytes, received);
}

bool Channel::DeliverShared(std::int64_t num_beepers, Rng& rng) const {
  NB_REQUIRE(is_correlated(),
             "DeliverShared is only meaningful for correlated channels");
  std::uint8_t bit = 0;
  Deliver(num_beepers, std::span<std::uint8_t>(&bit, 1), rng);
  return bit != 0;
}

}  // namespace noisybeeps
