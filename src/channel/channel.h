// The beeping channel abstraction.
//
// In every round, each of the n parties either beeps (1) or stays silent
// (0).  A Channel turns the round's BEEPER COUNT into the bit each party
// *receives*, applying its noise model.  The paper's beeping channels
// depend on the count only through the OR (count > 0); carrying the count
// additionally admits the neighbouring radio-network models the paper's
// related-work section situates itself against -- e.g. collision-as-
// silence, where two simultaneous beeps sound like none.  Correlated
// channels deliver the same bit to everyone (all parties share one
// transcript); the independent-noise channel delivers a per-party noisy
// copy (Section 1.2 of the paper).
//
// Two delivery representations coexist (docs/PERFORMANCE.md):
//   Deliver       one byte per listener -- the historical scalar path.
//   DeliverWords  64 listeners packed per u64 word -- the word-parallel
//                 path the mega-n round engine runs on.
// Party and beeper counts are std::int64_t throughout: the packed path
// simulates n in the millions and beyond, where `int` silently caps the
// count and invites overflow UB.
#ifndef NOISYBEEPS_CHANNEL_CHANNEL_H_
#define NOISYBEEPS_CHANNEL_CHANNEL_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "util/rng.h"

namespace noisybeeps {

// How the word-level delivery path treats the random stream:
//   kStreamCompat  draw-for-draw identical to the scalar Deliver path:
//                  same seed => same bits AND the same number of NextU64
//                  calls, so every pre-word golden (channel stream tests,
//                  EXPERIMENTS.md numbers) stays valid.
//   kFast          batched noise sampling -- geometric skip-sampling for
//                  sparse noise, bit-sliced word draws otherwise -- with
//                  its own goldens, gated by perfguard baselines.
// Shared-draw channels consume one draw per round either way, so for them
// the modes coincide by construction; only per-listener noise (the
// independent channel) distinguishes them.
enum class WordMode : std::uint8_t { kStreamCompat, kFast };

// Bits per packed word; words needed for n parties; the valid-bit mask of
// the LAST word (all-ones when n is a multiple of 64).  These mirror
// BitString's packing so a BitString::words() span is directly usable as
// a beep-word span.
inline constexpr std::int64_t kWordBits = 64;

[[nodiscard]] constexpr std::size_t WordsForParties(std::int64_t n) {
  return static_cast<std::size_t>((n + kWordBits - 1) / kWordBits);
}

[[nodiscard]] constexpr std::uint64_t TailWordMask(std::int64_t n) {
  return n % kWordBits == 0
             ? ~std::uint64_t{0}
             : (std::uint64_t{1} << (n % kWordBits)) - 1;
}

// Fills every listener slot with the same received bit.  Shared-draw
// channels (everything except the independent-noise channel) hand one
// transcript to all parties; a memset is word-wide where the obvious
// byte loop is not.
inline void FillShared(std::span<std::uint8_t> received, bool bit) {
  if (!received.empty()) {
    std::memset(received.data(), bit ? 1 : 0, received.size());
  }
}

// Word-level counterpart of FillShared: all-ones (masked to the valid
// tail bits) or all-zeros.  Precondition: words.size() == WordsForParties(n).
void FillSharedWords(std::span<std::uint64_t> words, std::int64_t n,
                     bool bit);

// Packs one byte per listener into words (tail bits zeroed) and back.
// A byte packs to 1 iff it is nonzero, 8 listeners per u64 operation (see
// the byte-lane helpers below); unpacking yields 0/1 bytes.
// Preconditions: words.size() == WordsForParties(bytes.size()).
void PackBits(std::span<const std::uint8_t> bytes,
              std::span<std::uint64_t> words);
void UnpackBits(std::span<const std::uint64_t> words,
                std::span<std::uint8_t> bytes);

// --- byte lanes: 8 one-byte listener slots per u64 --------------------
//
// Byte k of a lane word is slot k (little-endian load order), so the
// scalar byte-per-listener round can be counted, tallied and packed 8
// slots per operation without touching the bytes' meaning.

// Calls visit(g, lanes) for every group g of 8 consecutive bytes, in
// order, with lanes holding bytes[8g, 8g + 8); a partial last group's
// missing lanes are 0.  Full groups load with a fixed-size copy (one
// instruction); only the tail pays a variable-length one.
template <typename Visit>
void ForEachByteLanes(std::span<const std::uint8_t> bytes, Visit&& visit) {
  const std::size_t full = bytes.size() / 8;
  for (std::size_t g = 0; g < full; ++g) {
    std::uint64_t lanes = 0;
    std::memcpy(&lanes, bytes.data() + 8 * g, 8);
    visit(g, lanes);
  }
  if (const std::size_t tail = bytes.size() % 8; tail != 0) {
    std::uint64_t lanes = 0;
    std::memcpy(&lanes, bytes.data() + 8 * full, tail);
    visit(full, lanes);
  }
}

// 0x01 in every byte lane of `lanes` that is nonzero, 0x00 elsewhere:
// adding 0x7f to a lane's low 7 bits carries into its bit 7 iff they are
// nonzero (never out of the lane), and OR-ing the lane keeps its own bit 7.
[[nodiscard]] constexpr std::uint64_t NonzeroByteLanes(std::uint64_t lanes) {
  constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
  return ((((lanes & kLow7) + kLow7) | lanes) >> 7) & 0x0101010101010101ULL;
}

// Transposes a 64x64 bit matrix in place: bit c of rows[r] moves to bit r
// of rows[c].  Six rounds of block swaps (32x32 down to 1x1 blocks).
void Transpose64(std::span<std::uint64_t, 64> rows);

class Channel {
 public:
  virtual ~Channel() = default;

  // Delivers one round.  `num_beepers` is the number of parties beeping
  // this round (passing a bool works too: the OR converts to 0/1);
  // `received` has one slot per party and is filled with the bit each
  // party hears (0/1).  The rng drives the channel noise for this round.
  virtual void Deliver(std::int64_t num_beepers,
                       std::span<std::uint8_t> received, Rng& rng) const = 0;

  // Word-level delivery: `received` holds WordsForParties(num_parties)
  // words, bit i of word w is what party w*64+i hears, and the unused
  // tail bits of the last word come back zero (so callers can OR and
  // popcount the result without masking).  The default implementation
  // round-trips through the scalar Deliver -- bit-identical by
  // construction, not fast; every built-in channel overrides it.
  // Preconditions: num_parties >= 1, 0 <= num_beepers <= num_parties,
  // received.size() == WordsForParties(num_parties).
  virtual void DeliverWords(std::int64_t num_beepers,
                            std::span<std::uint64_t> received,
                            std::int64_t num_parties, WordMode mode,
                            Rng& rng) const;

  // True when every party is guaranteed to receive the same bit, i.e. the
  // parties share a single transcript.
  [[nodiscard]] virtual bool is_correlated() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  // Convenience for correlated channels: the single shared received bit.
  // Precondition: is_correlated().
  [[nodiscard]] bool DeliverShared(std::int64_t num_beepers, Rng& rng) const;

 protected:
  // Shared precondition checks for DeliverWords implementations.
  static void CheckWordDelivery(std::int64_t num_beepers,
                                std::span<const std::uint64_t> received,
                                std::int64_t num_parties);
};

}  // namespace noisybeeps

#endif  // NOISYBEEPS_CHANNEL_CHANNEL_H_
