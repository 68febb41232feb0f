#include "coding/owner_finding.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <span>
#include <utility>

#include "coding/sim_common.h"
#include "util/require.h"

namespace noisybeeps {
namespace {

using internal::ViewSet;

// A view's owner-finding state besides its owner records; everything here
// is derived from the bits the view's members received, never from other
// views' state.
struct TurnState {
  int turn = 0;  // whose turn the view believes it is
  // Chunk rounds the view has seen claimed, bit j of word j / 64.
  std::vector<std::uint64_t> claimed;
};

// Bits [pos, pos + 64) of `bits`, bit k of the result being bit pos + k;
// bits past the end read 0 (BitString's tail-bit invariant).
std::uint64_t BitsAt(const BitString& bits, std::size_t pos) {
  const std::size_t wi = pos / kWordBits;
  const std::size_t shift = pos % kWordBits;
  std::uint64_t out = bits.Word(wi) >> shift;
  if (shift != 0 && wi + 1 < bits.word_count()) {
    out |= bits.Word(wi + 1) << (kWordBits - shift);
  }
  return out;
}

// The smallest chunk round of `chunk_len` that a party can still claim --
// one it beeped, its view `pi` holds a 1 and nobody claimed yet -- or the
// Next token.  The chunk starts at round `start` of `pi` and `beeped`.
std::uint64_t NextMessage(const TurnState& state, const BitString& pi,
                          const BitString& beeped, std::size_t start,
                          std::size_t chunk_len, const BeepCode& code) {
  for (std::size_t wi = 0; wi < state.claimed.size(); ++wi) {
    const std::size_t first = wi * kWordBits;
    std::uint64_t free = BitsAt(beeped, start + first) &
                         BitsAt(pi, start + first) & ~state.claimed[wi];
    if (wi + 1 == state.claimed.size()) {
      free &= BitString::TailMask(chunk_len);
    }
    if (free != 0) {
      return first + static_cast<std::size_t>(std::countr_zero(free));
    }
  }
  return code.next_token();
}

// True iff every listener received the same byte: compares 8 bytes at a
// time and stops at the first group that differs.
bool AllBytesEqual(std::span<const std::uint8_t> bytes) {
  const std::uint64_t splat = bytes[0] * 0x0101010101010101ULL;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t lanes = 0;
    std::memcpy(&lanes, bytes.data() + i, 8);
    if (lanes != splat) return false;
  }
  for (; i < bytes.size(); ++i) {
    if (bytes[i] != bytes[0]) return false;
  }
  return true;
}

}  // namespace

namespace internal {

void FindOwnersViews(RoundEngine& engine, const BeepCode& code,
                     ViewSet& views, std::size_t start) {
  const int n = views.num_parties();
  NB_REQUIRE(engine.num_parties() == n, "one view slot per engine party");
  const std::size_t chunk_len = code.chunk_len();
  const std::size_t end = start + chunk_len;
  for (int v = 0; v < views.num_views(); ++v) {
    NB_REQUIRE(views.view(v).transcript.size() == end &&
                   views.view(v).owners.size() == end,
               "views must end with the code's chunk");
  }
  for (int i = 0; i < n; ++i) {
    NB_REQUIRE(views.beeps(i).size() == end,
               "beeps must end with the code's chunk");
  }

  std::vector<TurnState> local(
      views.num_views(),
      TurnState{0, std::vector<std::uint64_t>(
                       (chunk_len + kWordBits - 1) / kWordBits, 0)});
  const auto apply = [&](int v, std::uint64_t sigma) {
    TurnState& s = local[v];
    if (sigma == code.next_token()) {
      ++s.turn;
    } else {
      s.claimed[sigma / kWordBits] |= std::uint64_t{1} << (sigma % kWordBits);
      views.view(v).owners[start + sigma] = s.turn;
    }
  };

  engine.SetPhase("owner-finding");
  const CodebookCode& book = code.codebook();
  const std::size_t word_len = code.codeword_length();
  const std::size_t stride = book.words_per_codeword();
  const std::size_t party_words = WordsForParties(n);
  const int iterations = static_cast<int>(chunk_len) + n;
  std::vector<std::uint8_t> beeps(n, 0);
  // The codeword as received when every party received the same bits,
  // one flag per codeword word saying whether that held for its rounds.
  std::vector<std::uint64_t> shared(stride);
  std::vector<std::uint8_t> block_shared(stride);
  // Party i's received word, packed: received[i * stride, (i+1) * stride).
  // Filled only for codewords some party received differently.
  std::vector<std::uint64_t> received(static_cast<std::size_t>(n) * stride);
  // Up to 64 rounds of received bits, round-major: row r holds the r-th
  // round of the current codeword word, packed by party.  Each 64-party
  // column of it is one 64x64 tile, transposed into the parties' words.
  std::vector<std::uint64_t> rounds(kWordBits * party_words);
  std::array<std::uint64_t, kWordBits> tile{};
  // The parties transmitting this iteration, with their packed codewords.
  std::vector<std::pair<int, std::span<const std::uint64_t>>> speakers;
  // Per party decoded message of a codeword not received identically.
  constexpr std::uint64_t kIgnored = ~std::uint64_t{0};
  std::vector<std::uint64_t> decoded(n);

  for (int l = 0; l < iterations; ++l) {
    // Transmission: the turn-holder of each view beeps its codeword when
    // it is a member of that view; everyone else is silent.  (Under
    // correlated noise there is one view and exactly one party speaks;
    // under independent noise views with diverged turns can collide --
    // the OR then garbles the word, which downstream verification treats
    // as any other decoding error.)
    speakers.clear();
    for (int v = 0; v < views.num_views(); ++v) {
      const int t = local[v].turn;
      if (t < n && views.view_of(t) == v) {
        speakers.emplace_back(
            t, book.Codeword(NextMessage(local[v], views.view(v).transcript,
                                         views.beeps(t), start, chunk_len,
                                         code)));
      }
    }
    bool all_shared = true;
    for (std::size_t wi = 0; wi < stride; ++wi) {
      const std::size_t rows =
          std::min<std::size_t>(kWordBits, word_len - wi * kWordBits);
      // While every round of this word reached all parties identically,
      // its bits collect in one word; the first round that differs
      // expands the rows so far and continues on the per-party path.
      bool same = true;
      std::uint64_t word = 0;
      for (std::size_t r = 0; r < rows; ++r) {
        for (const auto& [i, cw] : speakers) {
          beeps[i] = static_cast<std::uint8_t>((cw[wi] >> r) & 1u);
        }
        const std::span<const std::uint8_t> got = engine.Round(beeps);
        const std::span<std::uint64_t> row =
            std::span(rounds).subspan(r * party_words, party_words);
        if (same) {
          if (AllBytesEqual(got)) {
            word |= static_cast<std::uint64_t>(got[0] != 0) << r;
            continue;
          }
          same = false;
          // Lanes past the last party are never read back, so a round
          // every party received alike expands to all-ones or all-zeros.
          for (std::size_t r2 = 0; r2 < r; ++r2) {
            std::fill_n(rounds.begin() + r2 * party_words, party_words,
                        ((word >> r2) & 1u) != 0 ? ~std::uint64_t{0} : 0);
          }
        }
        PackBits(got, row);
      }
      block_shared[wi] = same ? 1 : 0;
      if (same) {
        shared[wi] = word;
        continue;
      }
      all_shared = false;
      for (std::size_t pw = 0; pw < party_words; ++pw) {
        for (std::size_t r = 0; r < kWordBits; ++r) {
          tile[r] = r < rows ? rounds[r * party_words + pw] : 0;
        }
        Transpose64(tile);
        const std::size_t first = pw * kWordBits;
        const std::size_t lanes = std::min<std::size_t>(
            kWordBits, static_cast<std::size_t>(n) - first);
        for (std::size_t p = 0; p < lanes; ++p) {
          received[(first + p) * stride + wi] = tile[p];
        }
      }
    }
    for (const auto& speaker : speakers) beeps[speaker.first] = 0;

    // Decoding + state update.  Once a view's turn counter has run past
    // the last party (only possible after decoding errors), every
    // remaining iteration carries no usable information for it: ignore
    // locally rather than record claims by a non-existent party.
    if (all_shared) {
      // One received word for everyone: one decode, one update per view.
      bool decoded_once = false;
      std::uint64_t sigma = code.next_token();
      for (int v = 0; v < views.num_views(); ++v) {
        if (local[v].turn >= n) continue;
        if (!decoded_once) {
          sigma = book.Decode(shared, sigma);
          decoded_once = true;
        }
        apply(v, sigma);
      }
      continue;
    }
    for (std::size_t wi = 0; wi < stride; ++wi) {
      if (block_shared[wi] == 0) continue;
      for (int i = 0; i < n; ++i) received[i * stride + wi] = shared[wi];
    }
    // Per party, from that party's received bits.  The previous decode is
    // only a starting guess for the exact decoder (see
    // CodebookCode::Decode): it saves the scan when both received words
    // lie near the same codeword and never changes the decoded value.  A
    // word equal to the previously decoded one reuses its decode outright
    // -- decoding is a pure function of the word.
    std::uint64_t sigma = code.next_token();
    const std::uint64_t* decoded_word = nullptr;
    for (int i = 0; i < n; ++i) {
      if (local[views.view_of(i)].turn >= n) {
        decoded[i] = kIgnored;
        continue;
      }
      const std::span<const std::uint64_t> word(&received[i * stride], stride);
      if (decoded_word == nullptr ||
          !std::equal(word.begin(), word.end(), decoded_word)) {
        sigma = book.Decode(word, sigma);
        decoded_word = word.data();
      }
      decoded[i] = sigma;
    }
    // Members that decoded different messages part ways; each view then
    // takes the message its members decoded.
    if (views.Refine([&](int i) { return decoded[i]; })) {
      for (int v = static_cast<int>(local.size()); v < views.num_views();
           ++v) {
        TurnState copy = local[views.parent(v)];
        local.push_back(std::move(copy));
      }
    }
    const std::vector<int> first = views.FirstMembers();
    for (int v = 0; v < views.num_views(); ++v) {
      if (decoded[first[v]] != kIgnored) apply(v, decoded[first[v]]);
    }
  }
}

}  // namespace internal

OwnerFindingResult FindOwners(RoundEngine& engine, const BeepCode& code,
                              const std::vector<BitString>& pi_view,
                              const std::vector<BitString>& beeped) {
  const auto n = static_cast<int>(engine.num_parties());
  NB_REQUIRE(static_cast<int>(pi_view.size()) == n &&
                 static_cast<int>(beeped.size()) == n,
             "need one chunk view per party");
  const std::size_t chunk_len = code.chunk_len();
  for (int i = 0; i < n; ++i) {
    NB_REQUIRE(pi_view[i].size() == chunk_len &&
                   beeped[i].size() == chunk_len,
               "chunk views must match the code's chunk length");
  }
  ViewSet views = ViewSet::Group(pi_view);
  for (int i = 0; i < n; ++i) views.beeps(i) = beeped[i];
  internal::FindOwnersViews(engine, code, views, 0);
  OwnerFindingResult result;
  result.owners = views.Owners();
  return result;
}

bool OwnersValid(const OwnerFindingResult& result, const BitString& true_pi,
                 const std::vector<BitString>& true_beeped) {
  const std::size_t chunk_len = true_pi.size();
  for (std::size_t m = 0; m < chunk_len; ++m) {
    if (!true_pi[m]) continue;
    const int owner = result.owners.front()[m];
    if (owner < 0 || owner >= static_cast<int>(true_beeped.size())) {
      return false;
    }
    if (!true_beeped[owner][m]) return false;
    for (const auto& view : result.owners) {
      if (view[m] != owner) return false;
    }
  }
  return true;
}

}  // namespace noisybeeps
