#include "coding/owner_finding.h"

#include <algorithm>
#include <array>
#include <span>
#include <utility>

#include "util/require.h"

namespace noisybeeps {
namespace {

// Party-local owner-finding state; everything here is derived from the
// party's input and the bits it received, never from other parties' state.
struct LocalState {
  int turn = 0;                    // whose turn this party believes it is
  std::vector<std::uint8_t> claimed;  // rounds this party has seen claimed
  std::vector<int> owner;          // recorded owners, -1 = none
};

// The smallest round this party can still claim, or the Next token.
std::uint64_t NextMessage(int party, const LocalState& state,
                          const BitString& pi_view, const BitString& beeped,
                          const BeepCode& code) {
  if (state.turn == party) {
    for (std::size_t j = 0; j < beeped.size(); ++j) {
      if (beeped[j] && pi_view[j] && state.claimed[j] == 0) {
        return j;
      }
    }
  }
  return code.next_token();
}

}  // namespace

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

  std::vector<LocalState> state(n);
  for (auto& s : state) {
    s.claimed.assign(chunk_len, 0);
    s.owner.assign(chunk_len, -1);
  }

  engine.SetPhase("owner-finding");
  const CodebookCode& book = code.codebook();
  const std::size_t word_len = code.codeword_length();
  const std::size_t stride = book.words_per_codeword();
  const std::size_t party_words = WordsForParties(n);
  const int iterations = static_cast<int>(chunk_len) + n;
  std::vector<std::uint8_t> beeps(n, 0);
  // Party i's received word, packed: received[i * stride, (i+1) * stride).
  std::vector<std::uint64_t> received(static_cast<std::size_t>(n) * stride);
  // Up to 64 rounds of received bits, round-major: row r holds the r-th
  // round of the current codeword word, packed by party.  Each 64-party
  // column of it is one 64x64 tile, transposed into the parties' words.
  std::vector<std::uint64_t> rounds(kWordBits * party_words);
  std::array<std::uint64_t, kWordBits> tile{};
  // The parties transmitting this iteration, with their packed codewords.
  std::vector<std::pair<int, std::span<const std::uint64_t>>> speakers;

  for (int l = 0; l < iterations; ++l) {
    // Transmission: each party that believes it holds the turn beeps its
    // codeword; everyone else is silent.  (Under correlated noise the turn
    // beliefs agree and exactly one party speaks; under independent noise
    // diverged beliefs can collide -- the OR then garbles the word, which
    // downstream verification treats as any other decoding error.)
    speakers.clear();
    for (int i = 0; i < n; ++i) {
      if (state[i].turn == i) {
        speakers.emplace_back(
            i, book.Codeword(
                   NextMessage(i, state[i], pi_view[i], beeped[i], code)));
      }
    }
    for (std::size_t wi = 0; wi < stride; ++wi) {
      const std::size_t rows =
          std::min<std::size_t>(kWordBits, word_len - wi * kWordBits);
      for (std::size_t r = 0; r < rows; ++r) {
        for (const auto& [i, word] : speakers) {
          beeps[i] = static_cast<std::uint8_t>((word[wi] >> r) & 1u);
        }
        PackBits(engine.Round(beeps),
                 std::span(rounds).subspan(r * party_words, party_words));
      }
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
    // Decoding + state update, per party, from that party's received bits.
    // The previous decode is only a starting guess for the exact decoder
    // (see CodebookCode::Decode): it saves the scan when both received
    // words lie near the same codeword and never changes the decoded
    // value.  A word equal to the previously decoded one reuses its decode
    // outright -- decoding is a pure function of the word -- so no party's
    // state depends on another's, and a shared view costs one decode.
    std::uint64_t sigma = code.next_token();
    const std::uint64_t* decoded_word = nullptr;
    for (int i = 0; i < n; ++i) {
      // Once this party's turn counter has run past the last party (only
      // possible after decoding errors), every remaining iteration carries
      // no usable information for it: ignore locally rather than record
      // claims by a non-existent party.
      if (state[i].turn >= n) continue;
      const std::span<const std::uint64_t> word(&received[i * stride], stride);
      if (decoded_word == nullptr ||
          !std::equal(word.begin(), word.end(), decoded_word)) {
        sigma = book.Decode(word, sigma);
        decoded_word = word.data();
      }
      if (sigma == code.next_token()) {
        ++state[i].turn;
      } else {
        const auto j = static_cast<std::size_t>(sigma);
        state[i].claimed[j] = 1;
        state[i].owner[j] = state[i].turn;
      }
    }
  }

  OwnerFindingResult result;
  result.owners.reserve(n);
  for (int i = 0; i < n; ++i) result.owners.push_back(std::move(state[i].owner));
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
