#include "coding/chunk_sim.h"

#include "coding/sim_common.h"
#include "util/require.h"

namespace noisybeeps {
namespace internal {

void SimulateChunkViews(const Protocol& protocol, ViewSet& views, int start,
                        int chunk_len, int rep_factor, const BeepCode* code,
                        RoundEngine& engine) {
  const int n = protocol.num_parties();
  NB_REQUIRE(views.num_parties() == n, "need one view slot per party");
  NB_REQUIRE(start >= 0 && chunk_len >= 1 &&
                 start + chunk_len <= protocol.length(),
             "chunk out of protocol range");
  NB_REQUIRE(rep_factor >= 1, "repetition factor must be positive");
  const auto begin = static_cast<std::size_t>(start);
  const auto end = begin + static_cast<std::size_t>(chunk_len);
  for (int v = 0; v < views.num_views(); ++v) {
    NB_REQUIRE(views.view(v).transcript.size() == begin &&
                   views.view(v).owners.size() == begin,
               "committed prefixes must cover exactly the rounds before the "
               "chunk");
    views.view(v).transcript.Reserve(end);
  }
  for (int i = 0; i < n; ++i) {
    NB_REQUIRE(views.beeps(i).size() == begin,
               "beeps must cover exactly the rounds before the chunk");
    views.beeps(i).Reserve(end);
  }
  if (code != nullptr) {
    NB_REQUIRE(code->chunk_len() == chunk_len,
               "owner code sized for a different chunk length");
  }

  // Phase 1: simulation by repetition.  Each view's transcript grows by
  // the bits its members decode; a party's pure f_m^i reads its view.
  engine.SetPhase("chunk-sim");
  std::vector<std::uint8_t> beeps(n, 0);
  std::vector<std::size_t> ones(n, 0);
  std::vector<std::uint8_t> bits(n, 0);
  for (int m = 0; m < chunk_len; ++m) {
    for (int i = 0; i < n; ++i) {
      const bool b =
          protocol.party(i).ChooseBeep(views.party_view(i).transcript);
      beeps[i] = b ? 1 : 0;
      views.beeps(i).PushBack(b);
    }
    TallyRounds(engine, beeps, rep_factor, ones);
    bool same = true;
    for (int i = 0; i < n; ++i) {
      bits[i] = 2 * ones[i] >= static_cast<std::size_t>(rep_factor) ? 1 : 0;
      same = same && bits[i] == bits[0];
    }
    if (same) {
      for (int v = 0; v < views.num_views(); ++v) {
        views.view(v).transcript.PushBack(bits[0] != 0);
      }
      continue;
    }
    // Members that decoded different bits part ways; each view then
    // appends the bit its members decoded.
    views.Refine([&](int i) { return bits[i]; });
    const std::vector<int> first = views.FirstMembers();
    for (int v = 0; v < views.num_views(); ++v) {
      views.view(v).transcript.PushBack(bits[first[v]] != 0);
    }
  }
  for (int v = 0; v < views.num_views(); ++v) {
    views.view(v).owners.resize(end, -1);
  }

  // Phase 2: finding owners.
  if (code != nullptr) FindOwnersViews(engine, *code, views, begin);
}

}  // namespace internal

ChunkAttempt SimulateChunk(const Protocol& protocol,
                           const std::vector<BitString>& committed, int start,
                           int chunk_len, int rep_factor, const BeepCode* code,
                           RoundEngine& engine) {
  NB_REQUIRE(static_cast<int>(committed.size()) == protocol.num_parties(),
             "need one committed prefix per party");
  internal::ViewSet views = internal::ViewSet::Group(committed);
  internal::SimulateChunkViews(protocol, views, start, chunk_len, rep_factor,
                               code, engine);
  const auto begin = static_cast<std::size_t>(start);
  const auto end = begin + static_cast<std::size_t>(chunk_len);
  ChunkAttempt attempt;
  for (int i = 0; i < views.num_parties(); ++i) {
    const internal::ViewSet::View& view = views.party_view(i);
    attempt.candidate.push_back(view.transcript.Substring(begin, end));
    attempt.beeped.push_back(views.beeps(i).Substring(begin, end));
    if (code != nullptr) {
      attempt.owners.emplace_back(view.owners.begin() + start,
                                  view.owners.end());
    }
  }
  return attempt;
}

}  // namespace noisybeeps
