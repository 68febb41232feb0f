#include "coding/verification.h"

#include <algorithm>

#include "util/require.h"

namespace noisybeeps {

std::size_t FirstViolation(const Protocol& protocol, int party_index,
                           const BitString& transcript,
                           const std::vector<int>& owners,
                           NoiseRegime regime, std::size_t from) {
  NB_REQUIRE(party_index >= 0 && party_index < protocol.num_parties(),
             "party index out of range");
  if (regime == NoiseRegime::kTwoSided) {
    NB_REQUIRE(owners.size() == transcript.size(),
               "two-sided verification needs an owner per round");
  }
  const Party& party = protocol.party(party_index);
  // Rounds before `from` are not checked: start from a word-wise copy of
  // their bits instead of re-appending them one by one.
  BitString prefix = transcript.Prefix(std::min(from, transcript.size()));
  prefix.Reserve(transcript.size());
  for (std::size_t m = prefix.size(); m < transcript.size(); ++m) {
    const bool beeped = party.ChooseBeep(prefix);
    if (!transcript[m]) {
      // A 0 claims nobody beeped; this party knows better if it beeped 1.
      if (beeped) return m;
    } else if (regime == NoiseRegime::kTwoSided) {
      const int owner = owners[m];
      if (owner < 0) return m;  // unowned 1: anyone may flag
      if (owner == party_index && !beeped) return m;  // my 1, but I didn't
    }
    // In kDownOnly a received 1 is self-certifying: nothing to check.
    prefix.PushBack(transcript[m]);
  }
  return transcript.size();
}

std::vector<std::uint8_t> CommunicateFlags(RoundEngine& engine,
                                           const std::vector<std::uint8_t>& flags,
                                           int reps, FlagRule rule) {
  const auto n = static_cast<int>(engine.num_parties());
  NB_REQUIRE(static_cast<int>(flags.size()) == n, "one flag per party");
  NB_REQUIRE(reps >= 1, "flag repetitions must be positive");
  std::vector<std::size_t> ones(n, 0);
  TallyRounds(engine, flags, reps, ones);
  std::vector<std::uint8_t> verdict(n, 0);
  for (int i = 0; i < n; ++i) {
    const bool raised = rule == FlagRule::kMajority
                            ? 2 * ones[i] >= static_cast<std::size_t>(reps)
                            : ones[i] > 0;
    verdict[i] = raised ? 1 : 0;
  }
  return verdict;
}

std::vector<std::size_t> BinarySearchVerifiedPrefix(
    RoundEngine& engine, const std::vector<std::size_t>& first_violation,
    std::size_t total_len, int reps, FlagRule rule,
    std::int64_t* disagreements) {
  const auto n = static_cast<int>(engine.num_parties());
  NB_REQUIRE(static_cast<int>(first_violation.size()) == n,
             "one local violation index per party");

  // Each party maintains its own [lo, hi] bracket on the verified prefix
  // length; under a correlated channel all brackets evolve identically.
  struct Bracket {
    std::size_t lo;
    std::size_t hi;
  };
  std::vector<Bracket> bracket(n, Bracket{0, total_len});

  // Fixed iteration count so every party runs the same number of flag
  // exchanges regardless of how its own bracket narrows.
  int iterations = 0;
  for (std::size_t range = total_len; range > 0; range /= 2) ++iterations;

  std::vector<std::uint8_t> flags(n, 0);
  for (int it = 0; it < iterations; ++it) {
    for (int i = 0; i < n; ++i) {
      if (bracket[i].hi <= bracket[i].lo) {
        flags[i] = 0;  // bracket converged; stay silent in the exchange
        continue;
      }
      const std::size_t probe =
          bracket[i].lo + (bracket[i].hi - bracket[i].lo + 1) / 2;
      // Probe p asks: "is the prefix of length p clear?"  Party i flags
      // iff its first violation falls inside that prefix.
      flags[i] = first_violation[i] < probe ? 1 : 0;
    }
    const std::vector<std::uint8_t> verdict =
        CommunicateFlags(engine, flags, reps, rule);
    if (disagreements != nullptr &&
        std::any_of(verdict.begin(), verdict.end(),
                    [&](std::uint8_t v) { return v != verdict[0]; })) {
      ++*disagreements;
    }
    for (int i = 0; i < n; ++i) {
      if (bracket[i].hi <= bracket[i].lo) continue;
      const std::size_t probe =
          bracket[i].lo + (bracket[i].hi - bracket[i].lo + 1) / 2;
      if (verdict[i]) {
        bracket[i].hi = probe - 1;  // some party objects within `probe`
      } else {
        bracket[i].lo = probe;  // prefix of length `probe` looks clear
      }
    }
  }

  std::vector<std::size_t> result(n);
  for (int i = 0; i < n; ++i) result[i] = bracket[i].lo;
  return result;
}

}  // namespace noisybeeps
