// RoundEngine: the round budget meter the interactive-coding schemes draw
// noisy rounds from.
//
// A simulator (coding/) is itself a protocol over the noisy channel, but
// writing it as explicit f_m^i functions would be hopeless; instead the
// simulator code orchestrates the parties imperatively and calls
// RoundEngine::Round once per noisy round.  The engine applies the
// channel, counts the rounds consumed (the quantity Theorems 1.1/1.2 are
// about), and hands back what each party received.  The "distributed
// discipline" -- party i's beep decision may depend only on party i's
// local state plus previously received bits -- is kept by code structure
// and is what the simulator modules document and the tests probe.
//
// Two round representations coexist: Round (byte per party, the
// historical path) and RoundWords (64 parties packed per u64, the
// mega-n path; see docs/PERFORMANCE.md).  Party counts are std::int64_t:
// the word path simulates millions of parties per round, beyond `int`.
#ifndef NOISYBEEPS_PROTOCOL_ROUND_ENGINE_H_
#define NOISYBEEPS_PROTOCOL_ROUND_ENGINE_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "channel/channel.h"

namespace noisybeeps {

class RoundEngine {
 public:
  // The engine borrows the channel and rng; both must outlive it.
  RoundEngine(const Channel& channel, Rng& rng, std::int64_t num_parties);
  virtual ~RoundEngine() = default;

  // Not copyable/movable: the engine caches an interior pointer into its
  // phase-accounting map (and hands out spans into received_), so a copy
  // would alias the wrong instance's state.
  RoundEngine(const RoundEngine&) = delete;
  RoundEngine& operator=(const RoundEngine&) = delete;

  [[nodiscard]] std::int64_t num_parties() const { return num_parties_; }

  // Runs one noisy round.  beeps[i] != 0 iff party i beeps.  Returns the
  // per-party received bits (valid until the next call).  Virtual so that
  // fault/injection.h can wrap the round boundary (send-side faults before
  // the channel sees the beeper count, receive-side faults after Deliver)
  // without the simulators or the Channel implementations noticing.
  // Precondition: beeps.size() == num_parties().
  virtual std::span<const std::uint8_t> Round(
      std::span<const std::uint8_t> beeps);

  // Word-parallel round: bit i of beep_words[w] is 1 iff party w*64+i
  // beeps; the result is packed the same way (valid until the next call,
  // tail bits of the last word zero).  Shares the round/phase accounting
  // with Round, so a simulation may mix representations freely.  Virtual
  // for the same fault-wrapping reason as Round.
  // Preconditions: beep_words.size() == WordsForParties(num_parties()),
  // and the unused tail bits of the last beep word are zero.
  virtual std::span<const std::uint64_t> RoundWords(
      std::span<const std::uint64_t> beep_words);

  // Correlated-channel convenience: the single shared received bit.
  // Preconditions: as Round, plus channel.is_correlated().
  bool RoundShared(std::span<const std::uint8_t> beeps);

  // Stream discipline for RoundWords (and the word path of Execute):
  // kStreamCompat (the default) consumes the rng draw-for-draw like the
  // scalar Round; kFast batches noise sampling (its own stream).
  void SetWordMode(WordMode mode) { word_mode_ = mode; }
  [[nodiscard]] WordMode word_mode() const { return word_mode_; }

  // Total noisy rounds consumed so far.
  [[nodiscard]] std::int64_t rounds_used() const { return rounds_used_; }

  // Labels subsequent rounds for cost accounting (e.g. "chunk-sim",
  // "owner-finding", "verify-flags", "audit").  Purely observational: the
  // label has no effect on channel behaviour.
  void SetPhase(std::string phase) {
    phase_ = std::move(phase);
    // Invalidate the cached counter; the next Round() re-resolves it (and
    // only then creates the map entry, so zero-round phases never appear
    // in phase_rounds()).  std::map nodes are stable, so the resolved
    // pointer survives later insertions.
    phase_counter_ = nullptr;
  }

  // The current phase label ("" before any SetPhase call).
  [[nodiscard]] const std::string& phase() const { return phase_; }

  // Rounds consumed per phase label (rounds before any SetPhase call are
  // accounted under "").
  [[nodiscard]] const std::map<std::string, std::int64_t>& phase_rounds()
      const {
    return phase_rounds_;
  }

  [[nodiscard]] const Channel& channel() const { return *channel_; }
  [[nodiscard]] Rng& rng() { return *rng_; }

 protected:
  // Round/phase bookkeeping shared by both round representations (and by
  // fault-wrapping subclasses that re-implement the round body).
  void AccountRound() {
    ++rounds_used_;
    // Resolve the phase counter at most once per SetPhase, not per round:
    // a phase gets a map entry only once a round actually runs under it
    // (so phase_rounds() never reports zero-round phases), and every
    // later round is a plain pointer increment instead of a string-keyed
    // lookup.
    if (phase_counter_ == nullptr) phase_counter_ = &phase_rounds_[phase_];
    ++*phase_counter_;
  }

 private:
  const Channel* channel_;
  Rng* rng_;
  std::int64_t num_parties_;
  WordMode word_mode_ = WordMode::kStreamCompat;
  std::int64_t rounds_used_ = 0;
  std::vector<std::uint8_t> received_;
  std::vector<std::uint64_t> received_words_;
  std::string phase_;
  std::map<std::string, std::int64_t> phase_rounds_;
  // Points at phase_rounds_[phase_] once the first round of the current
  // phase has run; nullptr until then (see SetPhase / Round).
  std::int64_t* phase_counter_ = nullptr;
};

// Runs `reps` noisy rounds in which every party sends beeps[i], and sets
// ones[i] to the number of those rounds in which party i received a 1 (a
// nonzero byte):
// the repetition tally the schemes decode by majority or OR.  Rounds go
// through engine.Round one at a time, so the channel stream and the phase
// accounting are exactly those of a plain `reps`-round loop; the tally
// runs 8 parties per u64 add.
// Preconditions: beeps.size() == ones.size() == engine.num_parties(),
// reps >= 0.
void TallyRounds(RoundEngine& engine, std::span<const std::uint8_t> beeps,
                 int reps, std::span<std::size_t> ones);

}  // namespace noisybeeps

#endif  // NOISYBEEPS_PROTOCOL_ROUND_ENGINE_H_
