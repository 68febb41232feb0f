// Internal helpers shared by the rewind-if-error simulators.
//
// The progress of a chunked simulation is a ViewSet (coding/view_set.h):
// each distinct view holds one committed reconstruction of the noiseless
// transcript plus its owner records, and each party holds its own beeps.
// Under a correlated channel there is one view (every decision below is a
// deterministic function of shared received bits); under the independent
// channel views split where the parties' decodes differ, which surfaces
// as a simulation failure in the caller's success metric.
//
// Control-flow synchronization: every view takes its commit/rewind and
// audit-truncation decisions from party 0's decoded verdict, so all views
// keep the same length.  Under correlated noise this is exactly the
// paper's scheme (one view, so one verdict).  Under independent noise it
// stands in for the event "the parties stayed synchronized"; a view whose
// members' own verdict differed carries its divergent transcript from then
// on, which is precisely how desynchronization manifests in the real
// protocol.  SimulationResult::verdict_disagreements counts the flag
// exchanges in which that stand-in overrode some party's own verdict.
#ifndef NOISYBEEPS_CODING_SIM_COMMON_H_
#define NOISYBEEPS_CODING_SIM_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "coding/chunk_sim.h"
#include "coding/rewind_sim.h"
#include "coding/simulator.h"
#include "coding/verification.h"
#include "coding/view_set.h"
#include "protocol/protocol.h"

namespace noisybeeps::internal {

// Records the first engine phase in which per-party state stopped being
// identical -- the SimulationVerdict's "which phase first diverged"
// answer.  Simulators call Observe at each synchronization point (decoded
// chunk bits, owner records, flag verdicts, audit results); once a
// divergence is recorded all further calls are no-ops, so the steady-state
// cost is one branch.
class DivergenceTracker {
 public:
  // Observes one per-party vector of values that SHOULD agree across
  // parties.  `phase` labels the phase that produced them; `round` is the
  // engine's rounds_used() at the observation.
  template <typename T>
  void Observe(const std::vector<T>& per_party, const char* phase,
               std::int64_t round) {
    if (diverged_) return;
    for (std::size_t i = 1; i < per_party.size(); ++i) {
      if (!(per_party[i] == per_party[0])) {
        diverged_ = true;
        first_phase_ = phase;
        first_round_ = round;
        return;
      }
    }
  }

  // Observes a per-view value: the parties disagree iff some view's value
  // differs from party 0's view's under same(view, party0_view).  Every
  // view has a member, so this is Observe over the per-party values; two
  // views may still carry the same value.
  template <typename Same>
  void ObserveViews(const ViewSet& views, Same&& same, const char* phase,
                    std::int64_t round) {
    if (diverged_) return;
    const ViewSet::View& reference = views.party_view(0);
    for (int v = 0; v < views.num_views(); ++v) {
      if (!same(views.view(v), reference)) {
        diverged_ = true;
        first_phase_ = phase;
        first_round_ = round;
        return;
      }
    }
  }

  [[nodiscard]] bool diverged() const { return diverged_; }

  // Copies the divergence fields into a verdict (whose status/agreement
  // fields were already filled by ComputeVerdict).
  void Export(SimulationVerdict& verdict) const {
    verdict.first_divergent_phase = first_phase_;
    verdict.first_divergence_round = first_round_;
  }

 private:
  bool diverged_ = false;
  std::string first_phase_;
  std::int64_t first_round_ = -1;
};

// First-violation index (FirstViolation's answer) for every party, from
// its view's transcript and owners and its own recorded beeps, ignoring
// violations before round `from` (already-committed rounds a flat scheme
// cannot revisit).  Computed word by word with no ChooseBeep replay: the
// recorded beeps are exactly the replay's, since a party's beep in a
// round is a pure function of the prefix its view held then, and views
// only ever grow, truncate, split or merge with equal ones.  A round
// violates when it is a 0 the party beeped or, in kTwoSided only, an
// unowned 1 or a 1 the party owns but did not beep.
[[nodiscard]] std::vector<std::size_t> AllFirstViolations(
    const ViewSet& views, std::size_t from, NoiseRegime regime);

// SimulateChunk (coding/chunk_sim.h) on views, in place: appends the
// chunk's rounds to every view's transcript (and -1 owner records, then
// the owner phase's records when `code` is non-null) and to every party's
// beeps, splitting views whose members decode different bits.
// Preconditions: every transcript, owner record and beep string has
// length `start`; otherwise as SimulateChunk.
void SimulateChunkViews(const Protocol& protocol, ViewSet& views, int start,
                        int chunk_len, int rep_factor, const BeepCode* code,
                        RoundEngine& engine);

// FindOwners (coding/owner_finding.h) for chunk rounds
// [start, start + code.chunk_len()) of every view: each view's transcript
// over that range is the chunk as the view decoded it, and each party's
// beeps over it are what the party beeped.  Writes the owner records into
// each view's owners over the same range (which must hold -1s), splitting
// views whose members decode different codewords.  Preconditions: every
// transcript, owner record and beep string has length
// start + code.chunk_len(), and engine.num_parties() ==
// views.num_parties().
void FindOwnersViews(RoundEngine& engine, const BeepCode& code,
                     ViewSet& views, std::size_t start);

// One chunk attempt of the rewind schemes: simulates chunk rounds
// [start, start + chunk_len) on every view (owner phase with the options'
// beep code, cached in `codes` by chunk length, or the owner schedule),
// observes divergence, checks the chunk (AllFirstViolations from `start`)
// and exchanges the flags with `flag_reps` rounds.  Returns true when
// party 0's verdict commits the chunk; otherwise rewinds the views to
// `start`.  Adds to `disagreements` when some verdict differs from party
// 0's.
[[nodiscard]] bool AttemptChunk(const Protocol& protocol,
                                const RewindSimOptions& options, int start,
                                int chunk_len, int rep_factor, int flag_reps,
                                std::map<int, BeepCode>& codes,
                                ViewSet& views, RoundEngine& engine,
                                DivergenceTracker& tracker,
                                std::int64_t& disagreements);

// The rewind schemes' SimulationResult: per-party transcripts and owners
// from the views, outputs on transcripts zero-padded to full length (a
// budget-exhausted run may stop short), round accounting, and the
// verdict.
[[nodiscard]] SimulationResult FinishResult(const Protocol& protocol,
                                            const ViewSet& views,
                                            const RoundEngine& engine,
                                            const DivergenceTracker& tracker,
                                            bool exhausted,
                                            std::int64_t disagreements);

// Validates a schedule against a protocol: size == length, owners in
// range, and in every round only the scheduled owner ever beeps (checked
// by replaying the reference execution).  Throws on violation.
void RequireValidSchedule(const Protocol& protocol,
                          const std::vector<int>& schedule);

}  // namespace noisybeeps::internal

#endif  // NOISYBEEPS_CODING_SIM_COMMON_H_
