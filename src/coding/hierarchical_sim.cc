#include "coding/hierarchical_sim.h"

#include <map>

#include "coding/sim_common.h"
#include "fault/injection.h"
#include "util/math.h"
#include "util/require.h"

namespace noisybeeps {

using internal::DivergenceTracker;
using internal::ViewSet;

HierarchicalSimulator::HierarchicalSimulator(HierarchicalSimOptions options)
    : options_(options) {
  NB_REQUIRE(options_.audit_flag_base >= 0 && options_.audit_flag_slope >= 0,
             "negative audit parameter");
  NB_REQUIRE(options_.max_level >= 1, "need at least one audit level");
}

namespace {

// Runs one binary-search audit over the full committed transcript and
// truncates every view to the verified prefix.  Returns party 0's verified
// prefix length (the scheme's working view of progress).
std::size_t Audit(ViewSet& views, RoundEngine& engine, NoiseRegime regime,
                  FlagRule rule, int flag_reps, DivergenceTracker& tracker,
                  std::int64_t& disagreements) {
  const std::size_t len = views.view(0).transcript.size();
  if (len == 0) return 0;
  const std::vector<std::size_t> first_violation =
      internal::AllFirstViolations(views, 0, regime);
  engine.SetPhase("audit");
  const std::vector<std::size_t> verified = BinarySearchVerifiedPrefix(
      engine, first_violation, len, flag_reps, rule, &disagreements);
  tracker.Observe(verified, "audit", engine.rounds_used());
  // All views truncate to the SAME length (party 0's verified prefix):
  // the orchestration keeps every view's length equal, and under a
  // correlated channel the verified lengths coincide anyway.  A view whose
  // members' own verdict differed simply carries its divergent content
  // forward, as it would in a desynchronized real execution.  Views the
  // truncation makes equal merge again.
  views.TruncateAndMerge(verified[0]);
  return verified[0];
}

}  // namespace

SimulationResult HierarchicalSimulator::Simulate(const Protocol& protocol,
                                                 const Channel& channel,
                                                 const FaultPlan& faults,
                                                 Rng& rng) const {
  const int n = protocol.num_parties();
  const int T = protocol.length();
  const RewindSimulator flat(options_.base);  // reuse parameter resolution
  const int rep_factor = flat.EffectiveRepFactor(n);
  const int base_chunk = flat.EffectiveChunkLen(n);
  const int level0_flag_reps = flat.EffectiveFlagReps(n);
  const int audit_base = options_.audit_flag_base > 0
                             ? options_.audit_flag_base
                             : level0_flag_reps;
  const std::int64_t max_rounds =
      options_.base.max_rounds > 0
          ? options_.base.max_rounds
          : 400LL * (T + 64) *
                (CeilLog2(static_cast<std::uint64_t>(n < 2 ? 2 : n)) + 2);

  if (options_.base.scheduled()) {
    internal::RequireValidSchedule(protocol, options_.base.owner_schedule);
  }

  FaultyRoundEngine engine(channel, rng, n, faults);
  ViewSet views(n);
  DivergenceTracker tracker;
  std::map<int, BeepCode> codes;
  std::int64_t disagreements = 0;

  std::int64_t commits = 0;
  int start = 0;
  bool exhausted = false;
  bool final_audit_passed = false;
  while (!final_audit_passed) {
    if (engine.rounds_used() > max_rounds) {
      exhausted = true;
      break;
    }

    if (start < T) {
      const int chunk_len = std::min(base_chunk, T - start);
      if (internal::AttemptChunk(protocol, options_.base, start, chunk_len,
                                 rep_factor, level0_flag_reps, codes, views,
                                 engine, tracker, disagreements)) {
        start += chunk_len;
        ++commits;
        // Escalating audits: a level-l audit after every 2^l-th commit.
        for (int l = 1; l <= options_.max_level && commits % (1LL << l) == 0;
             ++l) {
          const int reps = audit_base + l * options_.audit_flag_slope;
          start = static_cast<int>(Audit(views, engine, options_.base.regime,
                                         options_.base.flag_rule, reps,
                                         tracker, disagreements));
        }
      }
      continue;
    }

    // start == T: the final gate.  Audit at maximal strength; pass iff the
    // whole transcript survives.
    const int final_level =
        CeilLog2(static_cast<std::uint64_t>(commits < 2 ? 2 : commits)) + 2;
    const int reps = audit_base + final_level * options_.audit_flag_slope;
    start = static_cast<int>(Audit(views, engine, options_.base.regime,
                                   options_.base.flag_rule, reps, tracker,
                                   disagreements));
    final_audit_passed = start == T;
  }
  return internal::FinishResult(protocol, views, engine, tracker, exhausted,
                                disagreements);
}

std::string HierarchicalSimulator::name() const {
  return options_.base.regime == NoiseRegime::kTwoSided
             ? "hierarchical(two-sided)"
             : "hierarchical(down-only)";
}

}  // namespace noisybeeps
