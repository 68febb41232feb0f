#include "coding/sim_common.h"

#include <algorithm>
#include <bit>

#include "util/require.h"

namespace noisybeeps::internal {
namespace {

// For scheduled (broadcast-like) protocols: fills every view's owner
// records for chunk rounds [start, start + chunk_len) straight from the
// pre-assigned schedule, in place of Algorithm 1's owner-finding phase.
void InjectScheduleOwners(ViewSet& views, const std::vector<int>& schedule,
                          int start, int chunk_len) {
  NB_REQUIRE(start >= 0 && chunk_len >= 0 &&
                 static_cast<std::size_t>(start + chunk_len) <=
                     schedule.size(),
             "chunk extends past the owner schedule");
  for (int v = 0; v < views.num_views(); ++v) {
    std::vector<int>& owners = views.view(v).owners;
    NB_REQUIRE(owners.size() == static_cast<std::size_t>(start + chunk_len),
               "owner records must end with the chunk");
    std::copy(schedule.begin() + start, schedule.begin() + start + chunk_len,
              owners.begin() + start);
  }
}

}  // namespace

void RequireValidSchedule(const Protocol& protocol,
                          const std::vector<int>& schedule) {
  NB_REQUIRE(static_cast<int>(schedule.size()) == protocol.length(),
             "owner schedule must cover every protocol round");
  const int n = protocol.num_parties();
  BitString pi;
  for (int m = 0; m < protocol.length(); ++m) {
    NB_REQUIRE(schedule[m] >= 0 && schedule[m] < n,
               "schedule owner out of range");
    for (int i = 0; i < n; ++i) {
      const bool beeps = protocol.party(i).ChooseBeep(pi);
      NB_REQUIRE(!beeps || i == schedule[m],
                 "party beeps in a round it does not own: the protocol is "
                 "not scheduled");
    }
    pi.PushBack(protocol.party(schedule[m]).ChooseBeep(pi));
  }
}

std::vector<std::size_t> AllFirstViolations(const ViewSet& views,
                                            std::size_t from,
                                            NoiseRegime regime) {
  const int n = views.num_parties();
  std::vector<std::size_t> result(n);
  for (int i = 0; i < n; ++i) {
    result[i] = views.party_view(i).transcript.size();
  }
  // Per view, in one pass over its owner records: the first unowned 1
  // (every member's violation) and, for each member that owns a 1 it did
  // not beep, the first such round.  Rounds past the first unowned 1
  // cannot matter to any member.
  std::vector<std::size_t> view_limit(views.num_views());
  for (int v = 0; v < views.num_views(); ++v) {
    const ViewSet::View& view = views.view(v);
    const std::size_t len = view.transcript.size();
    view_limit[v] = len;
    if (regime != NoiseRegime::kTwoSided) continue;
    NB_REQUIRE(view.owners.size() == len,
               "two-sided verification needs an owner per round");
    for (std::size_t m = from; m < len; ++m) {
      if (!view.transcript[m]) continue;
      const int owner = view.owners[m];
      if (owner < 0) {
        view_limit[v] = m;
        break;
      }
      if (owner < n && views.view_of(owner) == v &&
          !views.beeps(owner)[m] && m < result[owner]) {
        result[owner] = m;
      }
    }
  }
  // Per party, word by word: the first 0 it beeped before its limit.
  for (int i = 0; i < n; ++i) {
    const BitString& pi = views.party_view(i).transcript;
    const BitString& beeped = views.beeps(i);
    NB_REQUIRE(beeped.size() == pi.size(), "one beep per transcript round");
    const std::size_t limit =
        std::min(result[i], view_limit[views.view_of(i)]);
    result[i] = limit;
    if (from >= limit) continue;
    const std::size_t last = (limit - 1) / BitString::kWordBits;
    for (std::size_t wi = from / BitString::kWordBits; wi <= last; ++wi) {
      std::uint64_t bad = ~pi.Word(wi) & beeped.Word(wi);
      if (wi == from / BitString::kWordBits) {
        bad &= ~std::uint64_t{0} << (from % BitString::kWordBits);
      }
      if (wi == last) bad &= BitString::TailMask(limit);
      if (bad != 0) {
        result[i] = wi * BitString::kWordBits +
                    static_cast<std::size_t>(std::countr_zero(bad));
        break;
      }
    }
  }
  return result;
}

bool AttemptChunk(const Protocol& protocol, const RewindSimOptions& options,
                  int start, int chunk_len, int rep_factor, int flag_reps,
                  std::map<int, BeepCode>& codes, ViewSet& views,
                  RoundEngine& engine, DivergenceTracker& tracker,
                  std::int64_t& disagreements) {
  // Beep codes are deterministic functions of (chunk length, seed): part
  // of the protocol description, shared by all parties.  With a
  // pre-assigned owner schedule there is nothing to find; the
  // owner-finding phase (and its beep code) is skipped entirely.
  const BeepCode* code = nullptr;
  if (options.regime == NoiseRegime::kTwoSided && !options.scheduled()) {
    auto it = codes.find(chunk_len);
    if (it == codes.end()) {
      it = codes
               .emplace(chunk_len,
                        BeepCode(chunk_len, options.code_length_factor,
                                 options.code_seed + chunk_len))
               .first;
    }
    code = &it->second;
  }

  const int mark = views.num_views();
  SimulateChunkViews(protocol, views, start, chunk_len, rep_factor, code,
                     engine);
  if (options.scheduled()) {
    InjectScheduleOwners(views, options.owner_schedule, start, chunk_len);
  }
  const auto begin = static_cast<std::size_t>(start);
  const auto end = begin + static_cast<std::size_t>(chunk_len);
  tracker.ObserveViews(
      views,
      [&](const ViewSet::View& a, const ViewSet::View& b) {
        return SameBits(a.transcript, b.transcript, begin, end);
      },
      "chunk-sim", engine.rounds_used());
  if (code != nullptr) {
    tracker.ObserveViews(
        views,
        [&](const ViewSet::View& a, const ViewSet::View& b) {
          return std::equal(a.owners.begin() + start, a.owners.end(),
                            b.owners.begin() + start);
        },
        "owner-finding", engine.rounds_used());
  }

  // Verification: each party checks the candidate extension against its
  // own beeps (and its owned 1s), then the flags are OR'd noisily.
  const std::vector<std::size_t> first_violation =
      AllFirstViolations(views, begin, options.regime);
  std::vector<std::uint8_t> flags(first_violation.size(), 0);
  for (std::size_t i = 0; i < flags.size(); ++i) {
    flags[i] = first_violation[i] < end ? 1 : 0;
  }
  engine.SetPhase("verify-flags");
  const std::vector<std::uint8_t> verdict =
      CommunicateFlags(engine, flags, flag_reps, options.flag_rule);
  tracker.Observe(verdict, "verify-flags", engine.rounds_used());
  if (std::any_of(verdict.begin(), verdict.end(),
                  [&](std::uint8_t v) { return v != verdict[0]; })) {
    ++disagreements;
  }

  // Commit/rewind follows party 0's verdict (see the header comment).
  if (verdict[0] == 0) return true;
  views.Rewind(mark, begin);
  return false;
}

SimulationResult FinishResult(const Protocol& protocol, const ViewSet& views,
                              const RoundEngine& engine,
                              const DivergenceTracker& tracker,
                              bool exhausted, std::int64_t disagreements) {
  const int T = protocol.length();
  SimulationResult result;
  result.transcripts = views.Transcripts();
  result.owners = views.Owners();
  result.outputs.reserve(result.transcripts.size());
  for (int i = 0; i < views.num_parties(); ++i) {
    BitString pi = result.transcripts[i];
    pi.Resize(static_cast<std::size_t>(T));
    result.outputs.push_back(protocol.party(i).ComputeOutput(pi));
  }
  result.noisy_rounds_used = engine.rounds_used();
  result.phase_rounds = engine.phase_rounds();
  result.verdict = ComputeVerdict(result.transcripts, T, exhausted);
  tracker.Export(result.verdict);
  result.peak_views = views.peak_views();
  result.verdict_disagreements = disagreements;
  return result;
}

}  // namespace noisybeeps::internal
