// Golden regression pins: exact seeded outputs of the stochastic
// components.  EXPERIMENTS.md promises bit-reproducible numbers; these
// tests fail loudly if anyone changes an RNG, a sampling routine, or a
// protocol definition in a way that would silently invalidate every
// documented measurement.  If a change here is INTENTIONAL, update the
// pinned values and re-run the benchmarks to refresh EXPERIMENTS.md.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "channel/correlated.h"
#include "channel/independent.h"
#include "channel/trace.h"
#include "coding/hierarchical_sim.h"
#include "coding/repetition_sim.h"
#include "coding/rewind_sim.h"
#include "fault/fault_plan.h"
#include "protocol/executor.h"
#include "tasks/bit_exchange.h"
#include "tasks/input_set.h"
#include "tasks/random_protocol.h"
#include "util/rng.h"

namespace noisybeeps {
namespace {

TEST(Golden, RngStreamIsPinned) {
  Rng rng(42);
  EXPECT_EQ(rng.NextU64(), 0x15780b2e0c2ec716ULL);
  EXPECT_EQ(rng.NextU64(), 0x6104d9866d113a7eULL);
  EXPECT_EQ(rng.NextU64(), 0xae17533239e499a1ULL);
}

TEST(Golden, InputSetSampleIsPinned) {
  Rng rng(7);
  const InputSetInstance instance = SampleInputSet(8, rng);
  EXPECT_EQ(instance.inputs,
            (std::vector<int>{11, 4, 13, 15, 15, 13, 0, 1}));
}

TEST(Golden, ReferenceTranscriptIsPinned) {
  Rng rng(7);
  const InputSetInstance instance = SampleInputSet(8, rng);
  const auto protocol = MakeInputSetProtocol(instance);
  EXPECT_EQ(ReferenceTranscript(*protocol).ToString(), "1100100000010101");
}

TEST(Golden, NoisyExecutionIsPinned) {
  Rng rng(7);
  const InputSetInstance instance = SampleInputSet(8, rng);
  const auto protocol = MakeInputSetProtocol(instance);
  const CorrelatedNoisyChannel channel(0.2);
  const ExecutionResult result = Execute(*protocol, channel, rng);
  EXPECT_EQ(result.shared().ToString(), "1000100000101101");
}

TEST(Golden, RewindSimulationCostIsPinned) {
  Rng rng(7);
  const InputSetInstance instance = SampleInputSet(8, rng);
  const auto protocol = MakeInputSetProtocol(instance);
  const CorrelatedNoisyChannel channel(0.05);
  const RewindSimulator sim;
  const SimulationResult result = sim.Simulate(*protocol, channel, rng);
  EXPECT_TRUE(result.AllMatch(ReferenceTranscript(*protocol)));
  EXPECT_EQ(result.noisy_rounds_used, 1160);
}

// FNV-1a/64 over 64-bit values, byte by byte; callers mix lengths in so
// boundaries cannot alias.
class Fnv64 {
 public:
  void Mix(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void MixTranscripts(const std::vector<BitString>& transcripts) {
    for (const BitString& t : transcripts) {
      Mix(t.size());
      for (const std::uint64_t w : t.words()) Mix(w);
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Every party's transcript bits and owner records, in party order.
std::uint64_t DigestViews(const SimulationResult& result) {
  Fnv64 fnv;
  fnv.MixTranscripts(result.transcripts);
  for (const std::vector<int>& owners : result.owners) {
    fnv.Mix(owners.size());
    for (const int o : owners) fnv.Mix(static_cast<std::uint64_t>(o));
  }
  return fnv.value();
}

// Every party's transcript bits and output words, in party order.
std::uint64_t DigestTranscriptsAndOutputs(const SimulationResult& result) {
  Fnv64 fnv;
  fnv.MixTranscripts(result.transcripts);
  for (const PartyOutput& out : result.outputs) {
    fnv.Mix(out.size());
    for (const std::uint64_t w : out) fnv.Mix(w);
  }
  return fnv.value();
}

// Independent noise: every party receives its own word, so views diverge
// and owner records can differ per party.  Pins the exact per-party
// owners and transcripts, not just the round cost.
TEST(Golden, HierarchicalIndependentViewsArePinned) {
  Rng rng(18);
  const BitExchangeInstance instance = SampleBitExchange(64, 8, rng);
  const auto protocol = MakeBitExchangeProtocol(instance);
  const IndependentNoisyChannel channel(0.1);
  const HierarchicalSimulator sim;
  const SimulationResult result = sim.Simulate(*protocol, channel, rng);
  ASSERT_EQ(result.owners.size(), 64u);
  int owner_views_unlike_party0 = 0;
  for (const std::vector<int>& owners : result.owners) {
    owner_views_unlike_party0 += owners != result.owners.front();
  }
  EXPECT_EQ(owner_views_unlike_party0, 63);
  EXPECT_EQ(result.noisy_rounds_used, 91720);
  EXPECT_EQ(result.verdict.status, SimulationStatus::kDegraded);
  EXPECT_EQ(result.verdict.majority_size, 63);
  EXPECT_EQ(result.verdict.first_divergent_phase, "owner-finding");
  EXPECT_EQ(result.verdict.first_divergence_round, 14752);
  EXPECT_EQ(DigestViews(result), 0xdb22e3332c939f01ULL);
}

// Transcript-adaptive random parties (the service's `random` task shape:
// T = 4n, density 0.1) under per-party noise.  Every beep hashes the
// party's own received prefix, so this pins the prefix digest, the
// repetition scheme and the independent channel's per-party streams.
TEST(Golden, RandomAdaptiveRepetitionIsPinned) {
  Rng rng(32);
  const RandomProtocolSpec spec =
      SampleRandomProtocol(32, 4 * 32, 0.1, /*adaptive=*/true, rng);
  const auto protocol = MakeRandomProtocol(spec);
  const IndependentNoisyChannel channel(0.05);
  const RepetitionSimulator sim;
  const SimulationResult result = sim.Simulate(*protocol, channel, rng);
  const BitString reference = ReferenceTranscript(*protocol);
  EXPECT_TRUE(result.AllMatch(reference));
  EXPECT_EQ(result.noisy_rounds_used, 2688);
  EXPECT_EQ(TranscriptDigest(reference), 0xecf787e3d474b3caULL);
  EXPECT_EQ(DigestTranscriptsAndOutputs(result), 0x73a39bf786ce2065ULL);
}

// An odd party count (n = 100: one full and one partial 64-party lane)
// with faults on both sides of the round boundary.  Pins the scheme's
// packed per-round paths where a word is only partly filled: the beeper
// count, the owner-finding codeword blocks and the repetition tallies.
TEST(Golden, RewindIndependentOddPartiesWithFaultsIsPinned) {
  Rng rng(100);
  const InputSetInstance instance = SampleInputSet(100, rng);
  const auto protocol = MakeInputSetProtocol(instance);
  const IndependentNoisyChannel channel(0.05);
  FaultPlan faults(/*seed=*/5);
  faults.DeafReceiver(37, 200, 5000).Babbler(70, 1000, 3000, 0.3);
  const RewindSimulator sim;
  const SimulationResult result = sim.Simulate(*protocol, channel, faults, rng);
  EXPECT_EQ(result.noisy_rounds_used, 35508);
  EXPECT_EQ(result.phase_rounds,
            (std::map<std::string, std::int64_t>{{"chunk-sim", 6600},
                                                 {"owner-finding", 28800},
                                                 {"verify-flags", 108}}));
  EXPECT_EQ(result.verdict.status, SimulationStatus::kOk);
  EXPECT_EQ(DigestViews(result), 0x56b2ca55124bd2cdULL);
}

// A correlated channel with one deaf party: every other party receives
// the same bits, the deaf one receives 0s, so one channel carries two
// views.  The deaf party's view splits off in the first chunk and is
// carried through commits and rewinds to the end (majority 39 of 40).
TEST(Golden, RewindCorrelatedDeafPartySplitsViewsIsPinned) {
  Rng rng(2);
  const InputSetInstance instance = SampleInputSet(40, rng);
  const auto protocol = MakeInputSetProtocol(instance);
  const CorrelatedNoisyChannel channel(0.05);
  FaultPlan faults(/*seed=*/3);
  faults.DeafReceiver(11, 100, 100000);
  const RewindSimulator sim;
  const SimulationResult result = sim.Simulate(*protocol, channel, faults, rng);
  EXPECT_EQ(result.noisy_rounds_used, 107952);
  EXPECT_EQ(result.phase_rounds,
            (std::map<std::string, std::int64_t>{{"chunk-sim", 19760},
                                                 {"owner-finding", 87360},
                                                 {"verify-flags", 832}}));
  EXPECT_EQ(result.verdict.status, SimulationStatus::kDegraded);
  EXPECT_EQ(result.verdict.majority_size, 39);
  EXPECT_EQ(result.verdict.first_divergent_phase, "chunk-sim");
  EXPECT_EQ(result.verdict.first_divergence_round, 4120);
  EXPECT_EQ(DigestViews(result), 0xd5f416b514c2e77eULL);
}

// Hierarchical scheme on the independent channel at eps = 0.15 with
// n = 65 (one full and one one-party 64-party lane): views split in the
// chunk and owner phases, rewinds restore them, and one party ends on its
// own transcript.
TEST(Golden, HierarchicalIndependentTwoLanesIsPinned) {
  Rng rng(3);
  const BitExchangeInstance instance = SampleBitExchange(65, 4, rng);
  const auto protocol = MakeBitExchangeProtocol(instance);
  const IndependentNoisyChannel channel(0.15);
  HierarchicalSimOptions options;
  options.base.code_length_factor = 9;
  const HierarchicalSimulator sim(options);
  const SimulationResult result = sim.Simulate(*protocol, channel, rng);
  EXPECT_EQ(result.noisy_rounds_used, 44848);
  EXPECT_EQ(result.phase_rounds,
            (std::map<std::string, std::int64_t>{{"audit", 1544},
                                                 {"chunk-sim", 5720},
                                                 {"owner-finding", 37440},
                                                 {"verify-flags", 144}}));
  EXPECT_EQ(result.verdict.status, SimulationStatus::kDegraded);
  EXPECT_EQ(result.verdict.majority_size, 64);
  EXPECT_EQ(result.verdict.first_divergent_phase, "chunk-sim");
  EXPECT_EQ(result.verdict.first_divergence_round, 32762);
  EXPECT_EQ(DigestViews(result), 0x236cb9c1dfb40bd0ULL);
}

// As above with a shorter beep code (factor 8): every party ends up in a
// view of its own, and an audit's truncation to 130 rounds makes views
// equal again, so they merge; all transcripts agree at the end while 64
// parties' owner records still differ from party 0's.
TEST(Golden, HierarchicalIndependentAuditMergesViewsIsPinned) {
  Rng rng(3);
  const BitExchangeInstance instance = SampleBitExchange(65, 4, rng);
  const auto protocol = MakeBitExchangeProtocol(instance);
  const IndependentNoisyChannel channel(0.15);
  HierarchicalSimOptions options;
  options.base.code_length_factor = 8;
  const HierarchicalSimulator sim(options);
  const SimulationResult result = sim.Simulate(*protocol, channel, rng);
  EXPECT_EQ(result.noisy_rounds_used, 79832);
  EXPECT_EQ(result.phase_rounds,
            (std::map<std::string, std::int64_t>{{"audit", 1544},
                                                 {"chunk-sim", 11440},
                                                 {"owner-finding", 66560},
                                                 {"verify-flags", 288}}));
  EXPECT_EQ(result.verdict.status, SimulationStatus::kOk);
  EXPECT_EQ(result.verdict.first_divergent_phase, "chunk-sim");
  EXPECT_EQ(result.verdict.first_divergence_round, 19536);
  int owner_views_unlike_party0 = 0;
  for (const std::vector<int>& owners : result.owners) {
    owner_views_unlike_party0 += owners != result.owners.front();
  }
  EXPECT_EQ(owner_views_unlike_party0, 64);
  EXPECT_EQ(DigestViews(result), 0x4030b7ea95cd83bfULL);
}

TEST(Golden, TraceCsvRoundTrips) {
  Rng rng(9);
  const InputSetInstance instance = SampleInputSet(4, rng);
  const auto protocol = MakeInputSetProtocol(instance);
  const CorrelatedNoisyChannel inner(0.3);
  const RecordingChannel recorder(inner);
  (void)Execute(*protocol, recorder, rng);

  std::stringstream buffer;
  WriteTraceCsv(recorder.trace(), buffer);
  const Trace parsed = ReadTraceCsv(buffer);
  ASSERT_EQ(parsed.size(), recorder.trace().size());
  for (std::size_t r = 0; r < parsed.size(); ++r) {
    EXPECT_EQ(parsed[r].or_bit, recorder.trace()[r].or_bit);
    EXPECT_EQ(parsed[r].delivered, recorder.trace()[r].delivered);
  }
}

TEST(Golden, TraceCsvRejectsMalformedInput) {
  std::istringstream missing_header("0,1,11\n");
  EXPECT_THROW((void)ReadTraceCsv(missing_header), std::invalid_argument);
  std::istringstream bad_bit("round,or_bit,delivered\n0,1,1x\n");
  EXPECT_THROW((void)ReadTraceCsv(bad_bit), std::invalid_argument);
  std::istringstream out_of_order("round,or_bit,delivered\n1,1,11\n");
  EXPECT_THROW((void)ReadTraceCsv(out_of_order), std::invalid_argument);
}

}  // namespace
}  // namespace noisybeeps
