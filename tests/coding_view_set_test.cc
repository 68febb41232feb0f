// Shared-view execution: the ViewSet partition, the word-wise first
// violations against the ChooseBeep replay they replace, the sorted
// ComputeVerdict against the quadratic loop it replaces, and the view
// counters a SimulationResult reports.
#include "coding/view_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "channel/correlated.h"
#include "channel/independent.h"
#include "coding/hierarchical_sim.h"
#include "coding/rewind_sim.h"
#include "coding/sim_common.h"
#include "coding/verification.h"
#include "tasks/bit_exchange.h"
#include "tasks/input_set.h"
#include "tasks/random_protocol.h"
#include "util/rng.h"

namespace noisybeeps {
namespace {

using internal::AllFirstViolations;
using internal::ViewSet;

BitString RandomBits(std::size_t len, Rng& rng) {
  BitString out;
  for (std::size_t m = 0; m < len; ++m) out.PushBack(rng.Bit());
  return out;
}

TEST(ViewSet, StartsWithOneViewOfEveryParty) {
  const ViewSet views(5);
  EXPECT_EQ(views.num_views(), 1);
  EXPECT_EQ(views.peak_views(), 1);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(views.view_of(i), 0);
}

TEST(ViewSet, GroupPutsEqualTranscriptsInOneView) {
  const BitString a = BitString::FromString("0110");
  const BitString b = BitString::FromString("0111");
  const std::vector<BitString> transcripts{b, a, b, a,
                                           BitString::FromString("0110")};
  const ViewSet views = ViewSet::Group(transcripts);
  ASSERT_EQ(views.num_views(), 2);
  EXPECT_EQ(views.view_of(0), 0);
  EXPECT_EQ(views.view_of(1), 1);
  EXPECT_EQ(views.view_of(2), 0);
  EXPECT_EQ(views.view_of(3), 1);
  EXPECT_EQ(views.view_of(4), 1);
  EXPECT_EQ(views.view(1).owners, std::vector<int>(4, -1));
  EXPECT_EQ(views.beeps(3), BitString(4));
}

TEST(ViewSet, RefineSplitsByKeyAndCopiesTheParent) {
  ViewSet views(6);
  views.view(0).transcript = BitString::FromString("101");
  views.view(0).owners = {2, -1, 4};
  // Keys 7 7 3 7 3 9: party 0's key keeps view 0; 3 and 9 get copies in
  // order of their lowest member.
  const std::vector<int> key{7, 7, 3, 7, 3, 9};
  EXPECT_TRUE(views.Refine([&](int i) { return key[i]; }));
  ASSERT_EQ(views.num_views(), 3);
  EXPECT_EQ(views.peak_views(), 3);
  const std::vector<int> expected{0, 0, 1, 0, 1, 2};
  for (int i = 0; i < 6; ++i) EXPECT_EQ(views.view_of(i), expected[i]) << i;
  EXPECT_EQ(views.FirstMembers(), (std::vector<int>{0, 2, 5}));
  for (int v = 0; v < 3; ++v) {
    EXPECT_EQ(views.parent(v), 0);
    EXPECT_EQ(views.view(v).transcript.ToString(), "101");
    EXPECT_EQ(views.view(v).owners, (std::vector<int>{2, -1, 4}));
  }
  // Keys equal within every view: nothing splits.
  EXPECT_FALSE(views.Refine([&](int i) { return views.view_of(i); }));
  EXPECT_EQ(views.num_views(), 3);
}

TEST(ViewSet, RewindRestoresThePartitionOfTheMark) {
  ViewSet views(6);
  views.view(0).transcript = BitString::FromString("11");
  views.view(0).owners = {1, 3};
  for (int i = 0; i < 6; ++i) views.beeps(i) = BitString::FromString("01");
  // A committed split ({0,1,2} | {3,4,5}), then a chunk that splits both
  // views twice (copies of copies) before it is rejected.
  ASSERT_TRUE(views.Refine([](int i) { return i / 3; }));
  const int mark = views.num_views();
  for (int v = 0; v < views.num_views(); ++v) {
    views.view(v).transcript.PushBack(v == 0);
    views.view(v).owners.push_back(-1);
  }
  for (int i = 0; i < 6; ++i) views.beeps(i).PushBack(true);
  ASSERT_TRUE(views.Refine([](int i) { return i % 3 == 0; }));
  ASSERT_TRUE(views.Refine([](int i) { return i == 2 || i == 5; }));
  EXPECT_EQ(views.num_views(), 6);
  EXPECT_EQ(views.parent(4), 2);
  EXPECT_EQ(views.parent(2), 0);
  views.Rewind(mark, 2);
  ASSERT_EQ(views.num_views(), 2);
  EXPECT_EQ(views.peak_views(), 6);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(views.view_of(i), i / 3) << i;
    EXPECT_EQ(views.beeps(i).ToString(), "01");
  }
  for (int v = 0; v < 2; ++v) {
    EXPECT_EQ(views.view(v).transcript.ToString(), "11");
    EXPECT_EQ(views.view(v).owners, (std::vector<int>{1, 3}));
  }
}

TEST(ViewSet, TruncateAndMergeJoinsViewsThatBecameEqual) {
  ViewSet views(5);
  views.view(0).transcript = BitString::FromString("10");
  views.view(0).owners = {0, -1};
  for (int i = 0; i < 5; ++i) views.beeps(i) = BitString::FromString("10");
  ASSERT_TRUE(views.Refine([](int i) { return i % 3; }));  // 0,3 | 1,4 | 2
  // Views 0 and 2 append the same bit, view 1 another; view 2 then also
  // differs in its owners of the shared prefix.
  const std::vector<int> bit{1, 0, 1};
  for (int v = 0; v < 3; ++v) {
    views.view(v).transcript.PushBack(bit[v] != 0);
    views.view(v).owners.push_back(v);
  }
  for (int i = 0; i < 5; ++i) views.beeps(i).PushBack(false);
  views.view(2).owners[1] = 4;
  views.TruncateAndMerge(2);
  ASSERT_EQ(views.num_views(), 2);
  const std::vector<int> expected{0, 0, 1, 0, 0};
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(views.view_of(i), expected[i]) << i;
    EXPECT_EQ(views.beeps(i).size(), 2u);
  }
  EXPECT_EQ(views.view(1).owners, (std::vector<int>{0, 4}));
  for (int v = 0; v < 2; ++v) EXPECT_EQ(views.parent(v), v);
}

TEST(ViewSet, SameBitsComparesOnlyTheRange) {
  Rng rng(4);
  const BitString a = RandomBits(200, rng);
  for (const std::size_t flip : {0u, 63u, 64u, 65u, 127u, 128u, 199u}) {
    BitString b = a;
    b.Set(flip, !b[flip]);
    for (const std::size_t begin : {0u, 1u, 63u, 64u, 65u, 130u}) {
      for (const std::size_t end : {begin, begin + 1, std::size_t{128},
                                    std::size_t{129}, std::size_t{200}}) {
        if (end < begin || end > 200) continue;
        EXPECT_EQ(internal::SameBits(a, b, begin, end),
                  !(begin <= flip && flip < end))
            << flip << " " << begin << " " << end;
      }
    }
  }
}

// --- AllFirstViolations against the ChooseBeep replay -------------------

struct OracleCase {
  std::string name;
  std::unique_ptr<Protocol> protocol;
};

std::vector<OracleCase> OracleProtocols() {
  std::vector<OracleCase> cases;
  Rng rng(2024);
  cases.push_back(
      {"input_set", MakeInputSetProtocol(SampleInputSet(100, rng))});
  cases.push_back({"bit_exchange",
                   MakeBitExchangeProtocol(SampleBitExchange(10, 20, rng))});
  cases.push_back({"random_adaptive",
                   MakeRandomProtocol(SampleRandomProtocol(
                       9, 200, 0.3, /*adaptive=*/true, rng))});
  return cases;
}

// A view set over `len` rounds with random views, owners and the pure
// beeps each party would have recorded along its view.  Transcripts are
// the reference with a few flips, so violations land anywhere.
ViewSet RandomViews(const Protocol& protocol, std::size_t len, Rng& rng) {
  const int n = protocol.num_parties();
  const BitString reference = ReferenceTranscript(protocol).Prefix(len);
  const int num_views = 1 + static_cast<int>(rng.UniformInt(3));
  std::vector<BitString> distinct;
  for (int v = 0; v < num_views; ++v) {
    BitString pi = reference;
    const auto flips = rng.UniformInt(4);
    for (std::uint64_t f = 0; f < flips && len > 0; ++f) {
      const auto m = static_cast<std::size_t>(rng.UniformInt(len));
      pi.Set(m, !pi[m]);
    }
    distinct.push_back(pi);
  }
  std::vector<BitString> per_party;
  for (int i = 0; i < n; ++i) {
    per_party.push_back(distinct[rng.UniformInt(distinct.size())]);
  }
  ViewSet views = ViewSet::Group(per_party);
  for (int i = 0; i < n; ++i) {
    const BitString& pi = views.party_view(i).transcript;
    BitString& beeps = views.beeps(i);
    for (std::size_t m = 0; m < len; ++m) {
      beeps.Set(m, protocol.party(i).ChooseBeep(pi.Prefix(m)));
    }
  }
  for (int v = 0; v < views.num_views(); ++v) {
    std::vector<int>& owners = views.view(v).owners;
    for (std::size_t m = 0; m < len; ++m) {
      const auto roll = rng.UniformInt(10);
      if (roll == 0) {
        owners[m] = -1;
      } else if (roll < 4) {
        owners[m] = static_cast<int>(rng.UniformInt(n));
      } else {
        // Someone who beeped here, when anyone did.
        std::vector<int> beepers;
        for (int i = 0; i < n; ++i) {
          if (views.beeps(i)[m]) beepers.push_back(i);
        }
        owners[m] = beepers.empty()
                        ? -1
                        : beepers[rng.UniformInt(beepers.size())];
      }
    }
  }
  return views;
}

TEST(AllFirstViolations, MatchesTheReplayOracle) {
  Rng rng(77);
  int checked = 0;
  for (const OracleCase& c : OracleProtocols()) {
    const int T = c.protocol->length();
    for (const std::size_t len :
         {0u, 1u, 2u, 63u, 64u, 65u, 127u, 128u, 129u, 191u, 192u, 193u}) {
      if (len > static_cast<std::size_t>(T)) continue;
      for (int rep = 0; rep < 3; ++rep) {
        const ViewSet views = RandomViews(*c.protocol, len, rng);
        std::vector<std::size_t> froms{0, len / 2, len};
        if (len > 0) froms.push_back(rng.UniformInt(len));
        if (len > 64) froms.push_back(64);
        for (const NoiseRegime regime :
             {NoiseRegime::kTwoSided, NoiseRegime::kDownOnly}) {
          for (const std::size_t from : froms) {
            const std::vector<std::size_t> fast =
                AllFirstViolations(views, from, regime);
            for (int i = 0; i < views.num_parties(); ++i) {
              const ViewSet::View& view = views.party_view(i);
              EXPECT_EQ(fast[i],
                        FirstViolation(*c.protocol, i, view.transcript,
                                       view.owners, regime, from))
                  << c.name << " len " << len << " from " << from
                  << " party " << i
                  << (regime == NoiseRegime::kTwoSided ? " two" : " down");
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 10000);
}

// --- ComputeVerdict against the quadratic loop --------------------------

bool BitsLessReference(const BitString& a, const BitString& b) {
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (a[i] != b[i]) return !a[i];
  }
  return a.size() < b.size();
}

// The O(n^2) agreement count and plurality pick the sorted version
// replaced.
SimulationVerdict QuadraticVerdict(const std::vector<BitString>& transcripts,
                                   int full_length, bool budget_exhausted) {
  const int n = static_cast<int>(transcripts.size());
  SimulationVerdict verdict;
  verdict.budget_exhausted = budget_exhausted;
  verdict.agreement.assign(n, 0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (transcripts[i] == transcripts[j]) ++verdict.agreement[i];
    }
  }
  int best = 0;
  for (int i = 0; i < n; ++i) {
    const bool bigger = verdict.agreement[i] > verdict.agreement[best];
    const bool tie_less = verdict.agreement[i] == verdict.agreement[best] &&
                          BitsLessReference(transcripts[i], transcripts[best]);
    if (bigger || tie_less) best = i;
  }
  verdict.majority_size = verdict.agreement[best];
  verdict.majority_transcript = transcripts[best];
  if (!budget_exhausted && verdict.majority_size == n &&
      static_cast<int>(verdict.majority_transcript.size()) == full_length) {
    verdict.status = SimulationStatus::kOk;
  } else if (2 * verdict.majority_size > n) {
    verdict.status = SimulationStatus::kDegraded;
  } else {
    verdict.status = SimulationStatus::kFailed;
  }
  return verdict;
}

void ExpectSameVerdict(const std::vector<BitString>& transcripts,
                       int full_length, bool exhausted,
                       const std::string& label) {
  const SimulationVerdict want =
      QuadraticVerdict(transcripts, full_length, exhausted);
  const SimulationVerdict got =
      ComputeVerdict(transcripts, full_length, exhausted);
  EXPECT_EQ(got.agreement, want.agreement) << label;
  EXPECT_EQ(got.majority_size, want.majority_size) << label;
  EXPECT_EQ(got.majority_transcript, want.majority_transcript) << label;
  EXPECT_EQ(got.status, want.status) << label;
  EXPECT_EQ(got.budget_exhausted, want.budget_exhausted) << label;
}

TEST(ComputeVerdict, MatchesTheQuadraticLoop) {
  Rng rng(11);
  for (const std::size_t len : {0u, 1u, 63u, 64u, 65u, 130u}) {
    const BitString base = RandomBits(len, rng);
    const int T = static_cast<int>(len);
    // All equal.
    ExpectSameVerdict(std::vector<BitString>(7, base), T, false, "equal");
    ExpectSameVerdict(std::vector<BitString>(7, base), T, true, "exhausted");
    if (len == 0) continue;
    // All distinct: every agreement 1, the least transcript wins.
    std::vector<BitString> distinct;
    for (std::size_t m = 0; m < std::min<std::size_t>(len, 9); ++m) {
      BitString t = base;
      t.Set(len - 1 - m, !t[len - 1 - m]);
      distinct.push_back(t);
    }
    ExpectSameVerdict(distinct, T, false, "distinct");
    // Ties: two groups of three, in both orders, plus a loner.
    BitString other = base;
    other.Set(0, !other[0]);
    ExpectSameVerdict({base, other, base, other, other, base, distinct[0]}, T,
                      false, "tie");
    ExpectSameVerdict({other, base, other, base, base, other}, T, false,
                      "tie reversed");
    // Short (budget-exhausted) transcripts: prefixes tie-break as less.
    const BitString shorter = base.Prefix(len / 2);
    ExpectSameVerdict({base, shorter, shorter, base}, T, true, "short tie");
    ExpectSameVerdict({shorter, shorter, shorter, base}, T, true, "short");
  }
  // Random mixtures of a few transcripts of mixed lengths.
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<BitString> pool;
    for (int k = 0; k < 4; ++k) {
      pool.push_back(RandomBits(rng.UniformInt(3) * 40 + 60, rng));
    }
    pool.push_back(pool[0].Prefix(pool[0].size() - 1));
    std::vector<BitString> transcripts;
    const auto n = 1 + rng.UniformInt(20);
    for (std::uint64_t i = 0; i < n; ++i) {
      transcripts.push_back(pool[rng.UniformInt(pool.size())]);
    }
    ExpectSameVerdict(transcripts, static_cast<int>(pool[0].size()),
                      rng.Bit(), "random " + std::to_string(trial));
  }
}

// --- view counters ---------------------------------------------------------

TEST(ViewObservability, CorrelatedRunsKeepOneViewAndAgree) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    const auto protocol = MakeInputSetProtocol(SampleInputSet(32, rng));
    const CorrelatedNoisyChannel channel(0.05);
    const SimulationResult rewind =
        RewindSimulator().Simulate(*protocol, channel, rng);
    EXPECT_EQ(rewind.peak_views, 1) << seed;
    EXPECT_EQ(rewind.verdict_disagreements, 0) << seed;
    const SimulationResult hier =
        HierarchicalSimulator().Simulate(*protocol, channel, rng);
    EXPECT_EQ(hier.peak_views, 1) << seed;
    EXPECT_EQ(hier.verdict_disagreements, 0) << seed;
  }
}

TEST(ViewObservability, IndependentNoiseSplitsViewsAndVerdicts) {
  const IndependentNoisyChannel channel(0.2);
  {
    Rng rng(5);
    const auto protocol = MakeInputSetProtocol(SampleInputSet(8, rng));
    const SimulationResult result =
        RewindSimulator().Simulate(*protocol, channel, rng);
    EXPECT_GT(result.peak_views, 1);
    EXPECT_GT(result.verdict_disagreements, 0);
  }
  {
    Rng rng(5);
    const auto protocol = MakeInputSetProtocol(SampleInputSet(8, rng));
    const SimulationResult result =
        HierarchicalSimulator().Simulate(*protocol, channel, rng);
    EXPECT_GT(result.peak_views, 1);
    EXPECT_GT(result.verdict_disagreements, 0);
  }
}

}  // namespace
}  // namespace noisybeeps
