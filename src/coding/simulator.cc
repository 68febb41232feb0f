#include "coding/simulator.h"

#include <algorithm>
#include <numeric>

#include "util/require.h"

namespace noisybeeps {

namespace {

// Deterministic tie-break for the plurality transcript: true when a is
// lexicographically less than b (shorter prefix wins on a tie).  Bit i
// lives at bit i % 64 of word i / 64, so the first differing bit of a
// word pair is the lowest set bit of their XOR.
bool BitsLess(const BitString& a, const BitString& b) {
  const std::size_t common = std::min(a.size(), b.size());
  const std::size_t words = (common + BitString::kWordBits - 1) /
                            BitString::kWordBits;
  for (std::size_t wi = 0; wi < words; ++wi) {
    std::uint64_t diff = a.Word(wi) ^ b.Word(wi);
    if (wi + 1 == words) diff &= BitString::TailMask(common);
    if (diff != 0) return (a.Word(wi) & (diff & -diff)) == 0;
  }
  return a.size() < b.size();
}

}  // namespace

std::string SimulationStatusName(SimulationStatus status) {
  switch (status) {
    case SimulationStatus::kOk:
      return "ok";
    case SimulationStatus::kDegraded:
      return "degraded";
    case SimulationStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

SimulationVerdict ComputeVerdict(const std::vector<BitString>& transcripts,
                                 int full_length, bool budget_exhausted) {
  NB_REQUIRE(!transcripts.empty(), "need at least one transcript");
  const int n = static_cast<int>(transcripts.size());

  SimulationVerdict verdict;
  verdict.budget_exhausted = budget_exhausted;
  verdict.agreement.assign(n, 0);
  // Sorting the parties by transcript puts each group of equal
  // transcripts in one run: its length is every member's agreement, and
  // the first longest run holds the least transcript among the largest
  // groups -- the plurality with ties broken toward the least.
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return BitsLess(transcripts[a], transcripts[b]);
  });
  int best = order.front();
  for (std::size_t run = 0; run < order.size();) {
    std::size_t next = run + 1;
    while (next < order.size() &&
           transcripts[order[next]] == transcripts[order[run]]) {
      ++next;
    }
    const int size = static_cast<int>(next - run);
    for (std::size_t k = run; k < next; ++k) {
      verdict.agreement[order[k]] = size;
    }
    if (size > verdict.agreement[best]) best = order[run];
    run = next;
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

}  // namespace noisybeeps
