#include "tasks/random_protocol.h"

#include <algorithm>
#include <bit>
#include <span>

#include "util/require.h"

namespace noisybeeps {
namespace {

std::uint64_t Mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kDigestSeed = 0x243f6a8885a308d3ULL;
constexpr std::size_t kWordBits = BitString::kWordBits;

// One step of the rolling prefix digest: absorbs bit `bit` at position `i`.
std::uint64_t FoldBit(std::uint64_t h, std::size_t i, bool bit) {
  return Mix(h ^ (bit ? 0x9e3779b97f4a7c15ULL : 0x7f4a7c159e3779b9ULL) ^
             (i * 0xff51afd7ed558ccdULL));
}

// Rolling digest of a transcript prefix, folded from bit 0: the reference
// that PrefixDigestMemo reproduces incrementally.
std::uint64_t PrefixDigest(const BitString& prefix) {
  std::uint64_t h = kDigestSeed;
  for (std::size_t i = 0; i < prefix.size(); ++i) h = FoldBit(h, i, prefix[i]);
  return h;
}

std::uint64_t FinishDigest(std::uint64_t prefix_digest, std::size_t size) {
  return Mix(prefix_digest ^ size);
}

// Length of the longest common prefix of `a` and `b`, one word compare at
// a time.  A difference in the longer string's bits past the shorter one's
// end lands at or beyond `limit` and is clamped away.
std::size_t CommonPrefixLength(const BitString& a, const BitString& b) {
  const std::size_t limit = std::min(a.size(), b.size());
  const std::span<const std::uint64_t> wa = a.words();
  const std::span<const std::uint64_t> wb = b.words();
  for (std::size_t w = 0; w * kWordBits < limit; ++w) {
    const std::uint64_t diff = wa[w] ^ wb[w];
    if (diff != 0) {
      const auto first = static_cast<std::size_t>(std::countr_zero(diff));
      return std::min(limit, w * kWordBits + first);
    }
  }
  return limit;
}

// PrefixDigest, memoized across calls.  It keeps the last prefix it
// folded, the running digest at every word boundary of that prefix
// (checkpoints_[w] is the digest of its first 64*w bits), and the full
// digest.  A new prefix shares some common part with the last one; the
// fold resumes at the end of that part when the new prefix extends the
// last one, and otherwise at the last checkpoint at or below it.  Either
// resume point digests bits the two prefixes agree on, so every answer is
// PrefixDigest(prefix) exactly.  A one-bit extension costs one FoldBit
// plus O(|prefix|/64) word compares.
class PrefixDigestMemo {
 public:
  std::uint64_t Digest(const BitString& prefix) {
    const std::size_t common = CommonPrefixLength(last_, prefix);
    std::size_t from = common;
    if (common < last_.size()) {
      from = common - common % kWordBits;
      checkpoints_.resize(common / kWordBits + 1);
      digest_ = checkpoints_.back();
    }
    for (std::size_t i = from; i < prefix.size(); ++i) {
      digest_ = FoldBit(digest_, i, prefix[i]);
      if ((i + 1) % kWordBits == 0) checkpoints_.push_back(digest_);
    }
    // Words wholly below `common` already match; copy the rest.
    last_.Resize(prefix.size());
    for (std::size_t w = common / kWordBits; w < prefix.word_count(); ++w) {
      last_.SetWord(w, prefix.Word(w));
    }
    return digest_;
  }

 private:
  BitString last_;
  std::vector<std::uint64_t> checkpoints_{kDigestSeed};
  std::uint64_t digest_ = kDigestSeed;
};

class RandomParty final : public Party {
 public:
  RandomParty(std::uint64_t seed, int threshold, bool adaptive)
      : seed_(seed), threshold_(threshold), adaptive_(adaptive) {}

  [[nodiscard]] bool ChooseBeep(const BitString& prefix) const override {
    std::uint64_t key = seed_ ^ (prefix.size() * 0xc2b2ae3d27d4eb4fULL);
    if (adaptive_) key ^= memo_.Digest(prefix);
    return static_cast<int>(Mix(key) & 0xff) < threshold_;
  }

  [[nodiscard]] PartyOutput ComputeOutput(const BitString& pi) const override {
    return PartyOutput{FinishDigest(memo_.Digest(pi), pi.size())};
  }

 private:
  std::uint64_t seed_;
  int threshold_;  // beep iff hash byte < threshold (density * 256)
  bool adaptive_;
  // Private to this party and a function of the prefixes alone, so both
  // methods stay pure (see party.h).
  mutable PrefixDigestMemo memo_;
};

}  // namespace

RandomProtocolSpec SampleRandomProtocol(int n, int length, double density,
                                        bool adaptive, Rng& rng) {
  NB_REQUIRE(n >= 1, "need at least one party");
  NB_REQUIRE(length >= 0, "negative length");
  NB_REQUIRE(density >= 0.0 && density <= 1.0, "density out of [0,1]");
  RandomProtocolSpec spec;
  spec.length = length;
  spec.density = density;
  spec.adaptive = adaptive;
  spec.seeds.reserve(n);
  for (int i = 0; i < n; ++i) spec.seeds.push_back(rng.NextU64());
  return spec;
}

std::unique_ptr<Protocol> MakeRandomProtocol(const RandomProtocolSpec& spec) {
  NB_REQUIRE(!spec.seeds.empty(), "empty spec");
  NB_REQUIRE(spec.density >= 0.0 && spec.density <= 1.0,
             "density out of [0,1]");
  const int threshold = static_cast<int>(spec.density * 256.0);
  std::vector<std::unique_ptr<Party>> parties;
  parties.reserve(spec.seeds.size());
  for (std::uint64_t seed : spec.seeds) {
    parties.push_back(
        std::make_unique<RandomParty>(seed, threshold, spec.adaptive));
  }
  return std::make_unique<BasicProtocol>(std::move(parties), spec.length);
}

std::uint64_t TranscriptDigest(const BitString& pi) {
  return FinishDigest(PrefixDigest(pi), pi.size());
}

}  // namespace noisybeeps
