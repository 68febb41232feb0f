#include "ecc/codebook.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "util/require.h"

namespace noisybeeps {
namespace {

BitString RandomWord(std::size_t length, Rng& rng) {
  BitString word;
  for (std::size_t i = 0; i < length; ++i) word.PushBack(rng.Bit());
  return word;
}

bool Contains(const std::vector<BitString>& book, const BitString& word) {
  for (const BitString& w : book) {
    if (w == word) return true;
  }
  return false;
}

}  // namespace

CodebookCode::CodebookCode(std::vector<BitString> codebook)
    : num_messages_(codebook.size()),
      length_(codebook.empty() ? 0 : codebook.front().size()),
      words_per_codeword_((length_ + BitString::kWordBits - 1) /
                          BitString::kWordBits) {
  NB_REQUIRE(num_messages_ >= 2, "codebook needs at least two words");
  NB_REQUIRE(length_ > 0, "codewords must be non-empty");
  table_.reserve(num_messages_ * words_per_codeword_);
  for (const BitString& word : codebook) {
    NB_REQUIRE(word.size() == length_, "codeword lengths differ");
    table_.insert(table_.end(), word.words().begin(), word.words().end());
  }
  d_min_ = std::numeric_limits<std::size_t>::max();
  for (std::uint64_t a = 0; a < num_messages_; ++a) {
    const std::uint64_t* wa = &table_[a * words_per_codeword_];
    for (std::uint64_t b = a + 1; b < num_messages_; ++b) {
      d_min_ = std::min(d_min_, Distance(b, wa));
    }
  }
  NB_REQUIRE(d_min_ > 0, "duplicate codewords");
}

CodebookCode CodebookCode::Random(std::uint64_t num_messages,
                                  std::size_t length, std::uint64_t seed) {
  NB_REQUIRE(num_messages >= 2, "need at least two messages");
  NB_REQUIRE(length >= 64 || num_messages <= (std::uint64_t{1} << length),
             "message space larger than word space");
  Rng rng(seed);
  std::vector<BitString> book;
  book.reserve(num_messages);
  while (book.size() < num_messages) {
    BitString candidate = RandomWord(length, rng);
    if (!Contains(book, candidate)) book.push_back(std::move(candidate));
  }
  return CodebookCode(std::move(book));
}

CodebookCode CodebookCode::GilbertVarshamov(std::uint64_t num_messages,
                                            std::size_t length,
                                            std::size_t min_distance,
                                            std::uint64_t seed) {
  NB_REQUIRE(num_messages >= 2, "need at least two messages");
  NB_REQUIRE(min_distance >= 1 && min_distance <= length,
             "minimum distance out of range");
  Rng rng(seed);
  std::vector<BitString> book;
  book.reserve(num_messages);
  // Generous attempt budget: random candidates succeed with constant
  // probability while below the GV bound.
  const std::uint64_t max_attempts = 4096 * num_messages + 65536;
  std::uint64_t attempts = 0;
  while (book.size() < num_messages) {
    if (++attempts > max_attempts) {
      throw std::runtime_error(
          "GilbertVarshamov: could not build codebook; parameters exceed the "
          "GV bound for this length/distance");
    }
    BitString candidate = RandomWord(length, rng);
    bool ok = true;
    for (const BitString& w : book) {
      if (w.HammingDistance(candidate) < min_distance) {
        ok = false;
        break;
      }
    }
    if (ok) book.push_back(std::move(candidate));
  }
  return CodebookCode(std::move(book));
}

std::span<const std::uint64_t> CodebookCode::Codeword(
    std::uint64_t message) const {
  NB_REQUIRE(message < num_messages_, "message out of range");
  return {&table_[message * words_per_codeword_], words_per_codeword_};
}

BitString CodebookCode::Encode(std::uint64_t message) const {
  const std::span<const std::uint64_t> packed = Codeword(message);
  BitString word(length_);
  for (std::size_t wi = 0; wi < packed.size(); ++wi) {
    word.SetWord(wi, packed[wi]);
  }
  return word;
}

std::size_t CodebookCode::Distance(std::uint64_t message,
                                   const std::uint64_t* received) const {
  const std::uint64_t* word = &table_[message * words_per_codeword_];
  std::size_t d = 0;
  for (std::size_t wi = 0; wi < words_per_codeword_; ++wi) {
    d += static_cast<std::size_t>(std::popcount(word[wi] ^ received[wi]));
  }
  return d;
}

std::uint64_t CodebookCode::Scan(const std::uint64_t* received) const {
  std::uint64_t best_message = 0;
  std::size_t best_distance = std::numeric_limits<std::size_t>::max();
  for (std::uint64_t m = 0; m < num_messages_; ++m) {
    const std::size_t d = Distance(m, received);
    if (d < best_distance) {
      best_distance = d;
      best_message = m;
    }
  }
  return best_message;
}

std::uint64_t CodebookCode::Decode(const BitString& received) const {
  NB_REQUIRE(received.size() == length_, "received word has wrong length");
  return Scan(received.words().data());
}

std::uint64_t CodebookCode::Decode(std::span<const std::uint64_t> received,
                                   std::uint64_t candidate) const {
  NB_REQUIRE(received.size() == words_per_codeword_,
             "received word has wrong word count");
  NB_REQUIRE((received.back() & ~BitString::TailMask(length_)) == 0,
             "received word has nonzero tail bits");
  NB_REQUIRE(candidate < num_messages_, "candidate out of range");
  // Unique-decoding radius: with d = d(r, C(candidate)) and 2d < d_min,
  // every other codeword c' has d(r, c') >= d_min - d > d, so the
  // candidate is the strict nearest codeword -- the scan's answer.
  if (2 * Distance(candidate, received.data()) < d_min_) return candidate;
  return Scan(received.data());
}

std::string CodebookCode::name() const {
  return "Codebook(q=" + std::to_string(num_messages_) +
         ",L=" + std::to_string(length_) + ")";
}

}  // namespace noisybeeps
