// Explicit-codebook codes with exact maximum-likelihood decoding.
//
// Algorithm 1 needs a code C : [n] ∪ {Next} -> {0,1}^{Θ(log n)} with good
// relative distance.  For such small message spaces the pragmatic optimum
// is an explicit codebook: a seeded random construction (which achieves the
// Gilbert-Varshamov bound with high probability) or a greedy
// Gilbert-Varshamov construction with a *guaranteed* minimum distance.
// Decoding is exact nearest-codeword search, which is the maximum
// likelihood rule on any binary-symmetric channel with flip probability
// below 1/2.
//
// The book is stored as one flat packed table, words_per_codeword() u64s
// per codeword in BitString's bit order, so a decode is a single
// XOR-popcount scan.  The minimum distance d_min is computed once at
// construction; it lets the candidate overload of Decode stop after one
// comparison whenever the received word lies inside the candidate's
// unique-decoding radius (see docs/PERFORMANCE.md).
#ifndef NOISYBEEPS_ECC_CODEBOOK_H_
#define NOISYBEEPS_ECC_CODEBOOK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "ecc/code.h"
#include "util/rng.h"

namespace noisybeeps {

class CodebookCode final : public BinaryCode {
 public:
  // Takes ownership of an explicit codebook.  Preconditions: at least two
  // codewords, all of equal positive length, all distinct.
  explicit CodebookCode(std::vector<BitString> codebook);

  // A codebook of `num_messages` iid uniform codewords of `length` bits.
  // Codewords are re-drawn on collision so the book is always valid.
  static CodebookCode Random(std::uint64_t num_messages, std::size_t length,
                             std::uint64_t seed);

  // Greedy Gilbert-Varshamov construction: scans seeded-random candidates
  // and keeps those at Hamming distance >= min_distance from all kept
  // words.  Throws std::runtime_error if the book cannot be filled within
  // the attempt budget (the parameters are beyond the GV bound).
  static CodebookCode GilbertVarshamov(std::uint64_t num_messages,
                                       std::size_t length,
                                       std::size_t min_distance,
                                       std::uint64_t seed);

  [[nodiscard]] std::uint64_t num_messages() const override {
    return num_messages_;
  }
  [[nodiscard]] std::size_t codeword_length() const override {
    return length_;
  }
  [[nodiscard]] BitString Encode(std::uint64_t message) const override;
  [[nodiscard]] std::uint64_t Decode(const BitString& received) const override;
  [[nodiscard]] std::string name() const override;

  // Packed u64 words per codeword: ceil(codeword_length() / 64).
  [[nodiscard]] std::size_t words_per_codeword() const {
    return words_per_codeword_;
  }

  // Exact minimum pairwise Hamming distance of the book (> 0).
  [[nodiscard]] std::size_t minimum_distance() const { return d_min_; }

  // The packed words of codeword `message` (tail bits past
  // codeword_length() are zero).  Precondition: message < num_messages().
  [[nodiscard]] std::span<const std::uint64_t> Codeword(
      std::uint64_t message) const;

  // Decodes a packed received word, trying `candidate` first: if
  // 2 * d(received, C(candidate)) < d_min, every other codeword is
  // farther away, so the candidate is returned after one comparison;
  // otherwise the full scan runs.  Either way the result equals
  // Decode() on the same word.  Preconditions: received holds
  // words_per_codeword() words (the packed form of a
  // codeword_length()-bit word), its tail bits past codeword_length()
  // are zero, and candidate < num_messages().
  [[nodiscard]] std::uint64_t Decode(std::span<const std::uint64_t> received,
                                     std::uint64_t candidate) const;

 private:
  // Hamming distance between codeword `message` and a packed word.
  [[nodiscard]] std::size_t Distance(std::uint64_t message,
                                     const std::uint64_t* received) const;
  // Nearest codeword, ties to the smaller message index.
  [[nodiscard]] std::uint64_t Scan(const std::uint64_t* received) const;

  std::uint64_t num_messages_;
  std::size_t length_;
  std::size_t words_per_codeword_;
  // Codeword m occupies table_[m * words_per_codeword_, ...).
  std::vector<std::uint64_t> table_;
  std::size_t d_min_ = 0;
};

}  // namespace noisybeeps

#endif  // NOISYBEEPS_ECC_CODEBOOK_H_
