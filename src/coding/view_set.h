// ViewSet: the parties of a rewind-scheme execution grouped by what they
// have decoded.
//
// A VIEW is one decoded history: a reconstruction of the noiseless
// transcript (the committed rounds, then the rounds of the open chunk)
// plus an owner record for every round of it.  Parties whose histories
// are identical share one view, so the work that depends only on the
// history -- appending decoded bits, decoding owner-finding codewords,
// checking unowned 1s -- is done once per view instead of once per
// party.  What is truly a party's own stays per party: its input (its
// Party object), and the bits it beeped in every transcript round, which
// the verification rules compare against its view.
//
// The partition only ever gets finer inside a chunk: Refine moves the
// parties of a view whose members decoded different values into copies
// of it.  A rewind restores the partition of the chunk's start (Rewind),
// and a truncation that makes two views equal again merges them
// (TruncateAndMerge).  Every view always has at least one member.
//
// Under a correlated channel with no faults every party decodes the same
// bits, so a run keeps exactly one view -- the paper's model (A.1.1).
// Under independent noise views split wherever the parties' decodes
// differ; results are bit-identical to keeping one history per party,
// because a party's decisions read nothing but its own view and beeps.
#ifndef NOISYBEEPS_CODING_VIEW_SET_H_
#define NOISYBEEPS_CODING_VIEW_SET_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/bitstring.h"

namespace noisybeeps::internal {

class ViewSet {
 public:
  struct View {
    BitString transcript;     // decoded rounds: committed, then open chunk
    std::vector<int> owners;  // owner record per transcript round, -1 = none
  };

  // `num_parties` parties (>= 1) sharing one view with an empty history.
  explicit ViewSet(int num_parties);

  // Parties grouped by equal transcripts, each group one view (numbered
  // in order of its lowest member) with no owner records (-1) and
  // all-zero beeps of the transcript's length.  For the per-party entry
  // points (SimulateChunk, FindOwners); the schemes grow their views.
  static ViewSet Group(std::span<const BitString> transcripts);

  [[nodiscard]] int num_parties() const {
    return static_cast<int>(view_of_.size());
  }
  [[nodiscard]] int num_views() const {
    return static_cast<int>(views_.size());
  }
  // The most views alive at once since construction.
  [[nodiscard]] int peak_views() const { return peak_views_; }

  [[nodiscard]] int view_of(int party) const { return view_of_[party]; }
  [[nodiscard]] View& view(int v) { return views_[v]; }
  [[nodiscard]] const View& view(int v) const { return views_[v]; }
  [[nodiscard]] const View& party_view(int party) const {
    return views_[view_of_[party]];
  }
  // The view that view v was copied from by Refine (v itself for a view
  // not created by a Refine since the last TruncateAndMerge).
  [[nodiscard]] int parent(int v) const { return parent_[v]; }

  // Party i's own beeps, one per transcript round of its view.
  [[nodiscard]] BitString& beeps(int party) { return beeps_[party]; }
  [[nodiscard]] const BitString& beeps(int party) const {
    return beeps_[party];
  }

  // Splits every view whose members' keys differ: the members sharing
  // the key of the view's lowest member keep the view, every other key's
  // members move to a new copy of it, appended in order of that key's
  // lowest member.  key_of(party) must be equality-comparable.  Returns
  // true iff some view split.
  template <typename KeyOf>
  bool Refine(KeyOf&& key_of);

  // The lowest-numbered member of each view, indexed by view.
  [[nodiscard]] std::vector<int> FirstMembers() const;

  // Restores the partition to what it was when the set had
  // `num_views_at_mark` views (every view created since is folded back
  // into its parent) and truncates every view and every party's beeps to
  // `length` rounds.  The rewind of a rejected chunk.
  void Rewind(int num_views_at_mark, std::size_t length);

  // Truncates every view and every party's beeps to `length` rounds, then
  // merges views that became equal; the kept view is the lowest-numbered
  // of its group and views keep their relative order.
  void TruncateAndMerge(std::size_t length);

  // Per-party copies of each party's view (the SimulationResult layout).
  [[nodiscard]] std::vector<BitString> Transcripts() const;
  [[nodiscard]] std::vector<std::vector<int>> Owners() const;

 private:
  int AddCopy(int v);

  std::vector<View> views_;
  std::vector<int> parent_;    // per view
  std::vector<int> view_of_;   // per party
  std::vector<BitString> beeps_;  // per party
  int peak_views_ = 1;
};

template <typename KeyOf>
bool ViewSet::Refine(KeyOf&& key_of) {
  using Key = std::decay_t<decltype(key_of(0))>;
  const int before = num_views();
  std::vector<Key> first_key(static_cast<std::size_t>(before));
  std::vector<char> seen(static_cast<std::size_t>(before), 0);
  struct Moved {
    int from;
    Key key;
    int to;
  };
  std::vector<Moved> moved;
  for (int i = 0; i < num_parties(); ++i) {
    const int v = view_of_[i];
    Key key = key_of(i);
    if (seen[v] == 0) {
      seen[v] = 1;
      first_key[v] = std::move(key);
      continue;
    }
    if (key == first_key[v]) continue;
    auto it = std::find_if(moved.begin(), moved.end(), [&](const Moved& m) {
      return m.from == v && m.key == key;
    });
    if (it == moved.end()) {
      moved.push_back(Moved{v, std::move(key), AddCopy(v)});
      it = moved.end() - 1;
    }
    view_of_[i] = it->to;
  }
  return !moved.empty();
}

// True iff a and b hold the same bits in [begin, end).  Preconditions:
// begin <= end <= both sizes.
[[nodiscard]] bool SameBits(const BitString& a, const BitString& b,
                            std::size_t begin, std::size_t end);

}  // namespace noisybeeps::internal

#endif  // NOISYBEEPS_CODING_VIEW_SET_H_
