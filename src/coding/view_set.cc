#include "coding/view_set.h"

#include <algorithm>
#include <numeric>

#include "util/require.h"

namespace noisybeeps::internal {

ViewSet::ViewSet(int num_parties)
    : views_(1),
      parent_{0},
      view_of_(static_cast<std::size_t>(num_parties), 0),
      beeps_(static_cast<std::size_t>(num_parties)) {
  NB_REQUIRE(num_parties >= 1, "a view set needs at least one party");
}

ViewSet ViewSet::Group(std::span<const BitString> transcripts) {
  ViewSet set(static_cast<int>(transcripts.size()));
  set.views_.clear();
  set.parent_.clear();
  for (int i = 0; i < set.num_parties(); ++i) {
    int v = 0;
    while (v < set.num_views() &&
           set.views_[v].transcript != transcripts[i]) {
      ++v;
    }
    if (v == set.num_views()) {
      set.views_.push_back(View{transcripts[i],
                                std::vector<int>(transcripts[i].size(), -1)});
      set.parent_.push_back(v);
    }
    set.view_of_[i] = v;
    set.beeps_[i] = BitString(transcripts[i].size());
  }
  set.peak_views_ = set.num_views();
  return set;
}

int ViewSet::AddCopy(int v) {
  View copy = views_[v];
  views_.push_back(std::move(copy));
  parent_.push_back(v);
  peak_views_ = std::max(peak_views_, num_views());
  return num_views() - 1;
}

void ViewSet::Rewind(int num_views_at_mark, std::size_t length) {
  NB_REQUIRE(num_views_at_mark >= 1 && num_views_at_mark <= num_views(),
             "rewind mark out of range");
  if (num_views() > num_views_at_mark) {
    // parent_[v] < v, so following parents reaches a view of the mark.
    for (int& v : view_of_) {
      while (v >= num_views_at_mark) v = parent_[v];
    }
    views_.resize(static_cast<std::size_t>(num_views_at_mark));
    parent_.resize(static_cast<std::size_t>(num_views_at_mark));
  }
  for (View& view : views_) {
    view.transcript.Truncate(length);
    view.owners.resize(length);
  }
  for (BitString& b : beeps_) b.Truncate(length);
}

void ViewSet::TruncateAndMerge(std::size_t length) {
  Rewind(num_views(), length);
  // Sort view indices by content (ties by index), so each group of equal
  // views is a run whose first entry is its lowest-numbered view.
  std::vector<int> order(views_.size());
  std::iota(order.begin(), order.end(), 0);
  const auto less = [&](int a, int b) {
    const View& x = views_[a];
    const View& y = views_[b];
    if (x.transcript.size() != y.transcript.size()) {
      return x.transcript.size() < y.transcript.size();
    }
    const auto xw = x.transcript.words();
    const auto yw = y.transcript.words();
    const auto [xi, yi] = std::mismatch(xw.begin(), xw.end(), yw.begin());
    if (xi != xw.end()) return *xi < *yi;
    if (x.owners != y.owners) return x.owners < y.owners;
    return a < b;
  };
  std::sort(order.begin(), order.end(), less);
  std::vector<int> keep(views_.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const bool same_as_prev =
        k > 0 &&
        views_[order[k]].transcript == views_[order[k - 1]].transcript &&
        views_[order[k]].owners == views_[order[k - 1]].owners;
    keep[order[k]] = same_as_prev ? keep[order[k - 1]] : order[k];
  }
  // Compact the kept views in their old order.
  std::vector<int> renumber(views_.size(), -1);
  int kept = 0;
  for (int v = 0; v < num_views(); ++v) {
    if (keep[v] != v) continue;
    if (kept != v) views_[kept] = std::move(views_[v]);
    renumber[v] = kept++;
  }
  views_.resize(static_cast<std::size_t>(kept));
  parent_.resize(static_cast<std::size_t>(kept));
  std::iota(parent_.begin(), parent_.end(), 0);
  for (int& v : view_of_) v = renumber[keep[v]];
}

std::vector<int> ViewSet::FirstMembers() const {
  std::vector<int> first(views_.size(), -1);
  for (int i = num_parties() - 1; i >= 0; --i) first[view_of_[i]] = i;
  return first;
}

std::vector<BitString> ViewSet::Transcripts() const {
  std::vector<BitString> out;
  out.reserve(view_of_.size());
  for (const int v : view_of_) out.push_back(views_[v].transcript);
  return out;
}

std::vector<std::vector<int>> ViewSet::Owners() const {
  std::vector<std::vector<int>> out;
  out.reserve(view_of_.size());
  for (const int v : view_of_) out.push_back(views_[v].owners);
  return out;
}

bool SameBits(const BitString& a, const BitString& b, std::size_t begin,
              std::size_t end) {
  NB_REQUIRE(begin <= end && end <= a.size() && end <= b.size(),
             "bit range out of bounds");
  if (begin == end) return true;
  const std::size_t first = begin / BitString::kWordBits;
  const std::size_t last = (end - 1) / BitString::kWordBits;
  for (std::size_t wi = first; wi <= last; ++wi) {
    std::uint64_t diff = a.Word(wi) ^ b.Word(wi);
    if (wi == first) {
      diff &= ~std::uint64_t{0} << (begin % BitString::kWordBits);
    }
    if (wi == last) diff &= BitString::TailMask(end);
    if (diff != 0) return false;
  }
  return true;
}

}  // namespace noisybeeps::internal
