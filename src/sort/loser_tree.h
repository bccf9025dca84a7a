#ifndef USJ_SORT_LOSER_TREE_H_
#define USJ_SORT_LOSER_TREE_H_

#include <algorithm>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace sj {

/// Tournament (loser) tree over k sorted sources — the selection
/// structure of every k-way merge (ExternalSorter::MergeRuns and
/// MergingReader). Each ReplaceTop() walks one leaf-to-root path of
/// exactly ceil(log2 k) comparisons, where a binary heap pays two sifts
/// (pop + push) per record with data-dependent branches.
///
/// Ordering is the *stable* merge order: ties between sources break
/// toward the lower source index, and an exhausted source loses to every
/// live one. Because stable k-way merges compose, stability makes the
/// merged output independent of the fan-in the merge planner picks, even
/// for comparators with ties. (Every comparator the joins use is already
/// a total order; stability is the belt to that suspender.)
///
/// Layout: leaf i lives at position k + i of an implicit binary tree;
/// internal node p (1 <= p < k) stores the *loser* of the subtree match
/// below it and tree_[0] stores the overall winner. This works for any k,
/// not just powers of two.
template <typename T, typename Less>
class LoserTree {
 public:
  /// `heads[i]` is source i's first record (nullopt = empty source).
  LoserTree(std::vector<std::optional<T>> heads, Less less)
      : less_(std::move(less)), heads_(std::move(heads)), k_(heads_.size()) {
    if (k_ == 0) return;
    tree_.assign(k_, 0);
    // Bottom-up build: winner[p] is the winner of the match at position p
    // (leaves win their own position), losers are deposited into tree_.
    std::vector<size_t> winner(2 * k_);
    for (size_t p = 2 * k_; p-- > k_;) winner[p] = p - k_;
    for (size_t p = k_; p-- > 1;) {
      const size_t a = winner[2 * p];
      const size_t b = winner[2 * p + 1];
      if (Beats(a, b)) {
        winner[p] = a;
        tree_[p] = b;
      } else {
        winner[p] = b;
        tree_[p] = a;
      }
    }
    tree_[0] = winner[1];
  }

  /// True when every source is exhausted (the winner is exhausted only
  /// when all of them are).
  bool Empty() const { return k_ == 0 || !heads_[tree_[0]].has_value(); }

  /// The smallest head and its source. Only valid while !Empty().
  const T& Top() const { return *heads_[tree_[0]]; }
  size_t TopSource() const { return tree_[0]; }

  /// Replaces the winner's head with the next record from the same source
  /// (nullopt = exhausted) and replays its leaf-to-root path.
  void ReplaceTop(std::optional<T> next) {
    SJ_DCHECK(!Empty());
    const size_t source = tree_[0];
    heads_[source] = std::move(next);
    size_t winner = source;
    for (size_t p = (source + k_) / 2; p >= 1; p /= 2) {
      if (Beats(tree_[p], winner)) std::swap(tree_[p], winner);
    }
    tree_[0] = winner;
  }

 private:
  /// True when source a's head must be emitted before source b's.
  bool Beats(size_t a, size_t b) const {
    const bool live_a = heads_[a].has_value();
    const bool live_b = heads_[b].has_value();
    if (!live_a || !live_b) return live_a || (!live_b && a < b);
    if (less_(*heads_[a], *heads_[b])) return true;
    if (less_(*heads_[b], *heads_[a])) return false;
    return a < b;
  }

  Less less_;
  std::vector<std::optional<T>> heads_;
  size_t k_;
  std::vector<size_t> tree_;
};

}  // namespace sj

#endif  // USJ_SORT_LOSER_TREE_H_
