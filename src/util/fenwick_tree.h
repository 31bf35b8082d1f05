// Fenwick (binary indexed) tree over non-negative integer weights, with
// prefix-sum search. purgeReservoir (paper Fig. 4, line 9) must repeatedly
// pick a uniformly random victim from a reservoir stored as (value, count)
// pairs — i.e. select the pair whose cumulative count brackets a random
// index — and then decrement that count. The Fenwick tree makes each
// select+update O(log m) instead of the O(m) scan in the paper's pseudocode.
//
// The tree is padded to a power-of-two capacity; padded slots hold weight 0
// and are never selected. With a power-of-two capacity the prefix-sum
// descent visits exactly log2(capacity) nodes with no bound check, and it
// is written with mask arithmetic instead of data-dependent branches: the
// victim draws of a purge are random, so a branchy descent mispredicts
// about every other level.

#ifndef SAMPWH_UTIL_FENWICK_TREE_H_
#define SAMPWH_UTIL_FENWICK_TREE_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace sampwh {

/// `Weight` is uint32_t or uint64_t: a 32-bit tree halves the bytes the
/// descent touches when every weight and their total fit in 32 bits.
template <typename Weight>
class BasicFenwickTree {
  static_assert(std::is_same_v<Weight, uint32_t> ||
                std::is_same_v<Weight, uint64_t>);

 public:
  /// A tree over `size` slots, all initially 0.
  explicit BasicFenwickTree(size_t size);

  /// A tree initialized from `weights` in O(n).
  explicit BasicFenwickTree(const std::vector<Weight>& weights);

  size_t size() const { return size_; }

  /// Adds `delta` to slot i (delta may be negative as long as the slot
  /// value stays non-negative; callers maintain that invariant).
  void Add(size_t i, int64_t delta);

  /// Sum of slots [0, i] inclusive.
  Weight PrefixSum(size_t i) const;

  /// Sum of all slots.
  Weight Total() const { return tree_[capacity_]; }

  /// Value of slot i.
  Weight Get(size_t i) const;

  /// Returns the smallest index i such that PrefixSum(i) >= target, for
  /// 1 <= target <= Total(). This maps a uniform random integer in
  /// [1, Total()] to a slot with probability proportional to its weight.
  size_t FindByPrefixSum(Weight target) const;

  /// FindByPrefixSum(target) followed by Add(slot, -1), in one descent:
  /// the nodes the descent passes on its left are exactly the nodes whose
  /// ranges hold the found slot, so each is decremented as it is read.
  size_t TakeOneByPrefixSum(Weight target);

  /// Every slot's value in O(n): the inverse of the O(n) constructor.
  std::vector<Weight> Weights() const;

 private:
  size_t size_;
  size_t capacity_;           // power of two >= max(size_, 1)
  std::vector<Weight> tree_;  // 1-based; tree_[capacity_] is the total
};

extern template class BasicFenwickTree<uint32_t>;
extern template class BasicFenwickTree<uint64_t>;

using FenwickTree = BasicFenwickTree<uint64_t>;

}  // namespace sampwh

#endif  // SAMPWH_UTIL_FENWICK_TREE_H_
