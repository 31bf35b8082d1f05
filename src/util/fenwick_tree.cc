#include "src/util/fenwick_tree.h"

#include <algorithm>
#include <bit>
#include <type_traits>

#include "src/util/logging.h"

namespace sampwh {

namespace {

size_t LowBit(size_t i) { return i & (~i + 1); }

// The prefix-sum descent over the 1-based `tree` of power-of-two
// `capacity`: binary lifting from just below the root, which holds the
// total and so always covers the target. A node whose partial sum falls
// short of the remaining target is stepped over; `step` is all ones then,
// and zero otherwise. Each level loads both nodes the next level may read
// before its own comparison is known and keeps one with the same mask, so
// a level costs a compare and a select rather than a compare and a
// dependent load. The last level's two loads read slots 0 (unused) to
// capacity - 1 and are discarded.
//
// Over a mutable tree the descent also takes one from the found slot's
// count, except at the root: the nodes it does not step over are exactly
// the nodes whose ranges hold that slot.
template <typename Node>
size_t Descend(Node* tree, size_t capacity, std::remove_const_t<Node> target) {
  using Weight = std::remove_const_t<Node>;
  size_t pos = 0;
  Weight remaining = target;
  Weight w = tree[capacity >> 1];
  for (size_t bit = capacity >> 1; bit > 0; bit >>= 1) {
    const size_t half = bit >> 1;
    const Weight stay = tree[pos + half];
    const Weight jump = tree[pos + bit + half];
    const Weight below = w < remaining;
    const size_t step = 0 - static_cast<size_t>(below);
    if constexpr (!std::is_const_v<Node>) tree[pos + bit] = w - (below ^ 1);
    pos += bit & step;
    remaining -= w & static_cast<Weight>(step);
    w = (jump & static_cast<Weight>(step)) |
        (stay & ~static_cast<Weight>(step));
  }
  return pos;
}

}  // namespace

template <typename Weight>
BasicFenwickTree<Weight>::BasicFenwickTree(size_t size)
    : size_(size),
      capacity_(std::bit_ceil(std::max<size_t>(size, 1))),
      tree_(capacity_ + 1, 0) {}

template <typename Weight>
BasicFenwickTree<Weight>::BasicFenwickTree(const std::vector<Weight>& weights)
    : BasicFenwickTree(weights.size()) {
  // O(n) construction: place each weight, then push partial sums upward.
  std::copy(weights.begin(), weights.end(), tree_.begin() + 1);
  for (size_t i = 1; i < capacity_; ++i) tree_[i + LowBit(i)] += tree_[i];
}

template <typename Weight>
void BasicFenwickTree<Weight>::Add(size_t i, int64_t delta) {
  SAMPWH_DCHECK(i < size_);
  // Unsigned wrap-around adds a negative delta exactly.
  const Weight d = static_cast<Weight>(delta);
  for (size_t j = i + 1; j <= capacity_; j += LowBit(j)) tree_[j] += d;
}

template <typename Weight>
Weight BasicFenwickTree<Weight>::PrefixSum(size_t i) const {
  SAMPWH_DCHECK(i < size_);
  Weight sum = 0;
  for (size_t j = i + 1; j > 0; j -= LowBit(j)) sum += tree_[j];
  return sum;
}

template <typename Weight>
Weight BasicFenwickTree<Weight>::Get(size_t i) const {
  Weight value = PrefixSum(i);
  if (i > 0) value -= PrefixSum(i - 1);
  return value;
}

template <typename Weight>
size_t BasicFenwickTree<Weight>::FindByPrefixSum(Weight target) const {
  SAMPWH_DCHECK(target >= 1 && target <= Total());
  return Descend(tree_.data(), capacity_, target);
}

template <typename Weight>
size_t BasicFenwickTree<Weight>::TakeOneByPrefixSum(Weight target) {
  SAMPWH_DCHECK(target >= 1 && target <= Total());
  const size_t slot = Descend(tree_.data(), capacity_, target);
  --tree_[capacity_];
  SAMPWH_DCHECK(slot < size_);
  return slot;
}

template <typename Weight>
std::vector<Weight> BasicFenwickTree<Weight>::Weights() const {
  // Undo the constructor's upward pushes from the top down: node i still
  // holds its whole range sum when it is reached (its children all lie
  // below it), so subtracting it takes exactly its range off its parent.
  std::vector<Weight> weights(
      tree_.begin() + 1, tree_.begin() + 1 + static_cast<ptrdiff_t>(size_));
  for (size_t i = size_; i >= 1; --i) {
    const size_t parent = i + LowBit(i);
    if (parent <= size_) weights[parent - 1] -= weights[i - 1];
  }
  return weights;
}

template class BasicFenwickTree<uint32_t>;
template class BasicFenwickTree<uint64_t>;

}  // namespace sampwh
