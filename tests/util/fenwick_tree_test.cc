#include "src/util/fenwick_tree.h"

#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/random.h"

namespace sampwh {
namespace {

TEST(FenwickTreeTest, EmptyTreeHasZeroTotal) {
  FenwickTree tree(10);
  EXPECT_EQ(tree.Total(), 0u);
  EXPECT_EQ(tree.PrefixSum(9), 0u);
}

TEST(FenwickTreeTest, VectorConstructionMatchesAdds) {
  const std::vector<uint64_t> weights = {3, 0, 7, 1, 0, 4, 9, 2};
  FenwickTree from_vector(weights);
  FenwickTree from_adds(weights.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    from_adds.Add(i, static_cast<int64_t>(weights[i]));
  }
  EXPECT_EQ(from_vector.Total(), from_adds.Total());
  for (size_t i = 0; i < weights.size(); ++i) {
    EXPECT_EQ(from_vector.PrefixSum(i), from_adds.PrefixSum(i)) << i;
    EXPECT_EQ(from_vector.Get(i), weights[i]) << i;
  }
}

TEST(FenwickTreeTest, PrefixSumsMatchNaive) {
  const std::vector<uint64_t> weights = {5, 2, 0, 8, 1, 1, 0, 0, 3, 6};
  FenwickTree tree(weights);
  uint64_t running = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    running += weights[i];
    EXPECT_EQ(tree.PrefixSum(i), running) << i;
  }
  EXPECT_EQ(tree.Total(), running);
}

TEST(FenwickTreeTest, NegativeDeltasWork) {
  FenwickTree tree(std::vector<uint64_t>{4, 4, 4});
  tree.Add(1, -3);
  EXPECT_EQ(tree.Get(1), 1u);
  EXPECT_EQ(tree.Total(), 9u);
  EXPECT_EQ(tree.PrefixSum(2), 9u);
}

TEST(FenwickTreeTest, FindByPrefixSumSelectsCorrectSlot) {
  // Weights 2, 0, 3, 1: targets 1-2 -> slot 0, 3-5 -> slot 2, 6 -> slot 3.
  FenwickTree tree(std::vector<uint64_t>{2, 0, 3, 1});
  EXPECT_EQ(tree.FindByPrefixSum(1), 0u);
  EXPECT_EQ(tree.FindByPrefixSum(2), 0u);
  EXPECT_EQ(tree.FindByPrefixSum(3), 2u);
  EXPECT_EQ(tree.FindByPrefixSum(5), 2u);
  EXPECT_EQ(tree.FindByPrefixSum(6), 3u);
}

TEST(FenwickTreeTest, FindByPrefixSumNeverReturnsZeroWeightSlot) {
  FenwickTree tree(std::vector<uint64_t>{0, 5, 0, 0, 7, 0});
  for (uint64_t target = 1; target <= 12; ++target) {
    const size_t slot = tree.FindByPrefixSum(target);
    EXPECT_TRUE(slot == 1 || slot == 4) << target;
  }
}

TEST(FenwickTreeTest, RandomizedAgainstNaiveModel) {
  Pcg64 rng(42);
  const size_t n = 64;
  std::vector<uint64_t> model(n, 0);
  FenwickTree tree(n);
  for (int step = 0; step < 5000; ++step) {
    const size_t i = static_cast<size_t>(rng.UniformInt(n));
    if (rng.Bernoulli(0.7) || model[i] == 0) {
      const int64_t delta = static_cast<int64_t>(rng.UniformInt(5)) + 1;
      model[i] += static_cast<uint64_t>(delta);
      tree.Add(i, delta);
    } else {
      model[i] -= 1;
      tree.Add(i, -1);
    }
    if (step % 97 == 0) {
      uint64_t running = 0;
      for (size_t j = 0; j < n; ++j) {
        running += model[j];
        ASSERT_EQ(tree.PrefixSum(j), running) << step << " " << j;
      }
    }
  }
  // Exhaustive FindByPrefixSum validation against the final model.
  uint64_t running = 0;
  for (size_t j = 0; j < n; ++j) {
    for (uint64_t t = running + 1; t <= running + model[j]; ++t) {
      ASSERT_EQ(tree.FindByPrefixSum(t), j);
    }
    running += model[j];
  }
}

// Checks FindByPrefixSum, TakeOneByPrefixSum and Weights() of a tree of
// every size 1..130 against a plain vector under random adds and removes:
// the sizes cross several powers of two, so padded slots sit at the end of
// most of the trees.
template <typename Weight>
void CheckAgainstNaiveModelAtEverySize() {
  Pcg64 rng(sizeof(Weight));
  for (size_t n = 1; n <= 130; ++n) {
    std::vector<Weight> model(n, 0);
    for (Weight& w : model) w = static_cast<Weight>(rng.UniformInt(3));
    BasicFenwickTree<Weight> tree(model);
    for (int step = 0; step < 300; ++step) {
      const size_t i = static_cast<size_t>(rng.UniformInt(n));
      if (rng.Bernoulli(0.5) || model[i] == 0) {
        const Weight delta = static_cast<Weight>(1 + rng.UniformInt(4));
        model[i] += delta;
        tree.Add(i, static_cast<int64_t>(delta));
      } else {
        model[i] -= 1;
        tree.Add(i, -1);
      }
      uint64_t total = 0;
      for (const Weight w : model) total += w;
      ASSERT_EQ(tree.Total(), total) << n << " " << step;
      if (total == 0) continue;
      // A random target resolves to the slot the naive scan finds.
      const uint64_t target = 1 + rng.UniformInt(total);
      size_t expected = 0;
      for (uint64_t below = 0; below + model[expected] < target;) {
        below += model[expected++];
      }
      ASSERT_EQ(tree.FindByPrefixSum(static_cast<Weight>(target)), expected)
          << n << " " << step;
      if (step % 3 == 0) {
        ASSERT_EQ(tree.TakeOneByPrefixSum(static_cast<Weight>(target)),
                  expected);
        model[expected] -= 1;
      }
      if (step % 10 == 0) {
        ASSERT_EQ(tree.Weights(), model) << n << " " << step;
      }
    }
    ASSERT_EQ(tree.Weights(), model) << n;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(tree.Get(i), model[i]);
    }
  }
}

TEST(FenwickTreeTest, NaiveModelAtEverySizeUpTo130Bits64) {
  CheckAgainstNaiveModelAtEverySize<uint64_t>();
}

TEST(FenwickTreeTest, NaiveModelAtEverySizeUpTo130Bits32) {
  CheckAgainstNaiveModelAtEverySize<uint32_t>();
}

TEST(FenwickTreeTest, WeightsInvertsTheConstructor) {
  for (size_t n = 0; n <= 70; ++n) {
    std::vector<uint64_t> weights(n);
    for (size_t i = 0; i < n; ++i) weights[i] = (i * 7919) % 13;
    EXPECT_EQ(FenwickTree(weights).Weights(), weights) << n;
  }
}

TEST(FenwickTreeTest, WeightedSelectionIsProportional) {
  const std::vector<uint64_t> weights = {1, 9, 0, 10};
  FenwickTree tree(weights);
  Pcg64 rng(7);
  std::vector<int> counts(weights.size(), 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    const uint64_t target = rng.UniformInt(tree.Total()) + 1;
    ++counts[tree.FindByPrefixSum(target)];
  }
  EXPECT_NEAR(counts[0], trials * 0.05, 400);
  EXPECT_NEAR(counts[1], trials * 0.45, 900);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3], trials * 0.50, 900);
}

}  // namespace
}  // namespace sampwh
