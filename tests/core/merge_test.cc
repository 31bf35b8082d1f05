#include "src/core/merge.h"

#include <cmath>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/hybrid_bernoulli.h"
#include "src/core/hybrid_reservoir.h"
#include "src/core/qbound.h"
#include "src/util/serialization.h"

namespace sampwh {
namespace {

CompactHistogram MakeHistogram(
    const std::vector<std::pair<Value, uint64_t>>& entries) {
  CompactHistogram h;
  for (const auto& [v, n] : entries) h.Insert(v, n);
  return h;
}

PartitionSample SampleHb(uint64_t f, const std::vector<Value>& data,
                         uint64_t seed) {
  HybridBernoulliSampler::Options options;
  options.footprint_bound_bytes = f;
  options.expected_population_size = data.size();
  HybridBernoulliSampler sampler(options, Pcg64(seed));
  for (const Value v : data) sampler.Add(v);
  return sampler.Finalize();
}

PartitionSample SampleHr(uint64_t f, const std::vector<Value>& data,
                         uint64_t seed) {
  HybridReservoirSampler::Options options;
  options.footprint_bound_bytes = f;
  HybridReservoirSampler sampler(options, Pcg64(seed));
  for (const Value v : data) sampler.Add(v);
  return sampler.Finalize();
}

std::vector<Value> Range(Value begin, Value end) {
  std::vector<Value> out;
  for (Value v = begin; v < end; ++v) out.push_back(v);
  return out;
}

MergeOptions Opts(uint64_t f) {
  MergeOptions options;
  options.footprint_bound_bytes = f;
  return options;
}

TEST(HypergeometricSplitTest, WithinSupport) {
  Pcg64 rng(1);
  for (int t = 0; t < 1000; ++t) {
    const uint64_t l = SampleHypergeometricSplit(10, 20, 15, rng);
    EXPECT_GE(l, 0u);
    EXPECT_LE(l, 10u);
    EXPECT_GE(15 - l, 0u);
  }
}

TEST(HrMergeTest, BothExhaustiveStaysExhaustive) {
  const PartitionSample s1 = SampleHr(65536, Range(0, 100), 1);
  const PartitionSample s2 = SampleHr(65536, Range(100, 250), 2);
  Pcg64 rng(3);
  const auto merged = HRMerge(s1, s2, Opts(65536), rng);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().phase(), SamplePhase::kExhaustive);
  EXPECT_EQ(merged.value().size(), 250u);
  EXPECT_EQ(merged.value().parent_size(), 250u);
}

TEST(HrMergeTest, BothReservoirGivesMinSize) {
  const PartitionSample s1 = SampleHr(512, Range(0, 5000), 4);
  const PartitionSample s2 = SampleHr(512, Range(5000, 30000), 5);
  ASSERT_EQ(s1.size(), 64u);
  ASSERT_EQ(s2.size(), 64u);
  Pcg64 rng(6);
  const auto merged = HRMerge(s1, s2, Opts(512), rng);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().phase(), SamplePhase::kReservoir);
  EXPECT_EQ(merged.value().size(), 64u);
  EXPECT_EQ(merged.value().parent_size(), 30000u);
  EXPECT_TRUE(merged.value().Validate().ok());
}

TEST(HrMergeTest, ExhaustivePlusReservoir) {
  const PartitionSample s1 = SampleHr(65536, Range(0, 500), 7);     // exact
  const PartitionSample s2 = SampleHr(512, Range(1000, 9000), 8);  // SRS 64
  Pcg64 rng(9);
  const auto merged = HRMerge(s1, s2, Opts(512), rng);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().parent_size(), 8500u);
  EXPECT_LE(merged.value().size(), 64u);
  EXPECT_TRUE(merged.value().Validate().ok());
}

TEST(HrMergeTest, MergedShareFromEachSideIsHypergeometric) {
  // Theorem 1 corollary: the merged sample takes L ~ HG(|D1|,|D2|,k)
  // elements from D1. Verify the mean over repeated merges.
  const int trials = 3000;
  double from_d1 = 0.0;
  for (int t = 0; t < trials; ++t) {
    const PartitionSample s1 = SampleHr(256, Range(0, 1000), 100 + t);
    const PartitionSample s2 =
        SampleHr(256, Range(1000, 4000), 5000 + t);  // |D2| = 3000
    Pcg64 rng(90000 + t);
    const auto merged = HRMerge(s1, s2, Opts(256), rng);
    ASSERT_TRUE(merged.ok());
    merged.value().histogram().ForEach([&](Value v, uint64_t c) {
      if (v < 1000) from_d1 += static_cast<double>(c);
    });
  }
  // k = 32, E[L] = 32 * 1000/4000 = 8.
  EXPECT_NEAR(from_d1 / trials, 8.0, 0.25);
}

TEST(HrMergeTest, EmptyBernoulliInputYieldsEmptyUniformSample) {
  const PartitionSample empty =
      PartitionSample::MakeBernoulli(CompactHistogram(), 1000, 0.001, 512);
  const PartitionSample s2 = SampleHr(512, Range(0, 5000), 10);
  Pcg64 rng(11);
  const auto merged = HRMerge(empty, s2, Opts(512), rng);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().size(), 0u);
  EXPECT_EQ(merged.value().parent_size(), 6000u);
}

TEST(HrMergeTest, ExhaustiveBesideEmptyBernoulliIsEmptyReservoir) {
  // An empty Bernoulli side bounds k at 0; an exhaustive side never
  // bounds it. The only simple random sample of size 0 is the empty one.
  const PartitionSample exhaustive = SampleHr(65536, Range(0, 100), 30);
  ASSERT_EQ(exhaustive.phase(), SamplePhase::kExhaustive);
  const PartitionSample empty =
      PartitionSample::MakeBernoulli(CompactHistogram(), 1000, 0.001, 512);
  for (const bool swap : {false, true}) {
    Pcg64 rng(31);
    const auto merged = swap ? HRMerge(empty, exhaustive, Opts(512), rng)
                             : HRMerge(exhaustive, empty, Opts(512), rng);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_EQ(merged.value().phase(), SamplePhase::kReservoir);
    EXPECT_EQ(merged.value().size(), 0u);
    EXPECT_EQ(merged.value().parent_size(), 1100u);
  }
}

TEST(HrMergeTest, ExhaustiveSideIncludedAtKOverN) {
  // A size-k simple random sample of D2 (k = 16, |D2| = 2000) merged with
  // an exhaustive D1 of 2000 elements: k stays 16, and each element of D1
  // must appear with probability k / (|D1| + |D2|).
  const PartitionSample exhaustive =
      SampleHr(65536, Range(1000000, 1002000), 32);
  ASSERT_EQ(exhaustive.phase(), SamplePhase::kExhaustive);
  int from_exhaustive = 0;
  const int trials = 8000;
  for (int t = 0; t < trials; ++t) {
    const PartitionSample reservoir = SampleHr(128, Range(0, 2000), 300 + t);
    ASSERT_EQ(reservoir.size(), 16u);
    Pcg64 rng(90000 + t);
    const auto merged = HRMerge(reservoir, exhaustive, Opts(128), rng);
    ASSERT_TRUE(merged.ok());
    ASSERT_EQ(merged.value().size(), 16u);
    merged.value().histogram().ForEach([&](Value v, uint64_t c) {
      if (v >= 1000000) from_exhaustive += static_cast<int>(c);
    });
  }
  // E[from D1 per trial] = 16 * 2000 / 4000 = 8.
  EXPECT_NEAR(from_exhaustive / static_cast<double>(trials), 8.0, 0.2);
}

TEST(HbMergeTest, BothExhaustiveSmall) {
  const PartitionSample s1 = SampleHb(65536, Range(0, 80), 12);
  const PartitionSample s2 = SampleHb(65536, Range(80, 150), 13);
  Pcg64 rng(14);
  const auto merged = HBMerge(s1, s2, Opts(65536), rng);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().phase(), SamplePhase::kExhaustive);
  EXPECT_EQ(merged.value().size(), 150u);
}

TEST(HbMergeTest, ExhaustiveStreamedIntoBernoulli) {
  // The exhaustive side is a Bern(1) sample: both sides are thinned to
  // the rate q of the merged parent, which is below the Bernoulli side's.
  const PartitionSample small = SampleHb(65536, Range(0, 200), 15);
  const PartitionSample big = SampleHb(8192, Range(1000, 101000), 16);
  ASSERT_EQ(big.phase(), SamplePhase::kBernoulli);
  Pcg64 rng(17);
  const auto merged = HBMerge(small, big, Opts(8192), rng);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().parent_size(), 100200u);
  EXPECT_TRUE(merged.value().Validate().ok());
  ASSERT_EQ(merged.value().phase(), SamplePhase::kBernoulli);
  EXPECT_EQ(merged.value().sampling_rate(),
            ApproxBernoulliRate(100200, 1e-3, 1024));
  EXPECT_LT(merged.value().sampling_rate(), big.sampling_rate());
}

TEST(HbMergeTest, OversizedBernoulliBesideExhaustiveCutsToNf) {
  // A duplicate-compressed Bernoulli sample can hold more than n_F values
  // within its byte bound. Beside an exhaustive side, at the merged rate
  // itself (so it is not thinned), its join breaks the merged bound and is
  // cut to a size-n_F reservoir rather than rejected or overflowed.
  const uint64_t f = 128;  // n_F = 16
  const double q = ApproxBernoulliRate(1050, 1e-3, 16);
  CompactHistogram h;
  for (Value v = 0; v < 12; ++v) h.Insert(v, 20);  // 240 values, 144 bytes
  const PartitionSample bernoulli =
      PartitionSample::MakeBernoulli(std::move(h), 1000, q, 512);
  ASSERT_TRUE(bernoulli.Validate().ok());
  const PartitionSample exhaustive = SampleHb(65536, Range(100, 150), 33);
  ASSERT_EQ(exhaustive.phase(), SamplePhase::kExhaustive);
  Pcg64 rng(34);
  const auto merged = HBMerge(bernoulli, exhaustive, Opts(f), rng);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.value().phase(), SamplePhase::kReservoir);
  EXPECT_EQ(merged.value().size(), 16u);
  EXPECT_EQ(merged.value().parent_size(), 1050u);
  EXPECT_LE(merged.value().footprint_bytes(), f);
  EXPECT_TRUE(merged.value().Validate().ok());
}

TEST(HbMergeTest, BothBernoulliCommonRate) {
  const PartitionSample s1 = SampleHb(8192, Range(0, 100000), 18);
  const PartitionSample s2 = SampleHb(8192, Range(100000, 200000), 19);
  ASSERT_EQ(s1.phase(), SamplePhase::kBernoulli);
  ASSERT_EQ(s2.phase(), SamplePhase::kBernoulli);
  Pcg64 rng(20);
  const auto merged = HBMerge(s1, s2, Opts(8192), rng);
  ASSERT_TRUE(merged.ok());
  const PartitionSample& m = merged.value();
  EXPECT_EQ(m.parent_size(), 200000u);
  EXPECT_LE(m.footprint_bytes(), 8192u);
  EXPECT_TRUE(m.Validate().ok());
  if (m.phase() == SamplePhase::kBernoulli) {
    // The merged rate must match q(|D1|+|D2|, p, n_F).
    EXPECT_LT(m.sampling_rate(), s1.sampling_rate());
  }
}

TEST(HbMergeTest, MergedSizeTracksCommonRate) {
  double sum = 0.0;
  const int trials = 40;
  double expected = 0.0;
  for (int t = 0; t < trials; ++t) {
    const PartitionSample s1 =
        SampleHb(8192, Range(0, 50000), 2000 + t);
    const PartitionSample s2 =
        SampleHb(8192, Range(50000, 150000), 3000 + t);
    Pcg64 rng(4000 + t);
    const auto merged = HBMerge(s1, s2, Opts(8192), rng);
    ASSERT_TRUE(merged.ok());
    sum += static_cast<double>(merged.value().size());
    expected = 150000.0 * merged.value().sampling_rate();
  }
  // Mean within 5% of N * q.
  EXPECT_NEAR(sum / trials, expected, 0.05 * expected);
}

TEST(HbMergeTest, ReservoirInputDelegatesToHrMerge) {
  // Force one HB sample into phase 3 via a stream 20x its declared size.
  HybridBernoulliSampler::Options options;
  options.footprint_bound_bytes = 512;
  options.expected_population_size = 2000;
  HybridBernoulliSampler sampler(options, Pcg64(21));
  for (Value v = 0; v < 40000; ++v) sampler.Add(v);
  const PartitionSample reservoir = sampler.Finalize();
  ASSERT_EQ(reservoir.phase(), SamplePhase::kReservoir);

  const PartitionSample bern = SampleHb(512, Range(100000, 140000), 22);
  Pcg64 rng(23);
  const auto merged = HBMerge(reservoir, bern, Opts(512), rng);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().phase(), SamplePhase::kReservoir);
  EXPECT_EQ(merged.value().parent_size(), 80000u);
  EXPECT_TRUE(merged.value().Validate().ok());
}

TEST(MergeSamplesTest, DispatchesByPhase) {
  const PartitionSample hb1 = SampleHb(8192, Range(0, 50000), 24);
  const PartitionSample hr1 = SampleHr(8192, Range(50000, 90000), 25);
  Pcg64 rng(26);
  const auto merged = MergeSamples(hb1, hr1, Opts(8192), rng);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().phase(), SamplePhase::kReservoir);
}

TEST(UnionBernoulliTest, EqualRatesJustJoin) {
  const PartitionSample s1 = PartitionSample::MakeBernoulli(
      MakeHistogram({{1, 2}, {2, 1}}), 100, 0.1, 0);
  const PartitionSample s2 = PartitionSample::MakeBernoulli(
      MakeHistogram({{2, 2}, {3, 1}}), 200, 0.1, 0);
  Pcg64 rng(27);
  const auto merged = UnionBernoulli({&s1, &s2}, rng);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().size(), 6u);
  EXPECT_EQ(merged.value().parent_size(), 300u);
  EXPECT_EQ(merged.value().sampling_rate(), 0.1);
  EXPECT_EQ(merged.value().histogram().CountOf(2), 3u);
}

TEST(UnionBernoulliTest, UnequalRatesAreEqualized) {
  Pcg64 rng(28);
  double kept = 0.0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    const PartitionSample s1 = PartitionSample::MakeBernoulli(
        MakeHistogram({{1, 100}}), 1000, 0.2, 0);
    const PartitionSample s2 = PartitionSample::MakeBernoulli(
        MakeHistogram({{2, 100}}), 1000, 0.1, 0);
    const auto merged = UnionBernoulli({&s1, &s2}, rng);
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ(merged.value().sampling_rate(), 0.1);
    kept += static_cast<double>(merged.value().histogram().CountOf(1));
  }
  // s1's elements survive the 0.1/0.2 thinning half the time.
  EXPECT_NEAR(kept / trials, 50.0, 1.0);
}

TEST(UnionBernoulliTest, RejectsReservoirInput) {
  const PartitionSample r = SampleHr(512, Range(0, 5000), 29);
  Pcg64 rng(30);
  EXPECT_FALSE(UnionBernoulli({&r}, rng).ok());
}

TEST(MergeAllTest, SingleInputPassesThrough) {
  const PartitionSample s = SampleHr(512, Range(0, 5000), 31);
  const auto merged = MergeAll({&s}, Opts(512), /*seed=*/32);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().size(), s.size());
}

TEST(MergeAllTest, EmptyInputIsError) {
  EXPECT_FALSE(MergeAll({}, Opts(512), /*seed=*/33).ok());
}

TEST(MergeAllTest, FoldAndTreeBothCoverAllPartitions) {
  std::vector<PartitionSample> samples;
  for (int p = 0; p < 8; ++p) {
    samples.push_back(
        SampleHr(512, Range(p * 1000, (p + 1) * 1000), 40 + p));
  }
  std::vector<const PartitionSample*> pointers;
  for (const auto& s : samples) pointers.push_back(&s);
  // The paper's serial pairwise merges, folded here over MergeSamples.
  Pcg64 rng(50);
  PartitionSample fold = samples[0];
  for (size_t i = 1; i < samples.size(); ++i) {
    auto next = MergeSamples(fold, samples[i], Opts(512), rng);
    ASSERT_TRUE(next.ok());
    fold = std::move(next).value();
  }
  const auto tree = MergeAll(pointers, Opts(512), /*seed=*/50);
  ASSERT_TRUE(tree.ok());
  const std::vector<const PartitionSample*> both = {&fold, &tree.value()};
  for (const PartitionSample* merged : both) {
    EXPECT_EQ(merged->parent_size(), 8000u);
    EXPECT_EQ(merged->size(), 64u);
    EXPECT_TRUE(merged->Validate().ok());
  }
}

// --- The merge-tree walker -------------------------------------------------

std::string Bytes(const PartitionSample& sample) {
  BinaryWriter writer;
  sample.SerializeTo(&writer);
  return writer.Release();
}

// Eight HR leaves at ids 0..7 and a walk over them that counts what it is
// asked for and what it joins. The source answers every single-id span and
// the spans in `answered`.
struct CountingWalk {
  std::vector<PartitionSample> leaves;
  std::vector<uint64_t> ids;
  std::map<std::pair<size_t, size_t>, MergeTreeSample> answered;
  std::vector<std::pair<size_t, size_t>> asked;   // (offset, size)
  std::map<std::pair<size_t, size_t>, MergeTreeSample> merged;
  int merged_calls = 0;

  CountingWalk() {
    for (int p = 0; p < 8; ++p) {
      leaves.push_back(
          SampleHr(256, Range(p * 1000, (p + 1) * 1000), 80 + p));
      ids.push_back(static_cast<uint64_t>(p));
    }
  }

  Result<MergeTreeSample> Run() {
    const MergeTreeKey key{/*seed=*/7, kMergeAllDataset,
                           MergeOptionsFingerprint(Opts(256))};
    return WalkMergeTree(
        key, Opts(256), ids,
        [this](std::span<const uint64_t> span,
               size_t offset) -> Result<MergeTreeSample> {
          asked.emplace_back(offset, span.size());
          if (span.size() == 1) {
            return std::make_shared<const PartitionSample>(leaves[offset]);
          }
          const auto it = answered.find({offset, span.size()});
          return it != answered.end() ? it->second : MergeTreeSample();
        },
        [this](std::span<const uint64_t> span, const MergeTreeSample& node) {
          ++merged_calls;
          merged[{static_cast<size_t>(span[0]), span.size()}] = node;
        });
  }
};

TEST(MergeTreeWalkTest, OnMergedFiresOncePerJoinedNode) {
  CountingWalk walk;
  const auto root = walk.Run();
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  // Eight leaves join in seven nodes, each reported once; the source is
  // asked for every node of the tree once.
  EXPECT_EQ(walk.merged_calls, 7);
  EXPECT_EQ(walk.merged.size(), 7u);
  EXPECT_EQ(walk.asked.size(), 15u);
  EXPECT_EQ(walk.merged.at({0, 8}), root.value());
  // MergeAll walks the same tree.
  std::vector<const PartitionSample*> pointers;
  for (const auto& s : walk.leaves) pointers.push_back(&s);
  const auto all = MergeAll(pointers, Opts(256), /*seed=*/7);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(Bytes(all.value()), Bytes(*root.value()));
}

TEST(MergeTreeWalkTest, AnsweredSpanIsNotDescended) {
  CountingWalk first;
  const auto full = first.Run();
  ASSERT_TRUE(full.ok());

  // The left half answered whole, as a memo hit or a pushed-down span is.
  CountingWalk walk;
  walk.answered[{0, 4}] = first.merged.at({0, 4});
  const auto root = walk.Run();
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  for (const auto& [offset, size] : walk.asked) {
    EXPECT_FALSE(offset < 4 && size < 4)
        << "asked for span at " << offset << " of " << size;
  }
  // The root, the answered half, and the right half's 3 nodes and 4 leaves.
  EXPECT_EQ(walk.asked.size(), 9u);
  // Joined: the right half's 3 nodes and the root.
  EXPECT_EQ(walk.merged_calls, 4);
  EXPECT_EQ(Bytes(*root.value()), Bytes(*full.value()));
}

TEST(MergeTreeWalkTest, UnansweredLeafAndSourceErrorsFail) {
  const std::vector<uint64_t> ids = {4, 9};
  const MergeTreeKey key{/*seed=*/1, "ds", MergeOptionsFingerprint(Opts(256))};
  const auto declines = [](std::span<const uint64_t>,
                           size_t) -> Result<MergeTreeSample> {
    return MergeTreeSample();
  };
  EXPECT_FALSE(WalkMergeTree(key, Opts(256), ids, declines).ok());
  const auto fails = [](std::span<const uint64_t>,
                        size_t) -> Result<MergeTreeSample> {
    return Status::Unavailable("node down");
  };
  const auto failed = WalkMergeTree(key, Opts(256), ids, fails);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsUnavailable());
  EXPECT_FALSE(WalkMergeTree(key, Opts(256), {}, declines).ok());
}

TEST(MergeDisjointValueCoverage, MergedValuesComeFromBothParents) {
  int saw_left = 0;
  int saw_right = 0;
  for (int t = 0; t < 50; ++t) {
    const PartitionSample s1 = SampleHr(256, Range(0, 2000), 80 + t);
    const PartitionSample s2 = SampleHr(256, Range(2000, 4000), 180 + t);
    Pcg64 rng(280 + t);
    const auto merged = HRMerge(s1, s2, Opts(256), rng);
    ASSERT_TRUE(merged.ok());
    merged.value().histogram().ForEach([&](Value v, uint64_t) {
      if (v < 2000) {
        ++saw_left;
      } else {
        ++saw_right;
      }
    });
  }
  EXPECT_GT(saw_left, 0);
  EXPECT_GT(saw_right, 0);
}

}  // namespace
}  // namespace sampwh
