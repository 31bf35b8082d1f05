// Reference-model property test of the compact histogram: seeded random
// sequences of Insert, Remove, Join, JoinedFootprintBytes, FromBag, the
// codec and HistogramBuilder -> Build run side by side with a std::map
// model, and after every step the entries, total_count and
// footprint_bytes must equal the model's.

#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/compact_histogram.h"
#include "src/util/random.h"
#include "src/util/serialization.h"

namespace sampwh {
namespace {

using Model = std::map<Value, uint64_t>;

std::vector<CompactHistogram::Entry> EntriesOf(const Model& model) {
  return {model.begin(), model.end()};
}

uint64_t FootprintOf(const Model& model) {
  uint64_t footprint = 0;
  for (const auto& [v, n] : model) footprint += EntryFootprintBytes(n);
  return footprint;
}

uint64_t TotalOf(const Model& model) {
  uint64_t total = 0;
  for (const auto& [v, n] : model) total += n;
  return total;
}

void ExpectMatches(const CompactHistogram& h, const Model& model) {
  ASSERT_EQ(h.entries(), EntriesOf(model));
  ASSERT_EQ(h.total_count(), TotalOf(model));
  ASSERT_EQ(h.footprint_bytes(), FootprintOf(model));
  ASSERT_EQ(h.distinct_count(), model.size());
}

void ExpectMatches(const HistogramBuilder& b, const Model& model) {
  ASSERT_EQ(b.total_count(), TotalOf(model));
  ASSERT_EQ(b.footprint_bytes(), FootprintOf(model));
  ASSERT_EQ(b.distinct_count(), model.size());
  ExpectMatches(b.Build(), model);
}

// Values from a small domain (many repeats), a wide one, or the int64
// extremes, so appends, middle inserts and long deltas all occur.
Value DrawValue(Pcg64& rng) {
  switch (rng.UniformInt(8)) {
    case 0:
      return std::numeric_limits<Value>::min() +
             static_cast<Value>(rng.UniformInt(3));
    case 1:
      return std::numeric_limits<Value>::max() -
             static_cast<Value>(rng.UniformInt(3));
    case 2:
      return static_cast<Value>(rng.NextUint64());
    default:
      return static_cast<Value>(rng.UniformInt(64)) - 32;
  }
}

// A random histogram and its model, built by inserts in random order.
void RandomHistogram(Pcg64& rng, CompactHistogram* h, Model* model) {
  const uint64_t inserts = rng.UniformInt(40);
  for (uint64_t i = 0; i < inserts; ++i) {
    const Value v = DrawValue(rng);
    const uint64_t n = 1 + rng.UniformInt(3);
    h->Insert(v, n);
    (*model)[v] += n;
  }
}

void RunSequence(uint64_t seed) {
  Pcg64 rng(seed);
  CompactHistogram h;
  HistogramBuilder builder;
  Model model;
  Model builder_model;
  for (int step = 0; step < 400; ++step) {
    switch (rng.UniformInt(7)) {
      case 0:
      case 1: {  // Insert into both structures
        const Value v = DrawValue(rng);
        const uint64_t n = 1 + rng.UniformInt(3);
        h.Insert(v, n);
        model[v] += n;
        builder.Insert(v, n);
        builder_model[v] += n;
        break;
      }
      case 2: {  // Remove part or all of a present value's count
        if (model.empty()) break;
        auto it = std::next(model.begin(), rng.UniformInt(model.size()));
        const uint64_t n = 1 + rng.UniformInt(it->second);
        h.Remove(it->first, n);
        ASSERT_EQ(h.CountOf(it->first), it->second - n);
        if ((it->second -= n) == 0) model.erase(it);
        break;
      }
      case 3: {  // Remove from the builder, the builder's own contents
        if (builder_model.empty()) break;
        auto it = std::next(builder_model.begin(),
                            rng.UniformInt(builder_model.size()));
        const uint64_t n = 1 + rng.UniformInt(it->second);
        builder.Remove(it->first, n);
        ASSERT_EQ(builder.CountOf(it->first), it->second - n);
        if ((it->second -= n) == 0) builder_model.erase(it);
        break;
      }
      case 4: {  // JoinedFootprintBytes predicts Join
        CompactHistogram other;
        Model other_model;
        RandomHistogram(rng, &other, &other_model);
        Model joined = model;
        for (const auto& [v, n] : other_model) joined[v] += n;
        ASSERT_EQ(h.JoinedFootprintBytes(other), FootprintOf(joined));
        h.Join(other);
        model = std::move(joined);
        break;
      }
      case 5: {  // FromBag of an unsorted bag
        std::vector<Value> bag;
        Model bag_model;
        const uint64_t size = rng.UniformInt(60);
        for (uint64_t i = 0; i < size; ++i) {
          bag.push_back(DrawValue(rng));
          ++bag_model[bag.back()];
        }
        ExpectMatches(CompactHistogram::FromBag(bag), bag_model);
        break;
      }
      case 6: {  // Codec round trip, and the builder seeded from h
        BinaryWriter w;
        h.SerializeTo(&w);
        BinaryReader r(w.buffer());
        const auto decoded = CompactHistogram::DeserializeFrom(&r);
        ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
        ASSERT_TRUE(r.AtEnd());
        ExpectMatches(decoded.value(), model);
        ExpectMatches(HistogramBuilder(h), model);
        break;
      }
    }
    ExpectMatches(h, model);
    ExpectMatches(builder, builder_model);
  }
}

TEST(HistogramModelTest, RandomOperationSequencesMatchMapModel) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    RunSequence(seed);
    if (HasFatalFailure()) return;
  }
}

TEST(HistogramModelTest, BuilderSurvivesGrowthAndHeavyDeletion) {
  // Thousands of distinct values force several rehashes; deleting most of
  // them exercises backward-shift deletion across long probe runs.
  Pcg64 rng(77);
  HistogramBuilder builder;
  Model model;
  for (int i = 0; i < 5000; ++i) {
    const Value v = static_cast<Value>(rng.UniformInt(3000)) * 1024;
    builder.Insert(v);
    ++model[v];
  }
  ExpectMatches(builder, model);
  for (auto it = model.begin(); it != model.end();) {
    if (rng.Bernoulli(0.8)) {
      builder.Remove(it->first, it->second);
      it = model.erase(it);
    } else {
      ++it;
    }
  }
  ExpectMatches(builder, model);
  for (const auto& [v, n] : model) ASSERT_EQ(builder.CountOf(v), n);
  ASSERT_EQ(builder.CountOf(1), 0u);
}

}  // namespace
}  // namespace sampwh
