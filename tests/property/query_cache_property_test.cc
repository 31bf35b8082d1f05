// Property tests of the query-path caching contract: caches must be
// semantically invisible. Every query result is a pure function of
// (warehouse seed, dataset content, partition-id set, merge options) — so
// cold, warm and post-invalidation runs are byte-for-byte identical, across
// backends and across independently built warehouses, and a warehouse
// without the merge memo or the sample cache returns the same bytes as one
// with both.

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/serialization.h"
#include "src/warehouse/sample_store.h"
#include "src/warehouse/warehouse.h"

namespace sampwh {
namespace {

std::vector<Value> Range(Value begin, Value end) {
  std::vector<Value> out;
  for (Value v = begin; v < end; ++v) out.push_back(v);
  return out;
}

std::string Bytes(const PartitionSample& sample) {
  BinaryWriter writer;
  sample.SerializeTo(&writer);
  return writer.Release();
}

WarehouseOptions MemoOptions(uint64_t seed) {
  WarehouseOptions options;
  options.sampler.kind = SamplerKind::kHybridReservoir;
  options.sampler.footprint_bound_bytes = 512;
  options.sample_cache_bytes = 8ull << 20;
  options.merge_memo_bytes = 8ull << 20;
  options.seed = seed;
  return options;
}

/// A warehouse over either backend, with the file backend rooted in a
/// per-instance temp directory that dies with the fixture.
class BackedWarehouse {
 public:
  BackedWarehouse(const WarehouseOptions& options, bool file_backend,
                  const std::string& tag) {
    if (file_backend) {
      dir_ = (std::filesystem::temp_directory_path() /
              ("sampwh_qcache_prop_" + tag))
                 .string();
      std::filesystem::remove_all(dir_);
      auto store = FileSampleStore::Open(dir_);
      EXPECT_TRUE(store.ok());
      warehouse_ =
          std::make_unique<Warehouse>(options, std::move(store).value());
    } else {
      warehouse_ = std::make_unique<Warehouse>(options);
    }
  }

  ~BackedWarehouse() {
    warehouse_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  Warehouse& operator*() { return *warehouse_; }
  Warehouse* operator->() { return warehouse_.get(); }

 private:
  std::unique_ptr<Warehouse> warehouse_;
  std::string dir_;
};

constexpr uint64_t kPartitions = 12;

void Ingest(Warehouse& wh) {
  ASSERT_TRUE(wh.CreateDataset("ds").ok());
  ASSERT_TRUE(wh.IngestBatch("ds", Range(0, 24000), kPartitions).ok());
}

TEST(QueryCachePropertyTest, MemoizedQueriesAreBitIdenticalColdWarmAndReCold) {
  for (const bool file_backend : {false, true}) {
    for (const uint64_t seed : {7u, 20060403u}) {
      BackedWarehouse wh(MemoOptions(seed), file_backend,
                         "identity_" + std::to_string(seed));
      Ingest(*wh);
      const std::vector<PartitionId> subset = {2, 3, 5, 8};

      const auto cold_all = wh->MergedSampleAll("ds");
      const auto cold_sub = wh->MergedSample("ds", subset);
      ASSERT_TRUE(cold_all.ok());
      ASSERT_TRUE(cold_sub.ok());

      // Warm: served from the memo.
      const auto warm_all = wh->MergedSampleAll("ds");
      const auto warm_sub = wh->MergedSample("ds", subset);
      ASSERT_TRUE(warm_all.ok());
      ASSERT_TRUE(warm_sub.ok());
      EXPECT_EQ(Bytes(warm_all.value()), Bytes(cold_all.value()));
      EXPECT_EQ(Bytes(warm_sub.value()), Bytes(cold_sub.value()));

      // Re-cold: recomputed from the store after dropping every cache.
      wh->InvalidateCaches();
      const auto recold_all = wh->MergedSampleAll("ds");
      const auto recold_sub = wh->MergedSample("ds", subset);
      ASSERT_TRUE(recold_all.ok());
      ASSERT_TRUE(recold_sub.ok());
      EXPECT_EQ(Bytes(recold_all.value()), Bytes(cold_all.value()))
          << "backend=" << (file_backend ? "file" : "mem") << " seed=" << seed;
      EXPECT_EQ(Bytes(recold_sub.value()), Bytes(cold_sub.value()));

      // Permuted id list: canonicalization makes it the same query.
      const auto permuted = wh->MergedSample("ds", {8, 2, 5, 3});
      ASSERT_TRUE(permuted.ok());
      EXPECT_EQ(Bytes(permuted.value()), Bytes(cold_sub.value()));
    }
  }
}

TEST(QueryCachePropertyTest, MemoizedQueriesAgreeAcrossReplaysAndBackends) {
  // Two independently constructed warehouses — different backend, no
  // shared cache state — produce the same bytes for the same query,
  // because node RNG streams derive from query identity alone.
  BackedWarehouse mem(MemoOptions(42), false, "replay_mem");
  BackedWarehouse file(MemoOptions(42), true, "replay_file");
  Ingest(*mem);
  Ingest(*file);
  const auto from_mem = mem->MergedSampleAll("ds");
  const auto from_file = file->MergedSampleAll("ds");
  ASSERT_TRUE(from_mem.ok());
  ASSERT_TRUE(from_file.ok());
  EXPECT_EQ(Bytes(from_mem.value()), Bytes(from_file.value()));

  // ...and warm-vs-fresh: a warehouse that has served the query before
  // agrees with one that never has.
  const auto warm = mem->MergedSample("ds", {0, 1, 2});
  const auto fresh = file->MergedSample("ds", {0, 1, 2});
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(Bytes(warm.value()), Bytes(fresh.value()));
}

TEST(QueryCachePropertyTest, MemoOffMatchesMemoOnByteForByte) {
  // Three warehouses differing only in their caches — merge memo and
  // sample cache, sample cache alone, neither — driven through the
  // identical call sequence, repeats and a roll-out included, match call
  // for call: the caches change where bytes come from, never the bytes.
  for (const uint64_t seed : {3u, 99u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const WarehouseOptions memo_options = MemoOptions(seed);
    WarehouseOptions no_memo_options = memo_options;
    no_memo_options.merge_memo_bytes = 0;
    WarehouseOptions bare_options = no_memo_options;
    bare_options.sample_cache_bytes = 0;
    BackedWarehouse memo(memo_options, false,
                         "memo_on_" + std::to_string(seed));
    BackedWarehouse no_memo(no_memo_options, false,
                            "memo_off_" + std::to_string(seed));
    BackedWarehouse bare(bare_options, false,
                         "memo_bare_" + std::to_string(seed));
    Ingest(*memo);
    Ingest(*no_memo);
    Ingest(*bare);
    const auto expect_same = [&](const std::vector<PartitionId>& query) {
      const auto a = memo->MergedSample("ds", query);
      const auto b = no_memo->MergedSample("ds", query);
      const auto c = bare->MergedSample("ds", query);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      ASSERT_TRUE(c.ok());
      EXPECT_EQ(Bytes(a.value()), Bytes(b.value()));
      EXPECT_EQ(Bytes(a.value()), Bytes(c.value()));
    };
    expect_same({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
    expect_same({1, 4, 7});
    expect_same({1, 4, 7});  // repeat: served warm from the memo
    expect_same({0, 11});
    // Roll-out evicts every memo node over partition 4 on the memo side.
    for (Warehouse* wh : {&*memo, &*no_memo, &*bare}) {
      ASSERT_TRUE(wh->RollOut("ds", 4).ok());
    }
    expect_same({0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11});
    expect_same({1, 7});
    expect_same({11, 7, 1});
  }
}

TEST(QueryCachePropertyTest, GetSampleIsBitIdenticalThroughTheCache) {
  for (const bool file_backend : {false, true}) {
    BackedWarehouse cached(MemoOptions(5), file_backend, "get_cached");
    WarehouseOptions raw_options = MemoOptions(5);
    raw_options.sample_cache_bytes = 0;
    raw_options.merge_memo_bytes = 0;
    BackedWarehouse raw(raw_options, file_backend, "get_raw");
    Ingest(*cached);
    Ingest(*raw);
    for (PartitionId id = 0; id < kPartitions; ++id) {
      const auto a = cached->GetSample("ds", id);  // warm (write-through)
      const auto b = raw->GetSample("ds", id);     // straight store read
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(Bytes(a.value()), Bytes(b.value()));
    }
    cached->InvalidateCaches();
    for (PartitionId id = 0; id < kPartitions; ++id) {
      const auto a = cached->GetSample("ds", id);  // cold: store + refill
      const auto b = raw->GetSample("ds", id);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(Bytes(a.value()), Bytes(b.value()));
    }
  }
}

}  // namespace
}  // namespace sampwh
