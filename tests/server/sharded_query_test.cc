// Sharded-query exactness battery. The distributed contract under test:
// a ShardCoordinator querying partitions spread across 1, 2 or 4 warehouse
// server nodes returns merged samples BIT-IDENTICAL to a single embedded
// warehouse holding every partition under the same seed and merge options
// — for full unions and for random partition subsets, before and after
// roll-outs. A chi-square gate then checks that distribution does not just
// preserve determinism but the sampling law itself: merged subsets drawn
// through fresh 2-node deployments stay exactly uniform over the
// population, trial-seeded exactly like the warm-path uniformity suite.

#include "src/server/coordinator.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/types.h"
#include "src/stats/uniformity.h"
#include "src/warehouse/warehouse.h"
#include "tests/server/server_test_util.h"

namespace sampwh {
namespace {

constexpr uint64_t kSeed = 0x5157313136ULL;

struct Deployment {
  std::vector<std::unique_ptr<WarehouseServer>> servers;
  std::unique_ptr<ShardCoordinator> coordinator;
};

/// Starts `num_nodes` servers plus a coordinator, all under one seed and
/// one merge footprint bound — the deployment-owned invariants the
/// exactness contract requires. `node_memo_bytes` sizes each node's merge
/// memo, a cache that must not change any answer.
Deployment MakeDeployment(size_t num_nodes, uint64_t seed,
                          uint64_t merge_bound_bytes,
                          uint64_t node_memo_bytes = 4u << 20) {
  Deployment d;
  std::vector<ShardNodeAddress> nodes;
  for (size_t i = 0; i < num_nodes; ++i) {
    ServerOptions options = TestServerOptions(seed);
    options.warehouse.merge.footprint_bound_bytes = merge_bound_bytes;
    options.warehouse.merge_memo_bytes = node_memo_bytes;
    auto server = MustStart(std::move(options));
    if (server == nullptr) return {};
    nodes.push_back({server->host(), server->port()});
    d.servers.push_back(std::move(server));
  }
  CoordinatorOptions options;
  options.seed = seed;
  options.merge.footprint_bound_bytes = merge_bound_bytes;
  auto coordinator = ShardCoordinator::Connect(nodes, options);
  if (!coordinator.ok()) {
    ADD_FAILURE() << "coordinator: " << coordinator.status().ToString();
    return {};
  }
  d.coordinator = std::move(coordinator).value();
  return d;
}

TEST(ShardedQueryTest, BitIdenticalToSingleNodeAcrossNodeCounts) {
  constexpr uint64_t kPartitions = 9;
  constexpr uint64_t kBound = 4 * kSingletonFootprintBytes;

  // Nodes with and without a merge memo; the reference always has one.
  for (const uint64_t node_memo_bytes : {uint64_t{4} << 20, uint64_t{0}}) {
    for (const size_t num_nodes : {1u, 2u, 4u}) {
      SCOPED_TRACE("num_nodes=" + std::to_string(num_nodes) +
                   " node_memo_bytes=" + std::to_string(node_memo_bytes));
      Deployment d = MakeDeployment(num_nodes, kSeed, kBound, node_memo_bytes);
      ASSERT_NE(d.coordinator, nullptr);
      ShardCoordinator& coord = *d.coordinator;
      ASSERT_TRUE(coord.CreateTenant("acme", {}).ok());
      ASSERT_TRUE(coord.CreateDataset("acme", "sales").ok());

      // The single-node reference: one warehouse, same seed and merge
      // options, holding every partition under the internal tenant key.
      ServerOptions reference_options = TestServerOptions(kSeed);
      reference_options.warehouse.merge.footprint_bound_bytes = kBound;
      Warehouse reference(reference_options.warehouse);
      ASSERT_TRUE(reference.CreateDataset("acme.sales").ok());

      std::vector<PartitionId> ids;
      for (uint64_t p = 0; p < kPartitions; ++p) {
        const PartitionSample sample =
            MakeReservoirSample(static_cast<Value>(p) * 100, 6);
        auto id = coord.RollIn("acme", "sales", sample, p, p);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        auto placed =
            reference.RollInAt("acme.sales", id.value(), sample, p, p);
        ASSERT_TRUE(placed.ok()) << placed.status().ToString();
        ids.push_back(id.value());
      }
      ASSERT_EQ(coord.ListAllPartitions("acme", "sales").value(), ids);

      if (num_nodes == 4) {
        // The placement must actually spread: a degenerate all-on-one-shard
        // layout would never exercise the coordinator's local joins.
        std::vector<bool> owns(num_nodes, false);
        for (const PartitionId id : ids) {
          owns[coord.ShardOf("acme", "sales", id)] = true;
        }
        EXPECT_GE(std::count(owns.begin(), owns.end(), true), 2);
      }

      // Full union.
      auto distributed = coord.Query("acme", "sales");
      ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();
      auto local = reference.MergedSampleAll("acme.sales");
      ASSERT_TRUE(local.ok());
      EXPECT_EQ(SampleBytes(distributed.value()), SampleBytes(local.value()));

      // Random subsets, unsorted on purpose: both sides canonicalize.
      Pcg64 rng(kSeed ^ num_nodes);
      for (int trial = 0; trial < 25; ++trial) {
        std::vector<PartitionId> subset;
        for (const PartitionId id : ids) {
          if (rng.NextUint64() % 2 == 0) subset.push_back(id);
        }
        if (subset.empty()) {
          subset.push_back(ids[rng.NextUint64() % ids.size()]);
        }
        for (size_t i = subset.size(); i > 1; --i) {
          std::swap(subset[i - 1], subset[rng.NextUint64() % i]);
        }
        auto remote = coord.Query("acme", "sales", subset);
        ASSERT_TRUE(remote.ok()) << remote.status().ToString();
        auto expect = reference.MergedSample("acme.sales", subset);
        ASSERT_TRUE(expect.ok());
        EXPECT_EQ(SampleBytes(remote.value()), SampleBytes(expect.value()))
            << "subset trial " << trial;
      }

      // Roll-out shrinks the id set; the contract must hold on the remainder.
      ASSERT_TRUE(coord.RollOut("acme", "sales", ids[3]).ok());
      ASSERT_TRUE(reference.RollOut("acme.sales", ids[3]).ok());
      auto after = coord.Query("acme", "sales");
      ASSERT_TRUE(after.ok());
      EXPECT_EQ(SampleBytes(after.value()),
                SampleBytes(reference.MergedSampleAll("acme.sales").value()));
    }
  }
}

TEST(ShardedQueryTest, PlacementIsStableAndUnionsAreComplete) {
  Deployment d = MakeDeployment(4, kSeed, 4 * kSingletonFootprintBytes);
  ASSERT_NE(d.coordinator, nullptr);
  ShardCoordinator& coord = *d.coordinator;
  ASSERT_TRUE(coord.CreateTenant("acme", {}).ok());
  ASSERT_TRUE(coord.CreateDataset("acme", "sales").ok());
  std::vector<PartitionId> ids;
  for (uint64_t p = 0; p < 12; ++p) {
    auto id = coord.RollIn("acme", "sales",
                           MakeReservoirSample(static_cast<Value>(p) * 10, 4));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }

  // ShardOf is a pure function: the same id always names the same home.
  for (const PartitionId id : ids) {
    EXPECT_EQ(coord.ShardOf("acme", "sales", id),
              coord.ShardOf("acme", "sales", id));
  }
  // Every partition lives on exactly the shard ShardOf names, and the
  // union over nodes recovers the full id set.
  size_t total = 0;
  for (size_t shard = 0; shard < coord.num_shards(); ++shard) {
    auto parts = coord.client(shard)->ListPartitions("acme", "sales");
    ASSERT_TRUE(parts.ok());
    total += parts.value().size();
    for (const PartitionInfo& info : parts.value()) {
      EXPECT_EQ(coord.ShardOf("acme", "sales", info.id), shard);
    }
  }
  EXPECT_EQ(total, ids.size());
  EXPECT_EQ(coord.ListAllPartitions("acme", "sales").value(), ids);
}

TEST(ShardedQueryTest, DuplicateIdsAreRejectedBeforeAnyRemoteCall) {
  Deployment d = MakeDeployment(2, kSeed, 4 * kSingletonFootprintBytes);
  ASSERT_NE(d.coordinator, nullptr);
  ShardCoordinator& coord = *d.coordinator;
  ASSERT_TRUE(coord.CreateTenant("acme", {}).ok());
  ASSERT_TRUE(coord.CreateDataset("acme", "sales").ok());
  std::vector<PartitionId> ids;
  for (uint64_t p = 0; p < 4; ++p) {
    auto id = coord.RollIn("acme", "sales",
                           MakeReservoirSample(static_cast<Value>(p) * 10, 4));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  std::vector<uint64_t> served_before;
  for (const auto& server : d.servers) {
    served_before.push_back(server->stats().requests_served);
  }
  const auto dup = coord.Query("acme", "sales", {ids[0], ids[0], ids[1]});
  EXPECT_TRUE(dup.status().IsInvalidArgument()) << dup.status().ToString();
  for (size_t i = 0; i < d.servers.size(); ++i) {
    EXPECT_EQ(d.servers[i]->stats().requests_served, served_before[i]);
  }
  // A node asked directly rejects the repeat too, instead of merging a
  // partition with itself.
  const size_t home = coord.ShardOf("acme", "sales", ids[2]);
  const auto direct =
      coord.client(home)->Query("acme", "sales", {ids[2], ids[2]});
  EXPECT_TRUE(direct.status().IsInvalidArgument())
      << direct.status().ToString();
  // The distinct set still answers, over every partition exactly once.
  const auto all = coord.Query("acme", "sales", {ids[1], ids[0], ids[2]});
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all.value().parent_size(), 12u);
}

// --- The deployment contract, checked at Connect ---------------------------

/// Connects a coordinator under (kSeed, `bound`) to two nodes, the second
/// of which runs `odd`; returns Connect's status.
Status ConnectBesideOddNode(uint64_t bound, ServerOptions odd) {
  ServerOptions same = TestServerOptions(kSeed);
  same.warehouse.merge.footprint_bound_bytes = bound;
  auto first = MustStart(std::move(same));
  auto second = MustStart(std::move(odd));
  if (first == nullptr || second == nullptr) {
    return Status::Internal("server did not start");
  }
  CoordinatorOptions options;
  options.seed = kSeed;
  options.merge.footprint_bound_bytes = bound;
  const auto coordinator = ShardCoordinator::Connect(
      {{first->host(), first->port()}, {second->host(), second->port()}},
      options);
  if (coordinator.ok()) return Status::OK();
  const std::string node = ":" + std::to_string(second->port());
  EXPECT_NE(coordinator.status().message().find(node), std::string::npos)
      << coordinator.status().ToString();
  return coordinator.status();
}

TEST(ShardedQueryTest, ConnectRefusesNodeWithOtherSeed) {
  constexpr uint64_t kBound = 4 * kSingletonFootprintBytes;
  ServerOptions odd = TestServerOptions(kSeed + 1);
  odd.warehouse.merge.footprint_bound_bytes = kBound;
  const Status st = ConnectBesideOddNode(kBound, std::move(odd));
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
}

TEST(ShardedQueryTest, ConnectRefusesNodeWithOtherMergeBound) {
  constexpr uint64_t kBound = 4 * kSingletonFootprintBytes;
  ServerOptions odd = TestServerOptions(kSeed);
  odd.warehouse.merge.footprint_bound_bytes = 2 * kBound;
  const Status st = ConnectBesideOddNode(kBound, std::move(odd));
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
}

// --- Uniformity gate --------------------------------------------------------

constexpr uint64_t kUniformPartitions = 4;
constexpr uint64_t kValuesPerPartition = 2;
constexpr uint64_t kUniformityTrials = 1200;
constexpr double kAlpha = 1e-4;

/// One trial: a fresh trial-seeded 2-node deployment holding 4 reservoir
/// partitions of two values each, queried through the coordinator under a
/// merge bound of 2 singletons — an SRS of size 2 from the 8 stored
/// values. Returns the drawn values.
std::vector<Value> RunShardedTrial(Pcg64& trial_rng) {
  const uint64_t seed = trial_rng.NextUint64();
  Deployment d =
      MakeDeployment(2, seed, kValuesPerPartition * kSingletonFootprintBytes);
  if (d.coordinator == nullptr) return {};
  ShardCoordinator& coord = *d.coordinator;
  EXPECT_TRUE(coord.CreateTenant("t", {}).ok());
  EXPECT_TRUE(coord.CreateDataset("t", "w").ok());
  for (uint64_t p = 0; p < kUniformPartitions; ++p) {
    EXPECT_TRUE(
        coord
            .RollIn("t", "w",
                    MakeReservoirSample(
                        static_cast<Value>(p * kValuesPerPartition),
                        kValuesPerPartition))
            .ok());
  }
  auto merged = coord.Query("t", "w");
  EXPECT_TRUE(merged.ok()) << merged.status().ToString();
  if (!merged.ok()) return {};
  return merged.value().histogram().ToBag();
}

TEST(ShardedQueryProperty, DistributedMergesAreExactlyUniform) {
  std::vector<Value> population;
  for (uint64_t v = 0; v < kUniformPartitions * kValuesPerPartition; ++v) {
    population.push_back(static_cast<Value>(v));
  }
  Pcg64 rng(0x5EEDD157ULL);
  const UniformityReport report = RunSubsetUniformityExperiment(
      population, kUniformityTrials,
      [](Pcg64& trial_rng) { return RunShardedTrial(trial_rng); }, rng);
  ASSERT_GE(report.TestedClasses(), 1u);
  // The merge bound pins every draw at size 2: one class over C(8,2) = 28.
  const SizeClassResult& pinned = report.by_size.at(2);
  EXPECT_EQ(pinned.trials, kUniformityTrials);
  EXPECT_EQ(pinned.num_subsets, 28u);
  EXPECT_GT(report.MinPValue(), kAlpha);
}

}  // namespace
}  // namespace sampwh
