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
/// memo, a cache that must not change any answer. A replicated deployment
/// (`replication_factor` > 1) fails fast on a stopped node.
Deployment MakeDeployment(size_t num_nodes, uint64_t seed,
                          uint64_t merge_bound_bytes,
                          uint64_t node_memo_bytes = 4u << 20,
                          uint32_t replication_factor = 1) {
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
  options.replication_factor = replication_factor;
  if (replication_factor > 1) {
    options.client.connect_timeout_millis = 1'000;
    options.client.read_timeout_millis = 2'000;
    options.client.max_retries = 1;
    options.client.backoff_initial_millis = 5;
    options.client.backoff_max_millis = 20;
    options.client.breaker_failure_threshold = 2;
    options.client.breaker_open_millis = 250;
  }
  auto coordinator = ShardCoordinator::Connect(nodes, options);
  if (!coordinator.ok()) {
    ADD_FAILURE() << "coordinator: " << coordinator.status().ToString();
    return {};
  }
  d.coordinator = std::move(coordinator).value();
  return d;
}

/// Requests served by every server of `d` so far.
uint64_t RequestsServed(const Deployment& d) {
  uint64_t served = 0;
  for (const auto& server : d.servers) {
    served += server->stats().requests_served;
  }
  return served;
}

/// The single-node reference for a deployment under (kSeed, `bound`): one
/// warehouse holding every partition under the internal tenant key.
std::unique_ptr<Warehouse> MakeReference(uint64_t bound) {
  ServerOptions options = TestServerOptions(kSeed);
  options.warehouse.merge.footprint_bound_bytes = bound;
  auto reference = std::make_unique<Warehouse>(options.warehouse);
  EXPECT_TRUE(reference->CreateDataset("acme.sales").ok());
  return reference;
}

/// Creates acme.sales through `coord` and rolls `count` partitions in,
/// mirroring each into `reference`. Returns the ids.
std::vector<PartitionId> RollInMirrored(ShardCoordinator& coord,
                                        Warehouse& reference,
                                        uint64_t count) {
  EXPECT_TRUE(coord.CreateTenant("acme", {}).ok());
  EXPECT_TRUE(coord.CreateDataset("acme", "sales").ok());
  std::vector<PartitionId> ids;
  for (uint64_t p = 0; p < count; ++p) {
    const PartitionSample sample =
        MakeReservoirSample(static_cast<Value>(p) * 100, 6);
    auto id = coord.RollIn("acme", "sales", sample, p, p);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    if (!id.ok()) return {};
    EXPECT_TRUE(
        reference.RollInAt("acme.sales", id.value(), sample, p, p).ok());
    ids.push_back(id.value());
  }
  return ids;
}

/// A non-empty random subset of `ids`, sorted.
std::vector<PartitionId> RandomSubset(const std::vector<PartitionId>& ids,
                                      Pcg64& rng) {
  std::vector<PartitionId> subset;
  for (const PartitionId id : ids) {
    if (rng.NextUint64() % 2 == 0) subset.push_back(id);
  }
  if (subset.empty()) subset.push_back(ids[rng.NextUint64() % ids.size()]);
  return subset;
}

/// Queries `subset` strictly through `coord` and expects the bytes the
/// reference answers.
void ExpectExact(ShardCoordinator& coord, Warehouse& reference,
                 const std::vector<PartitionId>& subset) {
  auto remote = coord.Query("acme", "sales", subset);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  auto expect = reference.MergedSample("acme.sales", subset);
  ASSERT_TRUE(expect.ok());
  EXPECT_EQ(SampleBytes(remote.value()), SampleBytes(expect.value()));
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

// --- Replicated deployments: a span goes to a node owning all its ids ----

TEST(ShardedQueryTest, ReplicatedQueryIsOneRemoteCall) {
  constexpr uint64_t kBound = 4 * kSingletonFootprintBytes;
  Deployment d = MakeDeployment(2, kSeed, kBound, 4u << 20,
                                /*replication_factor=*/2);
  ASSERT_NE(d.coordinator, nullptr);
  ShardCoordinator& coord = *d.coordinator;
  const auto reference = MakeReference(kBound);
  const std::vector<PartitionId> ids = RollInMirrored(coord, *reference, 12);
  ASSERT_EQ(ids.size(), 12u);

  // Both nodes are primary for some ids, so the set has no one primary.
  std::vector<bool> primary(coord.num_shards(), false);
  for (const PartitionId id : ids) {
    primary[coord.ShardOf("acme", "sales", id)] = true;
  }
  ASSERT_EQ(std::count(primary.begin(), primary.end(), true), 2);

  // Each node holds every id, so a healthy query is one remote call.
  Pcg64 rng(kSeed ^ 0x0e1ull);
  for (int trial = 0; trial < 12; ++trial) {
    const std::vector<PartitionId> subset =
        trial == 0 ? ids : RandomSubset(ids, rng);
    SCOPED_TRACE("trial " + std::to_string(trial));
    const uint64_t before = RequestsServed(d);
    ASSERT_NO_FATAL_FAILURE(ExpectExact(coord, *reference, subset));
    EXPECT_EQ(RequestsServed(d) - before, 1u);
  }
  EXPECT_EQ(coord.stats().failover_reads, 0u);
}

TEST(ShardedQueryTest, StrictQueryServesAroundAReplicaThatLacksACopy) {
  constexpr uint64_t kBound = 4 * kSingletonFootprintBytes;
  Deployment d = MakeDeployment(2, kSeed, kBound, 4u << 20,
                                /*replication_factor=*/2);
  ASSERT_NE(d.coordinator, nullptr);
  ShardCoordinator& coord = *d.coordinator;
  const auto reference = MakeReference(kBound);
  const std::vector<PartitionId> ids = RollInMirrored(coord, *reference, 12);
  ASSERT_EQ(ids.size(), 12u);

  // The whole query goes first to the primary of its first id. Take from
  // that node its replica copy of an id another node is primary for.
  const size_t first = coord.ShardOf("acme", "sales", ids[0]);
  const auto victim =
      std::find_if(ids.begin(), ids.end(), [&](PartitionId id) {
        return coord.ShardOf("acme", "sales", id) != first;
      });
  ASSERT_NE(victim, ids.end());
  ASSERT_TRUE(coord.client(first)->RollOut("acme", "sales", *victim).ok());
  ASSERT_NO_FATAL_FAILURE(ExpectExact(coord, *reference, ids));
  EXPECT_GT(coord.stats().failover_reads, 0u);

  // With a copy missing on each node, no node owns every id: the query is
  // split until each span has an owner that holds it.
  const size_t other = coord.ShardOf("acme", "sales", *victim);
  const auto second =
      std::find_if(ids.begin(), ids.end(), [&](PartitionId id) {
        return coord.ShardOf("acme", "sales", id) == first;
      });
  ASSERT_NE(second, ids.end());
  ASSERT_TRUE(coord.client(other)->RollOut("acme", "sales", *second).ok());
  Pcg64 rng(kSeed ^ 0x1ac4ull);
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    ASSERT_NO_FATAL_FAILURE(ExpectExact(
        coord, *reference, trial == 0 ? ids : RandomSubset(ids, rng)));
  }
}

TEST(ShardedQueryTest, SeededSweepOverReplicatedDeployments) {
  constexpr uint64_t kBound = 4 * kSingletonFootprintBytes;
  for (const uint32_t r : {2u, 3u}) {
    for (const size_t num_nodes : {3u, 4u, 5u}) {
      // One fresh deployment per stopped node, and one with none stopped.
      for (size_t stopped = 0; stopped <= num_nodes; ++stopped) {
        SCOPED_TRACE("r=" + std::to_string(r) +
                     " num_nodes=" + std::to_string(num_nodes) +
                     " stopped=" + std::to_string(stopped));
        Deployment d = MakeDeployment(num_nodes, kSeed, kBound, 4u << 20, r);
        ASSERT_NE(d.coordinator, nullptr);
        ShardCoordinator& coord = *d.coordinator;
        const auto reference = MakeReference(kBound);
        const std::vector<PartitionId> ids =
            RollInMirrored(coord, *reference, 10);
        ASSERT_EQ(ids.size(), 10u);
        if (stopped < num_nodes) d.servers[stopped]->Stop();
        Pcg64 rng(kSeed ^ (r * 100 + num_nodes * 10 + stopped));
        for (int trial = 0; trial < 8; ++trial) {
          SCOPED_TRACE("trial " + std::to_string(trial));
          ASSERT_NO_FATAL_FAILURE(ExpectExact(
              coord, *reference, trial == 0 ? ids : RandomSubset(ids, rng)));
        }
      }
    }
  }
}

// --- The deployment contract, checked on a lazily opened node's first use --

TEST(ShardedQueryTest, LazilyOpenedNodeWithOtherSeedIsNeverUsed) {
  constexpr uint64_t kBound = 4 * kSingletonFootprintBytes;
  ServerOptions same = TestServerOptions(kSeed);
  same.warehouse.merge.footprint_bound_bytes = kBound;
  ServerOptions odd = TestServerOptions(kSeed + 1);
  odd.warehouse.merge.footprint_bound_bytes = kBound;
  Deployment d;
  d.servers.push_back(MustStart(std::move(same)));
  d.servers.push_back(MustStart(std::move(odd)));
  ASSERT_NE(d.servers[0], nullptr);
  ASSERT_NE(d.servers[1], nullptr);

  // Both nodes hold identical copies of every id, written directly: only
  // the odd node's seed differs.
  const auto reference = MakeReference(kBound);
  std::vector<PartitionId> ids;
  for (const auto& server : d.servers) {
    auto client = MustConnect(*server);
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->CreateTenant("acme", {}).ok());
    ASSERT_TRUE(client->CreateDataset("acme", "sales").ok());
    for (uint64_t p = 0; p < 12; ++p) {
      const PartitionSample sample =
          MakeReservoirSample(static_cast<Value>(p) * 100, 6);
      ASSERT_TRUE(client->RollInAt("acme", "sales", p, sample, p, p).ok());
      if (server == d.servers[0]) {
        ASSERT_TRUE(reference->RollInAt("acme.sales", p, sample, p, p).ok());
        ids.push_back(p);
      }
    }
  }

  CoordinatorOptions options;
  options.seed = kSeed;
  options.merge.footprint_bound_bytes = kBound;
  options.tolerate_unreachable = true;
  options.replication_factor = 2;
  auto connected = ShardCoordinator::Connect(
      {{d.servers[0]->host(), d.servers[0]->port()},
       {d.servers[1]->host(), d.servers[1]->port()}},
      options);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  ShardCoordinator& coord = *connected.value();
  const uint64_t odd_served = d.servers[1]->stats().requests_served;

  // Every answer comes from the node that runs the coordinator's seed.
  Pcg64 rng(kSeed ^ 0x1a2ull);
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    ASSERT_NO_FATAL_FAILURE(ExpectExact(
        coord, *reference, trial == 0 ? ids : RandomSubset(ids, rng)));
  }
  // No write lands: one the odd node would be primary for is refused
  // before any copy exists, and one it would hold a replica of misses the
  // write quorum and is rolled back.
  const PartitionSample extra = MakeReservoirSample(5000, 6);
  for (int attempt = 0; attempt < 4; ++attempt) {
    EXPECT_FALSE(coord.RollIn("acme", "sales", extra).ok());
  }
  EXPECT_EQ(coord.ListAllPartitions("acme", "sales").value(), ids);
  EXPECT_EQ(coord.CheckHealth(), (std::vector<bool>{true, false}));

  // The odd node saw one request from the coordinator: the ping that
  // refused it.
  EXPECT_EQ(d.servers[1]->stats().requests_served - odd_served, 1u);
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
