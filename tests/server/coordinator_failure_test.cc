// Coordinator error-path battery: a sharded deployment losing nodes at
// startup, mid-query and across restarts. The degraded-operation contract
// under test: with allow_partial, the coordinator answers from the
// surviving shards, flags the result partial with the missing shards (and
// missing ids, for explicit-id queries) — and the partial answer is
// BIT-IDENTICAL to a single-node reference warehouse queried over exactly
// the surviving id set. After the dead node restarts on its old port from
// its durable store, strict queries return full exact answers again.

#include "src/server/coordinator.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/types.h"
#include "src/warehouse/warehouse.h"
#include "tests/server/server_test_util.h"

namespace sampwh {
namespace {

constexpr uint64_t kSeed = 0x5157313136ULL;
constexpr uint64_t kBound = 4 * kSingletonFootprintBytes;
constexpr uint64_t kPartitions = 12;

ServerOptions NodeOptions(const std::string& store_dir) {
  ServerOptions options = TestServerOptions(kSeed);
  options.warehouse.merge.footprint_bound_bytes = kBound;
  options.store_directory = store_dir;
  return options;
}

/// Client knobs that keep failure detection fast: one retry, short
/// timeouts, a 2-failure breaker with a short open window.
ClientOptions FastFailClientOptions() {
  ClientOptions options;
  options.connect_timeout_millis = 1'000;
  options.read_timeout_millis = 2'000;
  options.max_retries = 1;
  options.backoff_initial_millis = 5;
  options.backoff_max_millis = 20;
  options.breaker_failure_threshold = 2;
  options.breaker_open_millis = 250;
  return options;
}

CoordinatorOptions TolerantCoordinatorOptions() {
  CoordinatorOptions options;
  options.seed = kSeed;
  options.merge.footprint_bound_bytes = kBound;
  options.client = FastFailClientOptions();
  options.tolerate_unreachable = true;
  return options;
}

struct Fixture {
  std::vector<ScopedTempDir> dirs;
  std::vector<ShardNodeAddress> nodes;
  std::vector<std::unique_ptr<WarehouseServer>> servers;
  std::unique_ptr<ShardCoordinator> coordinator;
  std::unique_ptr<Warehouse> reference;
  std::vector<PartitionId> ids;
};

/// Two file-backed nodes, a strict coordinator, `kPartitions` partitions
/// rolled in through it and mirrored into a single-node reference
/// warehouse under the same seed and merge options.
Fixture MakeFixture(const std::string& tag) {
  Fixture f;
  for (size_t i = 0; i < 2; ++i) {
    f.dirs.emplace_back("sampwh_coordfail_" + tag + std::to_string(i));
    auto server = MustStart(NodeOptions(f.dirs.back().path()));
    if (server == nullptr) return {};
    f.nodes.push_back({server->host(), server->port()});
    f.servers.push_back(std::move(server));
  }
  CoordinatorOptions options = TolerantCoordinatorOptions();
  options.tolerate_unreachable = false;
  auto coordinator = ShardCoordinator::Connect(f.nodes, options);
  if (!coordinator.ok()) {
    ADD_FAILURE() << "coordinator: " << coordinator.status().ToString();
    return {};
  }
  f.coordinator = std::move(coordinator).value();

  f.reference = std::make_unique<Warehouse>(NodeOptions("").warehouse);
  EXPECT_TRUE(f.coordinator->CreateTenant("acme", {}).ok());
  EXPECT_TRUE(f.coordinator->CreateDataset("acme", "sales").ok());
  EXPECT_TRUE(f.reference->CreateDataset("acme.sales").ok());
  for (uint64_t p = 0; p < kPartitions; ++p) {
    const PartitionSample sample =
        MakeReservoirSample(static_cast<Value>(p) * 100, 6);
    auto id = f.coordinator->RollIn("acme", "sales", sample, p, p);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    if (!id.ok()) return {};
    EXPECT_TRUE(
        f.reference->RollInAt("acme.sales", id.value(), sample, p, p).ok());
    f.ids.push_back(id.value());
  }
  return f;
}

/// The requested ids whose home shard is NOT in `missing`.
std::vector<PartitionId> Surviving(const ShardCoordinator& coord,
                                   const std::vector<PartitionId>& ids,
                                   const std::vector<size_t>& missing) {
  std::vector<PartitionId> out;
  for (const PartitionId id : ids) {
    if (std::find(missing.begin(), missing.end(),
                  coord.ShardOf("acme", "sales", id)) == missing.end()) {
      out.push_back(id);
    }
  }
  return out;
}

TEST(CoordinatorFailureTest, NodeUnreachableAtStartup) {
  Fixture f = MakeFixture("boot");
  ASSERT_NE(f.coordinator, nullptr);
  f.coordinator.reset();
  f.servers[1]->Stop();

  // Strict connect requires every node.
  auto strict =
      ShardCoordinator::Connect(f.nodes, [] {
        CoordinatorOptions o = TolerantCoordinatorOptions();
        o.tolerate_unreachable = false;
        return o;
      }());
  ASSERT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsIOError()) << strict.status().ToString();

  // A tolerant coordinator starts anyway and serves degraded queries.
  auto tolerant =
      ShardCoordinator::Connect(f.nodes, TolerantCoordinatorOptions());
  ASSERT_TRUE(tolerant.ok()) << tolerant.status().ToString();
  ShardCoordinator& coord = *tolerant.value();

  // Strict query: the dead shard fails it.
  auto full = coord.Query("acme", "sales");
  ASSERT_FALSE(full.ok());
  EXPECT_TRUE(full.status().IsIOError() || full.status().IsUnavailable() ||
              full.status().IsDeadlineExceeded())
      << full.status().ToString();

  // Degraded all-partitions query: partial, missing shard 1, bit-identical
  // to the reference over the surviving ids.
  QueryOptions degraded;
  degraded.allow_partial = true;
  auto partial =
      coord.QueryWithOptions("acme", "sales", /*ids=*/{}, degraded);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_TRUE(partial.value().partial);
  EXPECT_EQ(partial.value().missing_shards, std::vector<size_t>{1});
  EXPECT_TRUE(partial.value().missing_ids.empty());  // inventory unknowable
  const std::vector<PartitionId> surviving =
      Surviving(coord, f.ids, partial.value().missing_shards);
  ASSERT_FALSE(surviving.empty());
  ASSERT_LT(surviving.size(), f.ids.size());
  auto expect = f.reference->MergedSample("acme.sales", surviving);
  ASSERT_TRUE(expect.ok());
  EXPECT_EQ(SampleBytes(partial.value().sample),
            SampleBytes(expect.value()));

  // Explicit-id degraded query: the excluded ids are named.
  auto named = coord.QueryWithOptions("acme", "sales", f.ids, degraded);
  ASSERT_TRUE(named.ok()) << named.status().ToString();
  EXPECT_TRUE(named.value().partial);
  std::vector<PartitionId> dead_ids;
  for (const PartitionId id : f.ids) {
    if (coord.ShardOf("acme", "sales", id) == 1) dead_ids.push_back(id);
  }
  EXPECT_EQ(named.value().missing_ids, dead_ids);
  EXPECT_EQ(SampleBytes(named.value().sample), SampleBytes(expect.value()));

  EXPECT_GE(coord.stats().partial_queries_served, 2u);
  const std::vector<bool> health = coord.CheckHealth();
  ASSERT_EQ(health.size(), 2u);
  EXPECT_TRUE(health[0]);
  EXPECT_FALSE(health[1]);
}

TEST(CoordinatorFailureTest, NodeDyingMidMergeThenRestartRecovery) {
  Fixture f = MakeFixture("midq");
  ASSERT_NE(f.coordinator, nullptr);
  ShardCoordinator& coord = *f.coordinator;

  // Healthy baseline: strict full answer matches the reference.
  auto before = coord.Query("acme", "sales");
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(SampleBytes(before.value()),
            SampleBytes(f.reference->MergedSampleAll("acme.sales").value()));

  // Node 1 dies with the coordinator's connections warm. An explicit-id
  // query goes straight to the merge, which discovers the death mid-tree
  // and — under allow_partial — restarts over the survivors.
  const uint16_t dead_port = f.servers[1]->port();
  f.servers[1]->Stop();

  QueryOptions degraded;
  degraded.allow_partial = true;
  degraded.deadline_millis = 10'000;
  auto partial = coord.QueryWithOptions("acme", "sales", f.ids, degraded);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_TRUE(partial.value().partial);
  EXPECT_EQ(partial.value().missing_shards, std::vector<size_t>{1});
  const std::vector<PartitionId> surviving =
      Surviving(coord, f.ids, partial.value().missing_shards);
  auto expect = f.reference->MergedSample("acme.sales", surviving);
  ASSERT_TRUE(expect.ok());
  EXPECT_EQ(SampleBytes(partial.value().sample),
            SampleBytes(expect.value()));
  EXPECT_GE(coord.stats().partial_queries_served, 1u);
  EXPECT_GE(coord.stats().transport_errors, 1u);

  // The node restarts on its old port from its durable store (the server
  // listener binds with SO_REUSEADDR, so the rebind is immediate). Tenants
  // are provisioning state, not store state: the restarted node gets its
  // tenant back the way the serve tool would, via bootstrap.
  ServerOptions revived = NodeOptions(f.dirs[1].path());
  revived.port = dead_port;
  revived.bootstrap_tenants["acme"] = TenantQuota{};
  f.servers[1] = MustStart(revived);
  ASSERT_NE(f.servers[1], nullptr);

  // Past the breaker's open window, the next strict query reconnects and
  // the full exact answer is back.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  auto healed = coord.Query("acme", "sales");
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(SampleBytes(healed.value()),
            SampleBytes(f.reference->MergedSampleAll("acme.sales").value()));
  const std::vector<bool> health = coord.CheckHealth();
  EXPECT_TRUE(health[0]);
  EXPECT_TRUE(health[1]);
}

/// Restarts node `node` of `f` on its old port from its store, under
/// warehouse seed `seed`.
void RestartNode(Fixture& f, size_t node, uint64_t seed) {
  const uint16_t port = f.servers[node]->port();
  f.servers[node]->Stop();
  ServerOptions revived = NodeOptions(f.dirs[node].path());
  revived.port = port;
  revived.warehouse.seed = seed;
  revived.bootstrap_tenants["acme"] = TenantQuota{};
  f.servers[node] = MustStart(revived);
  ASSERT_NE(f.servers[node], nullptr);
}

TEST(CoordinatorFailureTest, NodeRestartedWithOtherSeedIsRefusedOnItsNextAnswer) {
  Fixture f = MakeFixture("reseed");
  ASSERT_NE(f.coordinator, nullptr);
  ShardCoordinator& coord = *f.coordinator;
  auto before = coord.Query("acme", "sales", f.ids);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // Node 1 comes back on its port and store under another seed. Its next
  // answer names another boot nonce; the ping that re-checks it refuses
  // it, and with one copy of each id the query fails naming the node.
  ASSERT_NO_FATAL_FAILURE(RestartNode(f, 1, kSeed + 1));
  auto after = coord.Query("acme", "sales", f.ids);
  ASSERT_FALSE(after.ok());
  EXPECT_TRUE(after.status().IsFailedPrecondition())
      << after.status().ToString();
  EXPECT_NE(after.status().message().find(
                ":" + std::to_string(f.servers[1]->port())),
            std::string::npos)
      << after.status().ToString();
  EXPECT_EQ(coord.CheckHealth(), (std::vector<bool>{true, false}));
}

TEST(CoordinatorFailureTest, ReplicaRestartedWithOtherSeedFailsOverToItsPeer) {
  // Two file-backed nodes at R = 2: each holds every id.
  Fixture f;
  for (size_t i = 0; i < 2; ++i) {
    f.dirs.emplace_back("sampwh_coordfail_reseed_r2_" + std::to_string(i));
    f.servers.push_back(MustStart(NodeOptions(f.dirs.back().path())));
    ASSERT_NE(f.servers.back(), nullptr);
    f.nodes.push_back({f.servers.back()->host(), f.servers.back()->port()});
  }
  CoordinatorOptions options = TolerantCoordinatorOptions();
  options.tolerate_unreachable = false;
  options.replication_factor = 2;
  auto connected = ShardCoordinator::Connect(f.nodes, options);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  ShardCoordinator& coord = *connected.value();
  Warehouse reference(NodeOptions("").warehouse);
  ASSERT_TRUE(coord.CreateTenant("acme", {}).ok());
  ASSERT_TRUE(coord.CreateDataset("acme", "sales").ok());
  ASSERT_TRUE(reference.CreateDataset("acme.sales").ok());
  for (uint64_t p = 0; p < kPartitions; ++p) {
    const PartitionSample sample =
        MakeReservoirSample(static_cast<Value>(p) * 100, 6);
    auto id = coord.RollIn("acme", "sales", sample, p, p);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_TRUE(reference.RollInAt("acme.sales", id.value(), sample, p, p).ok());
    f.ids.push_back(id.value());
  }
  const std::string expect =
      SampleBytes(reference.MergedSample("acme.sales", f.ids).value());
  // The third ask of the same ids is answered from the held copy, and the
  // coordinator's stats sum the clients' count of such answers.
  for (int repeat = 0; repeat < 3; ++repeat) {
    auto before = coord.Query("acme", "sales", f.ids);
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    EXPECT_EQ(SampleBytes(before.value()), expect);
  }
  EXPECT_EQ(coord.stats().answers_unchanged, 1u);

  // The node a whole-set query goes to first restarts under another seed:
  // its answer is refused and the peer serves the same bytes.
  const size_t first = coord.ShardOf("acme", "sales", f.ids[0]);
  ASSERT_NO_FATAL_FAILURE(RestartNode(f, first, kSeed + 1));
  for (int repeat = 0; repeat < 2; ++repeat) {
    auto after = coord.Query("acme", "sales", f.ids);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(SampleBytes(after.value()), expect);
  }
  EXPECT_GE(coord.stats().failover_reads, 1u);
  std::vector<bool> health(2, true);
  health[first] = false;
  EXPECT_EQ(coord.CheckHealth(), health);
}

TEST(CoordinatorFailureTest, AllShardsDownIsCleanUnavailable) {
  Fixture f = MakeFixture("alldown");
  ASSERT_NE(f.coordinator, nullptr);
  ShardCoordinator& coord = *f.coordinator;
  f.servers[0]->Stop();
  f.servers[1]->Stop();

  QueryOptions degraded;
  degraded.allow_partial = true;
  auto none = coord.QueryWithOptions("acme", "sales", f.ids, degraded);
  ASSERT_FALSE(none.ok());
  EXPECT_TRUE(none.status().IsUnavailable() || none.status().IsIOError())
      << none.status().ToString();
}

}  // namespace
}  // namespace sampwh
