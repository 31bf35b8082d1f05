// Replication battery: coordinator-driven shard replication (factor R),
// exact-query failover and anti-entropy repair. The contract under test:
//
//   1. A RollIn at replication factor R places the partition on all R
//      owners — quota-admitted once at the primary, force-charged on the
//      replicas — so every node's recorded tenant usage equals its stored
//      footprint exactly (zero quota drift).
//   2. With at most R-1 nodes killed or partitioned — even mid-merge —
//      every STRICT query (no allow_partial) still succeeds and its bytes
//      equal the single-node reference warehouse holding every partition.
//      Failover is invisible except in the counters.
//   3. ScrubDataset detects a corrupt (CRC-quarantined), missing or
//      divergent replica copy and re-replicates it from a healthy owner;
//      the healed bytes are byte-identical to the surviving copy, the
//      quarantined evidence stays on disk, and a later scrub round is
//      clean.
//
// The ~3-round chaos tier runs in ctest; REPL_SOAK=1 runs the long
// schedule (nightly CI), mirroring the CHAOS_SOAK convention.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/types.h"
#include "src/server/coordinator.h"
#include "src/testing/chaos_proxy.h"
#include "src/util/random.h"
#include "src/util/serialization.h"
#include "src/warehouse/warehouse.h"
#include "tests/server/server_test_util.h"

namespace sampwh {
namespace {

constexpr uint64_t kSeed = 0x5157313136ULL;
constexpr uint64_t kBound = 4 * kSingletonFootprintBytes;
constexpr uint64_t kPartitions = 12;

int ReplChaosRounds() {
  if (const char* soak = std::getenv("REPL_SOAK");
      soak != nullptr && std::string_view(soak) != "0") {
    return 24;
  }
  return 3;
}

ServerOptions ReplNodeOptions(const std::string& store_dir) {
  ServerOptions options = TestServerOptions(kSeed);
  options.warehouse.merge.footprint_bound_bytes = kBound;
  options.store_directory = store_dir;
  return options;
}

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

CoordinatorOptions ReplCoordinatorOptions(uint32_t replication_factor,
                                          uint32_t write_quorum = 0) {
  CoordinatorOptions options;
  options.seed = kSeed;
  options.merge.footprint_bound_bytes = kBound;
  options.client = FastFailClientOptions();
  options.tolerate_unreachable = true;
  options.replication_factor = replication_factor;
  options.write_quorum = write_quorum;
  return options;
}

struct ReplFixture {
  std::vector<ScopedTempDir> dirs;
  std::vector<ShardNodeAddress> nodes;
  std::vector<std::unique_ptr<WarehouseServer>> servers;
  std::unique_ptr<ShardCoordinator> coordinator;
  std::unique_ptr<Warehouse> reference;
  std::vector<PartitionId> ids;
};

/// `num_nodes` file-backed nodes, a replication-factor-R coordinator, and
/// `kPartitions` partitions rolled in through it, mirrored into a
/// single-node reference warehouse under the same seed and merge options.
ReplFixture MakeReplFixture(const std::string& tag, size_t num_nodes,
                            uint32_t replication_factor) {
  ReplFixture f;
  for (size_t i = 0; i < num_nodes; ++i) {
    f.dirs.emplace_back("sampwh_repl_" + tag + std::to_string(i));
    auto server = MustStart(ReplNodeOptions(f.dirs.back().path()));
    if (server == nullptr) return {};
    f.nodes.push_back({server->host(), server->port()});
    f.servers.push_back(std::move(server));
  }
  auto coordinator = ShardCoordinator::Connect(
      f.nodes, ReplCoordinatorOptions(replication_factor));
  if (!coordinator.ok()) {
    ADD_FAILURE() << "coordinator: " << coordinator.status().ToString();
    return {};
  }
  f.coordinator = std::move(coordinator).value();

  f.reference = std::make_unique<Warehouse>(ReplNodeOptions("").warehouse);
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

/// Asserts that every node's recorded tenant usage equals the footprint it
/// actually stores — the zero-quota-drift invariant replication must keep
/// through forced replica charges, replaced copies and heals.
void ExpectZeroQuotaDrift(ReplFixture& f) {
  for (size_t node = 0; node < f.servers.size(); ++node) {
    const Warehouse* wh = f.servers[node]->warehouse_for_testing();
    uint64_t stored_bytes = 0;
    uint64_t stored_partitions = 0;
    auto parts = wh->ListPartitions("acme.sales");
    if (!parts.ok()) continue;
    for (const PartitionInfo& info : parts.value()) {
      auto sample = wh->GetSample("acme.sales", info.id);
      ASSERT_TRUE(sample.ok()) << sample.status().ToString();
      stored_bytes += sample.value().footprint_bytes();
      stored_partitions += 1;
    }
    auto usage =
        f.servers[node]->tenants_for_testing()->GetUsage("acme");
    ASSERT_TRUE(usage.ok()) << usage.status().ToString();
    EXPECT_EQ(usage.value().bytes, stored_bytes)
        << "node " << node << " byte usage drifted from stored footprint";
    EXPECT_EQ(usage.value().partitions, stored_partitions)
        << "node " << node << " partition count drifted";
  }
}

/// Direct (coordinator-bypassing) client to node `i` of the fixture.
std::unique_ptr<WarehouseClient> DirectClient(ReplFixture& f, size_t node) {
  auto client = WarehouseClient::Connect(f.nodes[node].host,
                                         f.nodes[node].port,
                                         FastFailClientOptions());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return client.ok() ? std::move(client).value() : nullptr;
}

TEST(ReplicationTest, WritesLandOnEveryOwnerAndChargeOnce) {
  ReplFixture f = MakeReplFixture("write", /*num_nodes=*/3,
                                  /*replication_factor=*/2);
  ASSERT_NE(f.coordinator, nullptr);
  EXPECT_EQ(f.coordinator->replication_factor(), 2u);

  // Every id is present on exactly its R owners, absent elsewhere.
  for (const PartitionId id : f.ids) {
    const std::vector<size_t> owners =
        f.coordinator->OwnersOf(f.coordinator->ShardOf("acme", "sales", id));
    ASSERT_EQ(owners.size(), 2u);
    for (size_t node = 0; node < f.servers.size(); ++node) {
      const bool should_hold =
          std::find(owners.begin(), owners.end(), node) != owners.end();
      const bool holds = f.servers[node]
                             ->warehouse_for_testing()
                             ->GetSample("acme.sales", id)
                             .ok();
      EXPECT_EQ(holds, should_hold)
          << "id " << id << " on node " << node;
    }
  }

  // The replicas were written through kReplicaRollIn (visible in stats),
  // and every node's quota books balance against its stored bytes.
  uint64_t replica_writes = 0;
  for (size_t node = 0; node < f.servers.size(); ++node) {
    replica_writes += f.servers[node]->stats().replica_writes;
  }
  EXPECT_EQ(replica_writes, kPartitions);  // one replica copy per id at R=2
  ASSERT_NO_FATAL_FAILURE(ExpectZeroQuotaDrift(f));

  // A replicated inventory lists every id exactly once.
  auto inventory = f.coordinator->ListAllPartitions("acme", "sales");
  ASSERT_TRUE(inventory.ok());
  EXPECT_EQ(inventory.value(), f.ids);

  // RollOut removes every copy.
  const PartitionId victim = f.ids.front();
  ASSERT_TRUE(f.coordinator->RollOut("acme", "sales", victim).ok());
  for (auto& server : f.servers) {
    EXPECT_FALSE(
        server->warehouse_for_testing()->GetSample("acme.sales", victim).ok());
  }
}

TEST(ReplicationTest, StrictQueryFailsOverExactlyWhenANodeDies) {
  ReplFixture f = MakeReplFixture("failover", /*num_nodes=*/3,
                                  /*replication_factor=*/2);
  ASSERT_NE(f.coordinator, nullptr);
  const std::string expect =
      SampleBytes(f.reference->MergedSampleAll("acme.sales").value());

  // Healthy baseline.
  auto baseline = f.coordinator->Query("acme", "sales");
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(SampleBytes(baseline.value()), expect);

  // Kill one node. Every id still has a live owner, so the STRICT query —
  // no allow_partial — must keep returning the full, bit-identical answer.
  f.servers[1]->Stop();
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto answer = f.coordinator->Query("acme", "sales");
    ASSERT_TRUE(answer.ok())
        << "attempt " << attempt << ": " << answer.status().ToString();
    EXPECT_EQ(SampleBytes(answer.value()), expect) << "attempt " << attempt;
  }
  EXPECT_GT(f.coordinator->stats().failover_reads, 0u);

  // The survivors saw flagged failover traffic.
  uint64_t failover_reads = 0;
  for (size_t node : {size_t{0}, size_t{2}}) {
    failover_reads += f.servers[node]->stats().failover_reads;
  }
  EXPECT_GT(failover_reads, 0u);

  // Explicit-id queries fail over identically.
  const std::vector<PartitionId> half(f.ids.begin(),
                                      f.ids.begin() + f.ids.size() / 2);
  auto partial_set = f.coordinator->Query("acme", "sales", half);
  ASSERT_TRUE(partial_set.ok()) << partial_set.status().ToString();
  EXPECT_EQ(SampleBytes(partial_set.value()),
            SampleBytes(f.reference->MergedSample("acme.sales", half).value()));
}

TEST(ReplicationTest, WriteQuorumToleratesAReplicaOutageAndScrubCompletes) {
  ReplFixture f = MakeReplFixture("quorum", /*num_nodes=*/3,
                                  /*replication_factor=*/2);
  ASSERT_NE(f.coordinator, nullptr);

  // Re-connect the coordinator with a majority write quorum (primary ack
  // suffices at R=2).
  f.coordinator.reset();
  auto coordinator =
      ShardCoordinator::Connect(f.nodes, ReplCoordinatorOptions(
                                             /*replication_factor=*/2,
                                             /*write_quorum=*/1));
  ASSERT_TRUE(coordinator.ok());
  f.coordinator = std::move(coordinator).value();

  // Kill one node; writes whose replica lives there lose one ack but make
  // quorum. Writes whose PRIMARY lives there fail (admission is at the
  // primary) — roll in until we get one of each shape.
  f.servers[2]->Stop();
  std::vector<PartitionId> accepted;
  size_t rejected = 0;
  for (uint64_t p = 0; p < 8; ++p) {
    const PartitionSample sample =
        MakeReservoirSample(static_cast<Value>(1000 + p * 10), 6);
    auto id = f.coordinator->RollIn("acme", "sales", sample, p, p);
    if (id.ok()) {
      accepted.push_back(id.value());
      EXPECT_TRUE(
          f.reference->RollInAt("acme.sales", id.value(), sample, p, p).ok());
    } else {
      ++rejected;
    }
  }
  EXPECT_FALSE(accepted.empty());

  // Restart the dead node from its durable store on its old port.
  ServerOptions revived = ReplNodeOptions(f.dirs[2].path());
  revived.port = f.nodes[2].port;
  revived.bootstrap_tenants["acme"] = TenantQuota{};
  auto restarted = WarehouseServer::Start(revived);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  f.servers[2] = std::move(restarted).value();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  // Anti-entropy completes the under-replicated writes onto the revived
  // node; a second round finds nothing left to do.
  auto report = f.coordinator->ScrubDataset("acme", "sales");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report.value().healed, 0u);
  EXPECT_EQ(report.value().unhealable, 0u);
  auto clean = f.coordinator->ScrubDataset("acme", "sales");
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean.value().replicas_missing, 0u);
  EXPECT_EQ(clean.value().digest_mismatches, 0u);
  EXPECT_EQ(clean.value().healed, 0u);

  // Full replica count restored: every accepted id on both owners, books
  // balanced, and the strict query exact.
  for (const PartitionId id : accepted) {
    for (const size_t owner : f.coordinator->OwnersOf(
             f.coordinator->ShardOf("acme", "sales", id))) {
      EXPECT_TRUE(f.servers[owner]
                      ->warehouse_for_testing()
                      ->GetSample("acme.sales", id)
                      .ok())
          << "id " << id << " missing on owner " << owner;
    }
  }
  ASSERT_NO_FATAL_FAILURE(ExpectZeroQuotaDrift(f));
  auto answer = f.coordinator->Query("acme", "sales");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(SampleBytes(answer.value()),
            SampleBytes(f.reference->MergedSampleAll("acme.sales").value()));
}

/// Satellite: Recover() x replication. Corrupt one replica's frame on
/// disk, scrub, and byte-compare the healed copy against the surviving
/// replica; the quarantined original must remain as evidence.
TEST(ReplicationTest, ScrubHealsCorruptReplicaFromSurvivor) {
  ReplFixture f = MakeReplFixture("heal", /*num_nodes=*/2,
                                  /*replication_factor=*/2);
  ASSERT_NE(f.coordinator, nullptr);

  // Flip a payload byte inside one replica's stored frame. Targets the
  // copy on node 1 (every id lives on both nodes at N=2, R=2).
  const PartitionId victim = f.ids[f.ids.size() / 2];
  const std::string path =
      f.dirs[1].path() + "/acme.sales." + std::to_string(victim) + ".sample";
  ASSERT_TRUE(std::filesystem::exists(path)) << path;
  {
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(0, std::ios::end);
    const std::streamoff size = file.tellg();
    ASSERT_GT(size, 8);
    file.seekp(size / 2);
    char byte = 0;
    file.seekg(size / 2);
    file.read(&byte, 1);
    file.seekp(size / 2);
    byte = static_cast<char>(byte ^ 0x5a);
    file.write(&byte, 1);
  }

  // Scrub: the digest scan quarantines the corrupt copy (it reads as
  // missing) and re-replicates from the intact owner.
  auto report = f.coordinator->ScrubDataset("acme", "sales");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().partitions_scanned, kPartitions);
  EXPECT_EQ(report.value().replicas_missing, 1u);
  EXPECT_EQ(report.value().healed, 1u);
  EXPECT_EQ(report.value().unhealable, 0u);

  // Healed copy is byte-identical to the survivor's on-disk copy.
  const std::string survivor_path =
      f.dirs[0].path() + "/acme.sales." + std::to_string(victim) + ".sample";
  std::ostringstream healed, survivor;
  healed << std::ifstream(path, std::ios::binary).rdbuf();
  survivor << std::ifstream(survivor_path, std::ios::binary).rdbuf();
  ASSERT_FALSE(survivor.str().empty());
  EXPECT_EQ(healed.str(), survivor.str());

  // Quarantine evidence preserved next to the healed file.
  EXPECT_TRUE(std::filesystem::exists(path + ".quarantine"));

  // Server-side counters saw the round; the books still balance; a fresh
  // round is clean.
  uint64_t scrub_rounds = 0, partitions_healed = 0;
  for (auto& server : f.servers) {
    scrub_rounds += server->stats().scrub_rounds;
    partitions_healed += server->stats().partitions_healed;
  }
  EXPECT_GE(scrub_rounds, 2u);  // one digest listing per node per round
  EXPECT_EQ(partitions_healed, 1u);
  ASSERT_NO_FATAL_FAILURE(ExpectZeroQuotaDrift(f));
  auto clean = f.coordinator->ScrubDataset("acme", "sales");
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean.value().replicas_missing, 0u);
  EXPECT_EQ(clean.value().healed, 0u);

  // And the strict query still matches the reference bit-for-bit.
  auto answer = f.coordinator->Query("acme", "sales");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(SampleBytes(answer.value()),
            SampleBytes(f.reference->MergedSampleAll("acme.sales").value()));
}

TEST(ReplicationTest, ScrubRepairsDivergentReplicaToMajority) {
  ReplFixture f = MakeReplFixture("diverge", /*num_nodes=*/3,
                                  /*replication_factor=*/3);
  ASSERT_NE(f.coordinator, nullptr);

  // Overwrite one owner's copy with different (valid) bytes through the
  // replica verb directly — a divergence the digest comparison must catch.
  const PartitionId victim = f.ids.front();
  const std::vector<size_t> owners =
      f.coordinator->OwnersOf(f.coordinator->ShardOf("acme", "sales", victim));
  ASSERT_EQ(owners.size(), 3u);
  auto rogue = DirectClient(f, owners[2]);
  ASSERT_NE(rogue, nullptr);
  const PartitionSample divergent = MakeReservoirSample(9'000, 6);
  ASSERT_TRUE(rogue
                  ->ReplicaRollIn("acme", "sales", victim, divergent,
                                  /*min_timestamp=*/0, /*max_timestamp=*/0)
                  .ok());
  EXPECT_EQ(f.servers[owners[2]]->stats().digest_mismatches, 1u);

  // Two of three owners agree; the divergent copy loses the vote and is
  // rewritten from a majority owner.
  auto report = f.coordinator->ScrubDataset("acme", "sales");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().digest_mismatches, 1u);
  EXPECT_EQ(report.value().healed, 1u);
  auto clean = f.coordinator->ScrubDataset("acme", "sales");
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean.value().digest_mismatches, 0u);
  ASSERT_NO_FATAL_FAILURE(ExpectZeroQuotaDrift(f));

  auto answer = f.coordinator->Query("acme", "sales");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(SampleBytes(answer.value()),
            SampleBytes(f.reference->MergedSampleAll("acme.sales").value()));
}

/// Acceptance battery: 4 nodes at R=2 behind chaos proxies. Any single
/// node killed or partitioned mid-merge leaves every strict query
/// bit-identical to the single-node reference — never partial — and a
/// scrubber round after Heal() restores full replica count with zero
/// quota drift.
TEST(ReplicationTest, ChaosSingleNodeLossStaysExact) {
  constexpr size_t kChaosNodes = 4;
  ReplFixture f;
  std::vector<std::unique_ptr<ChaosProxy>> proxies;
  for (size_t i = 0; i < kChaosNodes; ++i) {
    f.dirs.emplace_back("sampwh_repl_chaos" + std::to_string(i));
    auto server = MustStart(ReplNodeOptions(f.dirs.back().path()));
    ASSERT_NE(server, nullptr);
    ChaosProxy::Options proxy_options;
    proxy_options.upstream_host = server->host();
    proxy_options.upstream_port = server->port();
    proxy_options.seed = 0x4E71C100 + i;
    auto proxy = ChaosProxy::Start(proxy_options);
    ASSERT_TRUE(proxy.ok()) << proxy.status().ToString();
    f.nodes.push_back({proxy.value()->host(), proxy.value()->port()});
    f.servers.push_back(std::move(server));
    proxies.push_back(std::move(proxy).value());
  }
  CoordinatorOptions options = ReplCoordinatorOptions(
      /*replication_factor=*/2, /*write_quorum=*/0);
  options.client.connect_timeout_millis = 500;
  options.client.read_timeout_millis = 800;
  auto coordinator = ShardCoordinator::Connect(f.nodes, options);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  f.coordinator = std::move(coordinator).value();

  f.reference = std::make_unique<Warehouse>(ReplNodeOptions("").warehouse);
  ASSERT_TRUE(f.coordinator->CreateTenant("acme", {}).ok());
  ASSERT_TRUE(f.coordinator->CreateDataset("acme", "sales").ok());
  ASSERT_TRUE(f.reference->CreateDataset("acme.sales").ok());
  for (uint64_t p = 0; p < kPartitions; ++p) {
    const PartitionSample sample =
        MakeReservoirSample(static_cast<Value>(p) * 50, 5);
    auto id = f.coordinator->RollIn("acme", "sales", sample, p, p);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_TRUE(
        f.reference->RollInAt("acme.sales", id.value(), sample, p, p).ok());
    f.ids.push_back(id.value());
  }
  const std::string expect =
      SampleBytes(f.reference->MergedSampleAll("acme.sales").value());

  Pcg64 plan(kSeed, /*stream=*/0x4E71);
  const int rounds = ReplChaosRounds();
  for (int round = 0; round < rounds; ++round) {
    const size_t victim = plan.UniformInt(kChaosNodes);
    const bool partition = plan.UniformInt(2) == 0;
    ChaosProxy& proxy = *proxies[victim];
    const std::string trace = "round " + std::to_string(round) + ": " +
                              (partition ? "partition" : "reset") +
                              " on node " + std::to_string(victim);
    SCOPED_TRACE(trace);
    if (partition) {
      proxy.Partition();
    } else {
      proxy.Arm(kChaosSiteServerToClient, NetFaultKind::kReset, /*count=*/3);
    }

    // One node down at R=2: STRICT queries (no allow_partial) must stay
    // exact. Two per round so the second rides on opened breakers.
    for (int q = 0; q < 2; ++q) {
      const auto start = std::chrono::steady_clock::now();
      auto answer = f.coordinator->Query("acme", "sales");
      EXPECT_LT(std::chrono::steady_clock::now() - start,
                std::chrono::seconds(30))
          << "query hung";
      ASSERT_TRUE(answer.ok())
          << "query " << q << ": " << answer.status().ToString();
      EXPECT_EQ(SampleBytes(answer.value()), expect) << "query " << q;
    }

    proxy.Heal();
    std::this_thread::sleep_for(std::chrono::milliseconds(400));

    // Post-heal scrub: replica count back to full, nothing unhealable,
    // books balanced.
    auto report = f.coordinator->ScrubDataset("acme", "sales");
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report.value().unhealable, 0u);
    auto clean = f.coordinator->ScrubDataset("acme", "sales");
    ASSERT_TRUE(clean.ok());
    EXPECT_EQ(clean.value().replicas_missing, 0u);
    EXPECT_EQ(clean.value().digest_mismatches, 0u);
    ASSERT_NO_FATAL_FAILURE(ExpectZeroQuotaDrift(f));

    auto recovered = f.coordinator->Query("acme", "sales");
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(SampleBytes(recovered.value()), expect);
  }

  // No partial answer was ever served, and failover did the carrying.
  EXPECT_EQ(f.coordinator->stats().partial_queries_served, 0u);
  auto inventory = f.coordinator->ListAllPartitions("acme", "sales");
  ASSERT_TRUE(inventory.ok());
  EXPECT_EQ(inventory.value(), f.ids);
}

}  // namespace
}  // namespace sampwh
