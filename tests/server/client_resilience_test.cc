// Client-resilience battery: the WarehouseClient's failure-handling
// machinery under injected network faults. Connect timeouts are bounded
// against a black-holed port; transport failures transparently reconnect
// and retry idempotent verbs (and ONLY idempotent verbs) through a chaos
// proxy — a re-driven streaming append is deduplicated by sequence, so the
// ingested partition is byte-identical to a fault-free run; a request too
// large for the frame bound is refused before it is sent; the per-client
// circuit breaker opens after consecutive transport failures, fails fast,
// and half-open-probes its way closed; a connection the server closed
// after an idle read timeout is reopened before the next request is sent;
// and a propagated deadline aborts an
// oversized merge server-side with kDeadlineExceeded — after which the
// same query, re-run without a deadline, is bit-identical to an
// uninterrupted reference (cancellation probes consume no randomness).

#include "src/server/client.h"

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/types.h"
#include "src/testing/chaos_proxy.h"
#include "src/warehouse/warehouse.h"
#include "tests/server/server_test_util.h"

namespace sampwh {
namespace {

constexpr uint64_t kSeed = 0x5157313136ULL;

std::chrono::milliseconds TimeCall(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
}

std::unique_ptr<ChaosProxy> MustProxy(const WarehouseServer& server,
                                      uint64_t seed) {
  ChaosProxy::Options options;
  options.upstream_host = server.host();
  options.upstream_port = server.port();
  options.seed = seed;
  auto proxy = ChaosProxy::Start(options);
  if (!proxy.ok()) {
    ADD_FAILURE() << "proxy start failed: " << proxy.status().ToString();
    return nullptr;
  }
  return std::move(proxy).value();
}

TEST(ClientResilienceTest, ConnectTimeoutIsBoundedAgainstBlackholedPort) {
  auto hole = BlackholePort::Open();
  ASSERT_TRUE(hole.ok()) << hole.status().ToString();

  ClientOptions options;
  options.connect_timeout_millis = 300;
  Status observed = Status::OK();
  const auto elapsed = TimeCall([&] {
    auto client = WarehouseClient::Connect(hole.value()->host(),
                                           hole.value()->port(), options);
    observed = client.status();
  });
  ASSERT_FALSE(observed.ok());
  EXPECT_TRUE(observed.IsDeadlineExceeded()) << observed.ToString();
  EXPECT_NE(observed.ToString().find("timed out"), std::string::npos)
      << observed.ToString();
  // The kernel's SYN-retry budget is minutes; the bound must hold with
  // generous sanitizer slack.
  EXPECT_LT(elapsed, std::chrono::seconds(30)) << elapsed.count() << "ms";
}

TEST(ClientResilienceTest, IdempotentVerbsRetryThroughConnectionResets) {
  auto server = MustStart(TestServerOptions(kSeed));
  ASSERT_NE(server, nullptr);
  auto proxy = MustProxy(*server, /*seed=*/0xC405);
  ASSERT_NE(proxy, nullptr);

  ClientOptions options;
  options.connect_timeout_millis = 2'000;
  options.max_retries = 2;
  options.backoff_initial_millis = 5;
  options.backoff_max_millis = 20;
  options.seed = 1;
  options.breaker_failure_threshold = 0;  // isolate the retry driver
  auto client =
      WarehouseClient::Connect(proxy->host(), proxy->port(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Quiet proxy: plain pass-through.
  ASSERT_TRUE(client.value()->Ping().ok());

  // Reset the next server->client chunk: the response dies mid-air, the
  // retry driver reconnects and re-drives the ping to success.
  proxy->Arm(kChaosSiteServerToClient, NetFaultKind::kReset, /*count=*/1);
  auto pong = client.value()->Ping();
  EXPECT_TRUE(pong.ok()) << pong.status().ToString();
  const ClientStatsSnapshot stats = client.value()->stats();
  EXPECT_GE(stats.retries_attempted, 1u);
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_GE(stats.transport_errors, 1u);
  EXPECT_EQ(proxy->FiredCount(kChaosSiteServerToClient), 1u);
}

TEST(ClientResilienceTest, AppendRetriesThroughResetAndDedupsBySequence) {
  // Two servers on one seed: `faulty` sits behind a proxy that resets the
  // ack of one append, `clean` sees the same stream without faults.
  auto faulty = MustStart(TestServerOptions(kSeed));
  auto clean = MustStart(TestServerOptions(kSeed));
  ASSERT_NE(faulty, nullptr);
  ASSERT_NE(clean, nullptr);
  auto proxy = MustProxy(*faulty, /*seed=*/0xC408);
  ASSERT_NE(proxy, nullptr);

  ClientOptions options;
  options.connect_timeout_millis = 2'000;
  options.max_retries = 2;
  options.backoff_initial_millis = 5;
  options.backoff_max_millis = 20;
  options.seed = 1;
  options.breaker_failure_threshold = 0;  // isolate the retry driver
  auto proxied =
      WarehouseClient::Connect(proxy->host(), proxy->port(), options);
  ASSERT_TRUE(proxied.ok()) << proxied.status().ToString();
  auto direct = MustConnect(*clean);
  ASSERT_NE(direct, nullptr);
  WarehouseClient* clients[] = {proxied.value().get(), direct.get()};
  for (WarehouseClient* client : clients) {
    ASSERT_TRUE(client->CreateTenant("acme", {}).ok());
    ASSERT_TRUE(client->CreateDataset("acme", "events").ok());
    ASSERT_TRUE(client->IngestOpen("acme", "events").ok());
  }

  // Batches of 100 into 256-element partitions: the third batch closes the
  // first partition. The second batch's ack is reset mid-air after the
  // server applied it; the retry re-drives sequence 100 and the server
  // acknowledges it without applying it twice.
  constexpr uint64_t kBatch = 100;
  for (uint64_t b = 0; b < 3; ++b) {
    std::vector<Value> values(kBatch);
    for (uint64_t i = 0; i < kBatch; ++i) {
      values[i] = static_cast<Value>((b * kBatch + i) * 2654435761u % 1000);
    }
    if (b == 1) {
      proxy->Arm(kChaosSiteServerToClient, NetFaultKind::kReset,
                 /*count=*/1);
    }
    for (WarehouseClient* client : clients) {
      auto ack = client->IngestAppend("acme", "events", b * kBatch, values);
      ASSERT_TRUE(ack.ok()) << ack.status().ToString();
      EXPECT_EQ(ack.value().next_sequence, (b + 1) * kBatch);
      EXPECT_EQ(ack.value().partitions_rolled_in, b == 2 ? 1u : 0u);
    }
  }
  EXPECT_EQ(proxy->FiredCount(kChaosSiteServerToClient), 1u);
  EXPECT_GE(clients[0]->stats().retries_attempted, 1u);
  EXPECT_GE(clients[0]->stats().reconnects, 1u);

  auto faulty_parts = clients[0]->ListPartitions("acme", "events");
  auto clean_parts = clients[1]->ListPartitions("acme", "events");
  ASSERT_TRUE(faulty_parts.ok()) << faulty_parts.status().ToString();
  ASSERT_TRUE(clean_parts.ok()) << clean_parts.status().ToString();
  ASSERT_EQ(faulty_parts.value().size(), 1u);
  ASSERT_EQ(clean_parts.value().size(), 1u);
  EXPECT_EQ(faulty_parts.value()[0].parent_size, 256u);
  const PartitionId id = faulty_parts.value()[0].id;
  ASSERT_EQ(clean_parts.value()[0].id, id);
  auto faulty_sample = clients[0]->Query("acme", "events", {id});
  auto clean_sample = clients[1]->Query("acme", "events", {id});
  ASSERT_TRUE(faulty_sample.ok()) << faulty_sample.status().ToString();
  ASSERT_TRUE(clean_sample.ok()) << clean_sample.status().ToString();
  EXPECT_EQ(SampleBytes(faulty_sample.value()),
            SampleBytes(clean_sample.value()));
}

TEST(ClientResilienceTest, OversizedRequestIsRefusedBeforeSending) {
  // Client and server share a 64 KiB frame bound. A batch too large for
  // it is the caller's error: refused before any byte is sent, with no
  // retry and no breaker count, so the next healthy call still works.
  ServerOptions server_options = TestServerOptions(kSeed);
  server_options.max_frame_bytes = 64u << 10;
  auto server = MustStart(server_options);
  ASSERT_NE(server, nullptr);
  ClientOptions options;
  options.max_frame_bytes = 64u << 10;
  options.max_retries = 2;
  options.backoff_initial_millis = 5;
  options.backoff_max_millis = 20;
  options.breaker_failure_threshold = 2;
  auto client = MustConnect(*server, options);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->CreateTenant("acme", {}).ok());
  ASSERT_TRUE(client->CreateDataset("acme", "events").ok());
  ASSERT_TRUE(client->IngestOpen("acme", "events").ok());

  std::vector<Value> values(200'000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<Value>(i * 2654435761u);
  }
  auto oversized = client->IngestAppend("acme", "events", 0, values);
  ASSERT_FALSE(oversized.ok());
  EXPECT_TRUE(oversized.status().IsInvalidArgument())
      << oversized.status().ToString();
  EXPECT_EQ(client->stats().retries_attempted, 0u);
  EXPECT_EQ(client->stats().transport_errors, 0u);
  EXPECT_FALSE(client->breaker_open());

  auto pong = client->Ping();
  EXPECT_TRUE(pong.ok()) << pong.status().ToString();
  values.resize(1'000);
  auto ack = client->IngestAppend("acme", "events", 0, values);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack.value().next_sequence, 1'000u);
  EXPECT_EQ(server->stats().protocol_errors, 0u);
  EXPECT_EQ(client->stats().reconnects, 0u);
}

TEST(ClientResilienceTest, NonIdempotentVerbsNeverRetry) {
  auto server = MustStart(TestServerOptions(kSeed));
  ASSERT_NE(server, nullptr);
  auto proxy = MustProxy(*server, /*seed=*/0xC406);
  ASSERT_NE(proxy, nullptr);

  ClientOptions options;
  options.max_retries = 3;
  options.backoff_initial_millis = 5;
  options.backoff_max_millis = 20;
  options.breaker_failure_threshold = 0;
  auto client =
      WarehouseClient::Connect(proxy->host(), proxy->port(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client.value()->CreateTenant("acme", {}).ok());
  ASSERT_TRUE(client.value()->CreateDataset("acme", "sales").ok());
  const uint64_t retries_before = client.value()->stats().retries_attempted;

  // The server applies the roll-in, the proxy resets the ack. A retry
  // would double-apply, so the transport error must surface instead.
  proxy->Arm(kChaosSiteServerToClient, NetFaultKind::kReset, /*count=*/1);
  auto id =
      client.value()->RollIn("acme", "sales", MakeReservoirSample(0, 4));
  ASSERT_FALSE(id.ok());
  EXPECT_TRUE(id.status().IsIOError()) << id.status().ToString();
  EXPECT_EQ(client.value()->stats().retries_attempted, retries_before);

  // Exactly one roll-in landed server-side (applied, just unacknowledged).
  auto direct = MustConnect(*server);
  ASSERT_NE(direct, nullptr);
  auto parts = direct->ListPartitions("acme", "sales");
  ASSERT_TRUE(parts.ok()) << parts.status().ToString();
  EXPECT_EQ(parts.value().size(), 1u);
}

// A server closes a connection that idles past its read timeout, without
// a frame and without counting an error. The client notices the closed
// socket before it sends, reconnects, and so even a verb that is never
// retried goes through.
TEST(ClientResilienceTest, IdleConnectionClosedByTheServerIsReopened) {
  ServerOptions options = TestServerOptions(kSeed);
  options.read_timeout_millis = 200;
  auto server = MustStart(std::move(options));
  ASSERT_NE(server, nullptr);
  auto client = MustConnect(*server);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->CreateTenant("acme", {}).ok());

  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const Status created = client->CreateDataset("acme", "sales");
  EXPECT_TRUE(created.ok()) << created.ToString();
  EXPECT_EQ(client->stats().retries_attempted, 0u);
  EXPECT_EQ(client->stats().reconnects, 1u);
  const ServerStatsSnapshot stats = server->stats();
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.connections_dropped, 0u);
}

TEST(ClientResilienceTest, BreakerOpensFailsFastAndRecloses) {
  auto server = MustStart(TestServerOptions(kSeed));
  ASSERT_NE(server, nullptr);
  auto proxy = MustProxy(*server, /*seed=*/0xC407);
  ASSERT_NE(proxy, nullptr);

  ClientOptions options;
  options.connect_timeout_millis = 1'000;
  options.read_timeout_millis = 1'000;
  options.max_retries = 0;
  options.breaker_failure_threshold = 2;
  options.breaker_open_millis = 300;
  auto client =
      WarehouseClient::Connect(proxy->host(), proxy->port(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client.value()->Ping().ok());
  EXPECT_FALSE(client.value()->breaker_open());

  // The node vanishes: two consecutive transport failures open the
  // breaker, after which calls fail fast without touching the network.
  proxy->Partition();
  EXPECT_FALSE(client.value()->Ping().ok());
  EXPECT_FALSE(client.value()->Ping().ok());
  EXPECT_TRUE(client.value()->breaker_open());
  Status fast = Status::OK();
  const auto elapsed =
      TimeCall([&] { fast = client.value()->Ping().status(); });
  ASSERT_FALSE(fast.ok());
  EXPECT_TRUE(fast.IsUnavailable()) << fast.ToString();
  EXPECT_NE(fast.ToString().find("circuit breaker"), std::string::npos)
      << fast.ToString();
  EXPECT_LT(elapsed, std::chrono::milliseconds(options.connect_timeout_millis))
      << elapsed.count() << "ms";
  EXPECT_GE(client.value()->stats().breaker_open_total, 1u);

  // The node heals; once the open window lapses the half-open probe
  // reconnects and closes the breaker.
  proxy->Heal();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  auto probe = client.value()->Ping();
  EXPECT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_FALSE(client.value()->breaker_open());
}

TEST(ClientResilienceTest, DeadlineAbortsServerSideThenReplaysBitIdentical) {
  // A merge big enough that 1ms of budget deterministically runs out
  // between the server's cooperative deadline probes: 384 partitions of
  // 512 values each, under a merge bound that keeps subsampling (and so
  // RNG consumption) active at every tree node.
  constexpr uint64_t kParts = 384;
  constexpr uint64_t kValues = 512;
  ServerOptions server_options = TestServerOptions(kSeed);
  server_options.warehouse.merge.footprint_bound_bytes =
      16 * kSingletonFootprintBytes;
  auto server = MustStart(server_options);
  ASSERT_NE(server, nullptr);
  auto client = MustConnect(*server);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->CreateTenant("acme", {}).ok());
  ASSERT_TRUE(client->CreateDataset("acme", "sales").ok());

  Warehouse reference(server_options.warehouse);
  ASSERT_TRUE(reference.CreateDataset("acme.sales").ok());
  for (uint64_t p = 0; p < kParts; ++p) {
    const PartitionSample sample =
        MakeReservoirSample(static_cast<Value>(p * kValues), kValues);
    auto id = client->RollIn("acme", "sales", sample);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_TRUE(reference.RollInAt("acme.sales", id.value(), sample).ok());
  }

  client->set_deadline_millis(1);
  auto denied = client->Query("acme", "sales");
  ASSERT_FALSE(denied.ok());
  EXPECT_TRUE(denied.status().IsDeadlineExceeded())
      << denied.status().ToString();

  // A structured kDeadlineExceeded is a served response, not a transport
  // failure: the connection stays usable and the server counted it.
  client->set_deadline_millis(0);
  auto stats = client->ServerStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats.value().deadlines_exceeded, 1u);
  EXPECT_EQ(client->stats().reconnects, 0u);

  // The canceled merge consumed no randomness and poisoned no memo state:
  // without the deadline the identical query answers bit-identically to an
  // uninterrupted reference warehouse.
  auto full = client->Query("acme", "sales");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  auto expect = reference.MergedSampleAll("acme.sales");
  ASSERT_TRUE(expect.ok());
  EXPECT_EQ(SampleBytes(full.value()), SampleBytes(expect.value()));
}

}  // namespace
}  // namespace sampwh
