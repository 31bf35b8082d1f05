// End-to-end coverage of the warehouse server: wire framing and the value
// block codec, admin and catalog verbs, roll-in/query round trips whose
// results are bit-identical to the embedded warehouse, exactly-once
// streaming ingest over the wire, and the stats/shutdown plumbing.

#include "src/server/server.h"

#include <gtest/gtest.h>

#include "src/server/client.h"
#include "src/server/wire.h"
#include "src/util/random.h"
#include "src/warehouse/checkpoint.h"
#include "src/warehouse/sample_store.h"
#include "tests/server/server_test_util.h"

namespace sampwh {
namespace {

TEST(WireTest, FrameRoundTrip) {
  const std::string payload = "hello frame";
  const std::string frame = EncodeFrame(payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
  std::string_view decoded;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(frame, kWireDefaultMaxFrameBytes, &decoded, &consumed),
            FrameDecodeResult::kOk);
  EXPECT_EQ(decoded, payload);
  EXPECT_EQ(consumed, frame.size());
}

TEST(WireTest, PrefixNeedsMoreData) {
  const std::string frame = EncodeFrame("abcdef");
  std::string_view decoded;
  size_t consumed = 0;
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_EQ(DecodeFrame(std::string_view(frame).substr(0, cut),
                          kWireDefaultMaxFrameBytes, &decoded, &consumed),
              FrameDecodeResult::kNeedMoreData)
        << "cut=" << cut;
  }
}

TEST(WireTest, OversizedAndCorruptFramesAreRejected) {
  std::string frame = EncodeFrame("payload");
  std::string_view decoded;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(frame, /*max_frame_bytes=*/3, &decoded, &consumed),
            FrameDecodeResult::kOversized);
  frame.back() ^= 0x5A;  // corrupt one payload byte
  EXPECT_EQ(DecodeFrame(frame, kWireDefaultMaxFrameBytes, &decoded, &consumed),
            FrameDecodeResult::kBadCrc);
}

TEST(WireTest, ResponseFrameSendsTheBytesOfTheCopyingEncoder) {
  // Bodies whose varint length takes one, two and three bytes, sealed with
  // and without a length prefix: the frame built in place must equal the
  // frame of BeginResponse(OK) + body (PutString'd when prefixed).
  for (const size_t body_size : {size_t{0}, size_t{1}, size_t{127},
                                 size_t{128}, size_t{16383}, size_t{16384},
                                 size_t{70000}}) {
    std::string body(body_size, '\0');
    for (size_t i = 0; i < body_size; ++i) body[i] = static_cast<char>(i * 7);
    for (const bool prefixed : {false, true}) {
      ResponseFrame frame;
      frame.body().PutRaw(body.data(), body.size());
      frame.SealOk(prefixed);
      BinaryWriter expected;
      BeginResponse(&expected, Status::OK());
      if (prefixed) {
        expected.PutString(body);
      } else {
        expected.PutRaw(body.data(), body.size());
      }
      EXPECT_EQ(frame.bytes(), EncodeFrame(expected.buffer()))
          << "body " << body_size << " prefixed " << prefixed;
    }
  }
  ResponseFrame error;
  error.body().PutString("dropped on error");
  error.SealError(Status::NotFound("no such dataset"));
  BinaryWriter expected;
  BeginResponse(&expected, Status::NotFound("no such dataset"));
  EXPECT_EQ(error.bytes(), EncodeFrame(expected.buffer()));
}

TEST(WireTest, ResponseHeadCarriesTypedStatus) {
  BinaryWriter writer;
  BeginResponse(&writer, Status::ResourceExhausted("quota"));
  const std::string payload = writer.Release();
  BinaryReader reader(payload);
  const Status status = ParseResponseHead(&reader);
  EXPECT_TRUE(status.IsResourceExhausted());
  EXPECT_EQ(status.message(), "quota");
}

std::string EncodeValueBlock(const std::vector<Value>& values) {
  BinaryWriter writer;
  PutValueBlock(&writer, values);
  return writer.Release();
}

/// The width byte of an encoded non-empty block: after the count varint
/// and the fixed64 base.
size_t BlockWidth(const std::string& block) {
  BinaryReader reader(block);
  uint64_t n = 0, base = 0;
  std::string_view width;
  EXPECT_TRUE(reader.GetVarint64(&n).ok());
  EXPECT_TRUE(reader.GetFixed64(&base).ok());
  EXPECT_TRUE(reader.GetRaw(1, &width).ok());
  return static_cast<unsigned char>(width[0]);
}

std::vector<Value> DecodeWholeBlock(const std::string& block) {
  BinaryReader reader(block);
  std::vector<Value> values;
  const Status st = GetValueBlock(&reader, &values);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(reader.AtEnd());
  return values;
}

TEST(WireTest, ValueBlockRoundTripsEdgeBatches) {
  const std::string empty = EncodeValueBlock({});
  EXPECT_EQ(empty, std::string(1, '\0'));  // just the count
  EXPECT_TRUE(DecodeWholeBlock(empty).empty());

  const std::vector<Value> one = {-42};
  const std::string one_block = EncodeValueBlock(one);
  EXPECT_EQ(BlockWidth(one_block), 1u);
  EXPECT_EQ(DecodeWholeBlock(one_block), one);

  const std::vector<Value> equal(1000, 77);
  const std::string equal_block = EncodeValueBlock(equal);
  EXPECT_EQ(BlockWidth(equal_block), 1u);
  EXPECT_EQ(equal_block.size(), 2 + 8 + 1 + equal.size());
  EXPECT_EQ(DecodeWholeBlock(equal_block), equal);

  const std::vector<Value> negatives = {-1, -300, -70000, -5, -1};
  const std::string negative_block = EncodeValueBlock(negatives);
  EXPECT_EQ(BlockWidth(negative_block), 3u);
  EXPECT_EQ(DecodeWholeBlock(negative_block), negatives);

  // The full int64 span: max - min wraps nothing in unsigned arithmetic.
  const std::vector<Value> extremes = {INT64_MAX, 0, INT64_MIN, -1, 1,
                                       INT64_MIN, INT64_MAX};
  const std::string extreme_block = EncodeValueBlock(extremes);
  EXPECT_EQ(BlockWidth(extreme_block), 8u);
  EXPECT_EQ(DecodeWholeBlock(extreme_block), extremes);
}

TEST(WireTest, ValueBlockRoundTripsEveryWidthAndLength) {
  // Lengths 0..40 put the decoder's switch from 8-byte loads to exact-width
  // loads at every position, for every width.
  Pcg64 rng(0xB10C);
  for (size_t width = 1; width <= 8; ++width) {
    const uint64_t span =
        width == 8 ? ~uint64_t{0} : (uint64_t{1} << (8 * width)) - 1;
    for (size_t length = 0; length <= 40; ++length) {
      // A base that leaves room for base + span inside int64.
      const Value base =
          width == 8 ? INT64_MIN
                     : static_cast<Value>(rng.NextUint64() >> 2) -
                           (Value{1} << 61);
      std::vector<Value> values(length);
      for (Value& v : values) {
        v = static_cast<Value>(static_cast<uint64_t>(base) +
                               (rng.NextUint64() & span));
      }
      if (length >= 2) {
        // Pin the range so the encoder picks exactly `width` bytes.
        values[0] = base;
        values[1] = static_cast<Value>(static_cast<uint64_t>(base) + span);
      }
      const std::string block = EncodeValueBlock(values);
      if (length >= 2) {
        EXPECT_EQ(BlockWidth(block), width) << "length " << length;
      }
      EXPECT_EQ(DecodeWholeBlock(block), values)
          << "width " << width << " length " << length;
    }
  }
}

TEST(WireTest, ValueBlockRejectsHostileInputWithoutAllocating) {
  const auto header = [](uint64_t n, uint8_t width) {
    BinaryWriter writer;
    writer.PutVarint64(n);
    writer.PutFixed64(0x1234);
    const char w = static_cast<char>(width);
    writer.PutRaw(&w, 1);
    writer.PutRaw("\x01\x02\x03\x04\x05\x06\x07\x08", 8);
    return writer.Release();
  };
  const auto decode = [](const std::string& block,
                         std::vector<Value>* values) {
    BinaryReader reader(block);
    return GetValueBlock(&reader, values);
  };

  for (const uint8_t bad_width : {uint8_t{0}, uint8_t{9}, uint8_t{255}}) {
    std::vector<Value> values;
    EXPECT_TRUE(decode(header(2, bad_width), &values).IsCorruption())
        << "width " << int{bad_width};
    EXPECT_EQ(values.capacity(), 0u);
  }

  // A count the body cannot hold, including one whose n * w would wrap
  // 64 bits: OutOfRange before any allocation.
  for (const uint64_t n : {uint64_t{2}, uint64_t{1} << 61,
                           (uint64_t{1} << 61) + 1, ~uint64_t{0}}) {
    std::vector<Value> values;
    EXPECT_TRUE(decode(header(n, 8), &values).IsOutOfRange()) << "n " << n;
    EXPECT_EQ(values.capacity(), 0u);
  }

  // Every proper prefix of a valid block is rejected as truncated.
  std::vector<Value> batch(100);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i] = static_cast<Value>(i * 40503) - 9000;
  }
  const std::string block = EncodeValueBlock(batch);
  for (size_t cut = 0; cut < block.size(); ++cut) {
    std::vector<Value> values;
    EXPECT_TRUE(decode(block.substr(0, cut), &values).IsOutOfRange())
        << "cut " << cut;
  }

  // Trailing bytes are left unread for the request's end-of-body check.
  const std::string trailed = block + "xyz";
  BinaryReader reader(trailed);
  std::vector<Value> values;
  ASSERT_TRUE(GetValueBlock(&reader, &values).ok());
  EXPECT_EQ(values, batch);
  EXPECT_EQ(reader.remaining(), 3u);
}

TEST(ServerTest, BindsDistinctEphemeralPorts) {
  auto a = MustStart(TestServerOptions());
  auto b = MustStart(TestServerOptions());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a->port(), 0);
  EXPECT_NE(b->port(), 0);
  EXPECT_NE(a->port(), b->port());
}

TEST(ServerTest, PingAndStats) {
  auto server = MustStart(TestServerOptions());
  ASSERT_NE(server, nullptr);
  auto client = MustConnect(*server);
  ASSERT_NE(client, nullptr);
  auto banner = client->Ping();
  ASSERT_TRUE(banner.ok()) << banner.status().ToString();
  EXPECT_EQ(banner.value().banner, "sampwh.warehouse/1");
  EXPECT_EQ(banner.value().seed, TestServerOptions().warehouse.seed);
  EXPECT_EQ(banner.value().merge_fingerprint,
            MergeOptionsFingerprint(server->warehouse_for_testing()
                                        ->options()
                                        .merge));
  auto stats = client->ServerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().connections_accepted, 1u);
  EXPECT_GE(stats.value().requests_served, 2u);
  EXPECT_EQ(stats.value().protocol_errors, 0u);
}

TEST(ServerTest, TenantAndDatasetLifecycle) {
  auto server = MustStart(TestServerOptions());
  ASSERT_NE(server, nullptr);
  auto client = MustConnect(*server);
  ASSERT_NE(client, nullptr);

  ASSERT_TRUE(client->CreateTenant("acme", {}).ok());
  EXPECT_TRUE(client->CreateTenant("acme", {}).IsAlreadyExists());
  EXPECT_TRUE(client->CreateTenant("bad.name", {}).IsInvalidArgument());

  ASSERT_TRUE(client->CreateDataset("acme", "sales").ok());
  EXPECT_TRUE(client->CreateDataset("acme", "sales").IsAlreadyExists());
  EXPECT_TRUE(client->CreateDataset("ghost", "sales").IsNotFound());

  auto datasets = client->ListDatasets("acme");
  ASSERT_TRUE(datasets.ok());
  EXPECT_EQ(datasets.value(), std::vector<std::string>{"sales"});

  // The wire name is tenant-scoped; the warehouse stores the joined key.
  EXPECT_TRUE(server->warehouse_for_testing()->HasDataset("acme.sales"));

  ASSERT_TRUE(client->DropDataset("acme", "sales").ok());
  EXPECT_FALSE(server->warehouse_for_testing()->HasDataset("acme.sales"));
  EXPECT_TRUE(client->DropDataset("acme", "sales").IsNotFound());
}

TEST(ServerTest, RollInQueryRollOutRoundTrip) {
  auto server = MustStart(TestServerOptions());
  ASSERT_NE(server, nullptr);
  auto client = MustConnect(*server);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->CreateTenant("acme", {}).ok());
  ASSERT_TRUE(client->CreateDataset("acme", "sales").ok());

  std::vector<PartitionId> ids;
  for (int p = 0; p < 5; ++p) {
    auto id = client->RollIn("acme", "sales", MakeReservoirSample(p * 10, 4),
                             /*min_timestamp=*/p, /*max_timestamp=*/p);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
  }

  auto parts = client->ListPartitions("acme", "sales");
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts.value().size(), 5u);
  EXPECT_EQ(parts.value()[2].parent_size, 4u);
  EXPECT_EQ(parts.value()[2].min_timestamp, 2u);

  // The remote merged sample must be bit-identical to what the embedded
  // warehouse computes — the wire adds transport, never randomness.
  auto remote = client->Query("acme", "sales");
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  auto local = server->warehouse_for_testing()->MergedSampleAll("acme.sales");
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(SampleBytes(remote.value()), SampleBytes(local.value()));

  // Subset query, same contract.
  const std::vector<PartitionId> subset = {ids[0], ids[2], ids[4]};
  auto remote_subset = client->Query("acme", "sales", subset);
  ASSERT_TRUE(remote_subset.ok());
  auto local_subset =
      server->warehouse_for_testing()->MergedSample("acme.sales", subset);
  ASSERT_TRUE(local_subset.ok());
  EXPECT_EQ(SampleBytes(remote_subset.value()),
            SampleBytes(local_subset.value()));

  ASSERT_TRUE(client->RollOut("acme", "sales", ids[1]).ok());
  EXPECT_TRUE(client->RollOut("acme", "sales", ids[1]).IsNotFound());
  auto after = client->ListPartitions("acme", "sales");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().size(), 4u);
}

TEST(ServerTest, RollInAtPlacesExplicitIds) {
  auto server = MustStart(TestServerOptions());
  ASSERT_NE(server, nullptr);
  auto client = MustConnect(*server);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->CreateTenant("acme", {}).ok());
  ASSERT_TRUE(client->CreateDataset("acme", "sales").ok());

  auto placed =
      client->RollInAt("acme", "sales", 7, MakeReservoirSample(0, 3));
  ASSERT_TRUE(placed.ok());
  EXPECT_EQ(placed.value(), 7u);
  EXPECT_TRUE(
      client->RollInAt("acme", "sales", 7, MakeReservoirSample(10, 3))
          .status()
          .IsAlreadyExists());
  // The allocator stays ahead of explicit ids.
  auto allocated = client->RollIn("acme", "sales", MakeReservoirSample(20, 3));
  ASSERT_TRUE(allocated.ok());
  EXPECT_EQ(allocated.value(), 8u);
}

TEST(ServerTest, StreamingIngestIsExactlyOnceOverTheWire) {
  ServerOptions options = TestServerOptions();
  options.ingest_partition_elements = 64;
  auto server = MustStart(std::move(options));
  ASSERT_NE(server, nullptr);
  auto client = MustConnect(*server);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->CreateTenant("acme", {}).ok());
  ASSERT_TRUE(client->CreateDataset("acme", "events").ok());

  auto open = client->IngestOpen("acme", "events");
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  EXPECT_EQ(open.value().next_sequence, 0u);

  std::vector<Value> batch(50);
  for (size_t i = 0; i < batch.size(); ++i) batch[i] = static_cast<Value>(i);
  auto first = client->IngestAppend("acme", "events", 0, batch);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().next_sequence, 50u);

  // At-least-once delivery: the duplicate is acknowledged and skipped.
  auto duplicate = client->IngestAppend("acme", "events", 0, batch);
  ASSERT_TRUE(duplicate.ok());
  EXPECT_EQ(duplicate.value().next_sequence, 50u);

  // A straddling batch applies only its unapplied suffix (crosses the
  // 64-element partition boundary, so one partition rolls in).
  auto straddle = client->IngestAppend("acme", "events", 25, batch);
  ASSERT_TRUE(straddle.ok());
  EXPECT_EQ(straddle.value().next_sequence, 75u);
  EXPECT_EQ(straddle.value().partitions_rolled_in, 1u);

  // A delivery gap is a typed error, nothing applied.
  EXPECT_TRUE(client->IngestAppend("acme", "events", 100, batch)
                  .status()
                  .IsFailedPrecondition());

  auto flushed = client->IngestFlush("acme", "events");
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(flushed.value().next_sequence, 75u);
  EXPECT_EQ(flushed.value().partitions_rolled_in, 2u);

  auto parts = client->ListPartitions("acme", "events");
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts.value().size(), 2u);
  EXPECT_EQ(parts.value()[0].parent_size, 64u);
  EXPECT_EQ(parts.value()[1].parent_size, 11u);

  EXPECT_TRUE(client->IngestAppend("acme", "ghost", 0, batch)
                  .status()
                  .IsFailedPrecondition());
}

// A session checkpoints at its resume points only: the open's snapshot and
// one record per partition close, after its roll-in, none in between,
// however long a partition runs. A record goes to the WAL or, where the
// WAL bound promotes it, becomes a snapshot generation of its own.
TEST(ServerTest, IngestSessionCheckpointsOnlyAtCloses) {
  constexpr uint64_t kPartition = 6 * 4096;
  constexpr uint64_t kCloses = 3;
  for (const uint64_t wal_bound : {uint64_t{1} << 20, uint64_t{1}}) {
    SCOPED_TRACE("snapshot_every_wal_bytes " + std::to_string(wal_bound));
    ServerOptions options = TestServerOptions();
    options.ingest_partition_elements = kPartition;
    options.ingest_checkpoints.snapshot_every_wal_bytes = wal_bound;
    auto server = MustStart(std::move(options));
    ASSERT_NE(server, nullptr);
    auto client = MustConnect(*server);
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->CreateTenant("acme", {}).ok());
    ASSERT_TRUE(client->CreateDataset("acme", "events").ok());
    ASSERT_TRUE(client->IngestOpen("acme", "events").ok());
    Warehouse* warehouse = server->warehouse_for_testing();
    const StoreStats before = warehouse->store_for_testing()->GetStoreStats();

    // kCloses partitions, then most of one more.
    std::vector<Value> batch(4096);
    const uint64_t total = (kCloses + 1) * kPartition - batch.size();
    for (uint64_t sequence = 0; sequence < total; sequence += batch.size()) {
      for (size_t i = 0; i < batch.size(); ++i) {
        batch[i] = static_cast<Value>(sequence + i);
      }
      auto appended = client->IngestAppend("acme", "events", sequence, batch);
      ASSERT_TRUE(appended.ok()) << appended.status().ToString();
    }

    const StoreStats after = warehouse->store_for_testing()->GetStoreStats();
    const uint64_t snapshots =
        after.checkpoints_written - before.checkpoints_written;
    const uint64_t wal_records =
        after.wal_records_appended - before.wal_records_appended;
    EXPECT_EQ(wal_records + snapshots, kCloses);
    if (wal_bound == uint64_t{1} << 20) {
      EXPECT_EQ(snapshots, 0u);
    }

    auto chain = warehouse->GetIngestCheckpointChain("acme.events");
    ASSERT_TRUE(chain.ok()) << chain.status().ToString();
    for (const std::string& bytes : chain.value().deltas) {
      auto record = CheckpointDeltaRecord::Deserialize(bytes);
      ASSERT_TRUE(record.ok()) << record.status().ToString();
      EXPECT_EQ(record.value().kind, CheckpointDeltaKind::kClosePending);
    }
    // A resume lands on the record of the last close.
    auto resolved = ResolveCheckpointChain(chain.value());
    ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
    EXPECT_EQ(resolved.value().next_sequence, kCloses * kPartition);
    EXPECT_EQ(resolved.value().rolled_in.size(), kCloses);
  }
}

TEST(ServerTest, DropDatasetEndsItsIngestStream) {
  ServerOptions options = TestServerOptions();
  options.ingest_partition_elements = 64;
  auto server = MustStart(std::move(options));
  ASSERT_NE(server, nullptr);
  auto client = MustConnect(*server);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->CreateTenant("acme", {}).ok());
  ASSERT_TRUE(client->CreateDataset("acme", "events").ok());

  ASSERT_TRUE(client->IngestOpen("acme", "events").ok());
  std::vector<Value> batch(100);
  for (size_t i = 0; i < batch.size(); ++i) batch[i] = static_cast<Value>(i);
  auto appended = client->IngestAppend("acme", "events", 0, batch);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_EQ(appended.value().partitions_rolled_in, 1u);

  // Dropping the dataset ends the stream together with its checkpoints.
  ASSERT_TRUE(client->DropDataset("acme", "events").ok());
  Warehouse* warehouse = server->warehouse_for_testing();
  auto checkpoints = warehouse->ListIngestCheckpoints();
  ASSERT_TRUE(checkpoints.ok());
  EXPECT_TRUE(checkpoints.value().empty());
  EXPECT_TRUE(warehouse->GetIngestCheckpointChain("acme.events")
                  .status()
                  .IsNotFound());

  // A recreated dataset starts a fresh stream, not the dropped one's.
  ASSERT_TRUE(client->CreateDataset("acme", "events").ok());
  auto reopened = client->IngestOpen("acme", "events");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().next_sequence, 0u);
  EXPECT_EQ(reopened.value().partitions_rolled_in, 0u);
}

TEST(ServerTest, ShutdownVerbStopsTheServer) {
  auto server = MustStart(TestServerOptions());
  ASSERT_NE(server, nullptr);
  auto client = MustConnect(*server);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Shutdown().ok());
  server->Stop();
  EXPECT_TRUE(server->stopped());
  EXPECT_FALSE(
      WarehouseClient::Connect(server->host(), server->port()).ok());
}

TEST(ServerTest, ShutdownVerbCanBeDisabled) {
  ServerOptions options = TestServerOptions();
  options.allow_remote_shutdown = false;
  auto server = MustStart(std::move(options));
  ASSERT_NE(server, nullptr);
  auto client = MustConnect(*server);
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Shutdown().IsFailedPrecondition());
  EXPECT_FALSE(server->stop_requested());
}

TEST(ServerTest, RestartListsPartitionsOnlyTheCatalogLogHolds) {
  // Tenants are not persisted; the catalog is.
  ScopedTempDir dir("sampwh_server_restart");
  ServerOptions options = TestServerOptions();
  options.store_directory = dir.path();
  options.bootstrap_tenants["acme"] = TenantQuota{};
  const std::string manifest = dir.path() + "/MANIFEST";

  std::vector<PartitionId> ids;
  {
    auto server = MustStart(options);
    ASSERT_NE(server, nullptr);
    auto client = MustConnect(*server);
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->CreateDataset("acme", "sales").ok());
    for (int p = 0; p < 5; ++p) {
      auto id = client->RollIn("acme", "sales", MakeReservoirSample(p * 10, 4),
                               /*min_timestamp=*/p, /*max_timestamp=*/p);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids.push_back(id.value());
    }
    server->Stop();
  }
  // The snapshot alone misses the last roll-in: only the log holds it.
  std::string snapshot;
  ASSERT_TRUE(ReadFile(manifest, &snapshot).ok());
  std::string_view payload;
  ASSERT_TRUE(DecodeStoredFile(snapshot, manifest, &payload).ok());
  BinaryReader reader(payload);
  const Result<Catalog> on_disk = Catalog::DeserializeFrom(&reader);
  ASSERT_TRUE(on_disk.ok());
  EXPECT_LT(on_disk.value().ListPartitions("acme.sales").value().size(),
            ids.size());

  auto server = MustStart(options);
  ASSERT_NE(server, nullptr);
  auto client = MustConnect(*server);
  ASSERT_NE(client, nullptr);
  auto parts = client->ListPartitions("acme", "sales");
  ASSERT_TRUE(parts.ok()) << parts.status().ToString();
  std::vector<PartitionId> listed;
  for (const PartitionInfo& p : parts.value()) listed.push_back(p.id);
  EXPECT_EQ(listed, ids);
}

}  // namespace
}  // namespace sampwh
