// End-to-end checks for the sampwh_tool CLI: generate artifacts with the
// library, drive the real binary through its subcommands, and verify exit
// codes and on-disk effects.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/hybrid_reservoir.h"
#include "src/server/server.h"
#include "src/util/serialization.h"
#include "src/warehouse/checkpoint.h"
#include "src/warehouse/stream_ingestor.h"
#include "src/warehouse/warehouse.h"
#include "tests/server/server_test_util.h"

namespace sampwh {
namespace {

#ifndef SAMPWH_TOOL_PATH
#error "SAMPWH_TOOL_PATH must be defined by the build"
#endif

std::string ToolPath() { return SAMPWH_TOOL_PATH; }

int RunTool(const std::string& args) {
  const std::string command = ToolPath() + " " + args + " > /dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WEXITSTATUS(status);
}

// The tool's standard output for `args` (empty when it cannot be run).
std::string ToolOutput(const std::string& args) {
  const std::string command = ToolPath() + " " + args + " 2>/dev/null";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return "";
  std::string out;
  char buf[4096];
  for (size_t n; (n = std::fread(buf, 1, sizeof(buf), pipe)) > 0;) {
    out.append(buf, n);
  }
  ::pclose(pipe);
  return out;
}

class ToolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per process: parallel ctest runs cases concurrently, and a
    // shared directory would be remove_all'd mid-test by a sibling case.
    dir_ = (std::filesystem::temp_directory_path() /
            ("sampwh_tool_test_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string WriteSample(const std::string& name, Value begin, Value end) {
    HybridReservoirSampler::Options options;
    options.footprint_bound_bytes = 512;
    HybridReservoirSampler sampler(options, Pcg64(7));
    for (Value v = begin; v < end; ++v) sampler.Add(v);
    BinaryWriter writer;
    sampler.Finalize().SerializeTo(&writer);
    const std::string path = dir_ + "/" + name;
    EXPECT_TRUE(WriteFileAtomic(path, EncodeFrame(writer.buffer())).ok());
    return path;
  }

  std::string dir_;
};

TEST_F(ToolTest, NoArgumentsPrintsUsage) { EXPECT_EQ(RunTool(""), 2); }

TEST_F(ToolTest, UnknownCommandPrintsUsage) {
  EXPECT_EQ(RunTool("frobnicate x"), 2);
}

TEST_F(ToolTest, DumpSucceedsOnValidSample) {
  const std::string path = WriteSample("a.sample", 0, 5000);
  EXPECT_EQ(RunTool("dump " + path), 0);
}

TEST_F(ToolTest, DumpPrintsTheEncodingAndItsSize) {
  // The library writes SWS2 in one stored frame; dump names the encoding
  // and the payload's size, the file less its frame header.
  const std::string path = WriteSample("a.sample", 0, 5000);
  std::string file;
  ASSERT_TRUE(ReadFile(path, &file).ok());
  const std::string out = ToolOutput("dump " + path);
  EXPECT_NE(out.find("encoding:        SWS2, " +
                     std::to_string(file.size() - kFrameHeaderBytes) + " B\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("phase:"), std::string::npos) << out;
}

TEST_F(ToolTest, DumpFailsOnMissingFile) {
  EXPECT_EQ(RunTool("dump " + dir_ + "/nope.sample"), 1);
}

TEST_F(ToolTest, DumpFailsOnGarbage) {
  const std::string path = dir_ + "/garbage.sample";
  ASSERT_TRUE(WriteFileAtomic(path, "not a sample").ok());
  EXPECT_EQ(RunTool("dump " + path), 1);
}

TEST_F(ToolTest, ProfileAndEstimateSucceed) {
  const std::string path = WriteSample("b.sample", 0, 5000);
  EXPECT_EQ(RunTool("profile " + path), 0);
  EXPECT_EQ(RunTool("estimate " + path + " mean"), 0);
  EXPECT_EQ(RunTool("estimate " + path + " sum"), 0);
  EXPECT_EQ(RunTool("estimate " + path + " distinct"), 0);
  EXPECT_EQ(RunTool("estimate " + path + " bogus"), 1);
}

TEST_F(ToolTest, MergeProducesLoadableEnvelopedSample) {
  const std::string a = WriteSample("a.sample", 0, 4000);
  const std::string b = WriteSample("b.sample", 4000, 8000);
  const std::string out = dir_ + "/merged.sample";
  EXPECT_EQ(RunTool("merge " + out + " " + a + " " + b), 0);
  std::string bytes;
  ASSERT_TRUE(ReadFile(out, &bytes).ok());
  // Merge output is a stored sample file: one checksummed frame.
  std::string_view payload;
  ASSERT_TRUE(DecodeStoredFile(bytes, out, &payload).ok());
  const auto merged = PartitionSample::DeserializeWhole(payload);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().parent_size(), 8000u);
  // And the tool reads its own output back.
  EXPECT_EQ(RunTool("dump " + out), 0);
}

TEST_F(ToolTest, DumpReadsStoreWrittenEnvelopedFiles) {
  // Files written by FileSampleStore are one frame; dump must read them,
  // and must reject them once a payload byte is flipped.
  const std::string store_dir = dir_ + "/store";
  std::string path;
  {
    auto store = FileSampleStore::Open(store_dir);
    ASSERT_TRUE(store.ok());
    WarehouseOptions options;
    options.sampler.footprint_bound_bytes = 512;
    Warehouse wh(options, std::move(store).value());
    ASSERT_TRUE(wh.CreateDataset("ds").ok());
    std::vector<Value> values;
    for (Value v = 0; v < 2000; ++v) values.push_back(v);
    ASSERT_TRUE(wh.IngestBatch("ds", values, 1).ok());
  }
  for (const auto& entry : std::filesystem::directory_iterator(store_dir)) {
    if (entry.path().extension() == ".sample") path = entry.path().string();
  }
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(RunTool("dump " + path), 0);
  EXPECT_EQ(RunTool("profile " + path), 0);

  std::string bytes;
  ASSERT_TRUE(ReadFile(path, &bytes).ok());
  bytes[kFrameHeaderBytes] ^= 0x40;
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
  EXPECT_EQ(RunTool("dump " + path), 1);
}

TEST_F(ToolTest, CheckpointsPrintsChainStructure) {
  const std::string store_dir = dir_ + "/ckpt_store";
  {
    auto store = FileSampleStore::Open(store_dir);
    ASSERT_TRUE(store.ok());
    IngestCheckpoint snapshot;
    snapshot.next_sequence = 100;
    ASSERT_TRUE(store.value()->PutCheckpoint("ds", snapshot.Serialize()).ok());
    IngestCheckpoint opened;
    opened.next_sequence = 150;
    CheckpointDeltaRecord open_record;
    open_record.checkpoint_payload = opened.Serialize();
    IngestCheckpoint closed;
    closed.next_sequence = 180;
    closed.next_close_key = 4;
    CheckpointDeltaRecord close_record;
    close_record.checkpoint_payload = closed.Serialize();
    ASSERT_TRUE(store.value()
                    ->AppendCheckpointDeltas("ds", {open_record.Serialize(),
                                                    close_record.Serialize()})
                    .ok());
  }
  const std::string out_path = dir_ + "/checkpoints.out";
  const std::string command =
      ToolPath() + " checkpoints " + store_dir + " > " + out_path + " 2>&1";
  ASSERT_EQ(WEXITSTATUS(std::system(command.c_str())), 0);
  std::string out;
  ASSERT_TRUE(ReadFile(out_path, &out).ok());
  // Summary line resolves the chain to the newest record's watermark and
  // next close key.
  EXPECT_NE(out.find("dataset ds: watermark 180"), std::string::npos) << out;
  EXPECT_NE(out.find("0 rolled in, next close key 4, age"), std::string::npos)
      << out;
  EXPECT_NE(out.find("snapshot verified, 2 delta record(s)"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("close-pending watermark 150, crc ok, verified"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("close-pending watermark 180, crc ok, verified"),
            std::string::npos)
      << out;
}

TEST_F(ToolTest, InspectRestoredWarehouse) {
  const std::string store_dir = dir_ + "/store";
  const std::string manifest = dir_ + "/MANIFEST";
  {
    auto store = FileSampleStore::Open(store_dir);
    ASSERT_TRUE(store.ok());
    WarehouseOptions options;
    options.sampler.footprint_bound_bytes = 512;
    Warehouse wh(options, std::move(store).value());
    ASSERT_TRUE(wh.CreateDataset("ds").ok());
    std::vector<Value> values;
    for (Value v = 0; v < 3000; ++v) values.push_back(v);
    ASSERT_TRUE(wh.IngestBatch("ds", values, 3).ok());
    ASSERT_TRUE(wh.SaveManifest(manifest).ok());
  }
  EXPECT_EQ(RunTool("inspect " + store_dir + " " + manifest), 0);
  EXPECT_EQ(RunTool("inspect " + store_dir + " " + dir_ + "/nope"), 1);
}

TEST_F(ToolTest, InspectSeesRecordsOnlyTheCatalogLogHolds) {
  const std::string store_dir = dir_ + "/store";
  const std::string manifest = store_dir + "/MANIFEST";
  {
    auto store = FileSampleStore::Open(store_dir);
    ASSERT_TRUE(store.ok());
    WarehouseOptions options;
    options.sampler.footprint_bound_bytes = 512;
    options.manifest_path = manifest;
    Warehouse wh(options, std::move(store).value());
    ASSERT_TRUE(wh.CreateDataset("ds").ok());
    std::vector<Value> values;
    for (Value v = 0; v < 3000; ++v) values.push_back(v);
    ASSERT_TRUE(wh.IngestBatch("ds", values, 3).ok());
    // No SaveManifest: the last roll-in is in the catalog log only.
  }
  ASSERT_GT(std::filesystem::file_size(manifest + ".log"), 0u);
  const std::string out = ToolOutput("inspect " + store_dir + " " + manifest);
  EXPECT_NE(out.find("dataset ds: 3 partitions, 3000 parent elements"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("  partition 2: parent 1000"), std::string::npos) << out;
}

TEST_F(ToolTest, InspectPrintsTheCloseKeysOfStreamedPartitions) {
  const std::string store_dir = dir_ + "/store";
  const std::string manifest = store_dir + "/MANIFEST";
  {
    auto store = FileSampleStore::Open(store_dir);
    ASSERT_TRUE(store.ok());
    WarehouseOptions options;
    options.sampler.footprint_bound_bytes = 512;
    options.manifest_path = manifest;
    Warehouse wh(options, std::move(store).value());
    ASSERT_TRUE(wh.CreateDataset("ds").ok());
    std::vector<Value> values;
    for (Value v = 0; v < 1000; ++v) values.push_back(v);
    ASSERT_TRUE(wh.IngestBatch("ds", values, 1).ok());
    StreamIngestor ingestor(&wh, "ds", MakeCountPartitioner(500));
    ingestor.EnableCheckpoints({});
    ASSERT_TRUE(ingestor.AppendBatch(values).ok());
    ASSERT_TRUE(ingestor.Flush().ok());
  }
  const std::string out = ToolOutput("inspect " + store_dir + " " + manifest);
  EXPECT_NE(out.find("  partition 0: parent 1000, sample"), std::string::npos)
      << out;
  EXPECT_NE(out.find("  partition 1: parent 500"), std::string::npos) << out;
  EXPECT_NE(out.find(", close key 1\n  partition 2: parent 500"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find(", close key 2\n"), std::string::npos) << out;
  // A batch-ingested partition has no close key.
  EXPECT_EQ(out.find("close key 0"), std::string::npos) << out;
  const size_t first = out.find("  partition 0:");
  ASSERT_NE(first, std::string::npos) << out;
  EXPECT_EQ(out.substr(first, out.find('\n', first) - first).find("close key"),
            std::string::npos)
      << out;
}

TEST_F(ToolTest, ServerStatsPrintsEveryCounterAligned) {
  ServerOptions options = TestServerOptions();
  options.read_timeout_millis = 0;
  auto server = MustStart(std::move(options));
  ASSERT_NE(server, nullptr);
  {
    auto client = MustConnect(*server);
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->CreateTenant("t", {}).ok());
    ASSERT_TRUE(client->CreateDataset("t", "a").ok());
    ASSERT_TRUE(client->CreateDataset("t", "b").ok());
    ASSERT_TRUE(client
                    ->ReplicaRollIn("t", "a", 1, MakeReservoirSample(0, 4), 0,
                                    0, /*heal=*/true)
                    .ok());
    ASSERT_TRUE(client->PartitionDigests("t", "a").ok());
    EXPECT_FALSE(client->CreateTenant("t", {}).ok());
  }
  EXPECT_EQ(ToolOutput("server-stats 127.0.0.1 " +
                       std::to_string(server->port())),
            "connections accepted: 2\n"
            "connections dropped:  0\n"
            "requests served:      7\n"
            "error responses:      1\n"
            "protocol errors:      0\n"
            "datasets:             2\n"
            "connections shed:     0\n"
            "deadlines exceeded:   0\n"
            "replica writes:       1\n"
            "failover reads:       0\n"
            "scrub rounds:         1\n"
            "partitions healed:    1\n"
            "digest mismatches:    0\n");
}

}  // namespace
}  // namespace sampwh
