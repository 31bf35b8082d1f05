// The format floor: this build reads only the stored format it writes. A
// store whose samples, checkpoint snapshots or MANIFEST are in the layout
// of older builds (tests/warehouse/older_layout.h) is refused with
// FailedPrecondition naming a file of it, by every way a store is opened:
// Warehouse::Restore, Warehouse::RestoreWithRecovery, WarehouseServer::Start
// and `sampwh_tool inspect`. So is a catalog snapshot or log of the layout
// before close keys. A version-1 checkpoint record, and a chain that ends in
// a version-1 checkpoint A, is refused by every way the checkpoints are
// read: the recovering restore, the server start, StreamIngestor::Resume
// and `sampwh_tool checkpoints`. A refused store is left exactly as it was:
// nothing is quarantined, deleted or rewritten.

#include <cstdio>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "src/server/server.h"
#include "src/util/serialization.h"
#include "src/warehouse/stream_ingestor.h"
#include "src/warehouse/warehouse.h"
#include "tests/server/server_test_util.h"
#include "tests/warehouse/older_layout.h"

namespace sampwh {
namespace {

WarehouseOptions StoreOptions(const std::string& dir) {
  WarehouseOptions options;
  options.sampler.footprint_bound_bytes = 512;
  options.manifest_path = dir + "/MANIFEST";
  return options;
}

/// Writes a store in this build's format: three rolled-in partitions, a
/// checkpoint of an open streamed partition, and the MANIFEST snapshot.
void WriteStore(const std::string& dir) {
  auto store = FileSampleStore::Open(dir);
  ASSERT_TRUE(store.ok());
  Warehouse wh(StoreOptions(dir), std::move(store).value());
  ASSERT_TRUE(wh.CreateDataset("events").ok());
  std::vector<Value> values;
  for (Value v = 0; v < 3000; ++v) values.push_back(v);
  ASSERT_TRUE(wh.IngestBatch("events", values, 3).ok());
  StreamIngestor ingestor(&wh, "events", MakeCountPartitioner(250));
  ASSERT_TRUE(
      ingestor.AppendBatchAt(0, std::span<const Value>(values).first(100))
          .ok());
  ASSERT_TRUE(ingestor.Checkpoint().ok());
  ASSERT_TRUE(wh.SaveManifest(StoreOptions(dir).manifest_path).ok());
}

/// `sampwh_tool <args>`: its exit code and what it printed.
std::pair<int, std::string> RunTool(const std::string& args) {
  const std::string command =
      std::string(SAMPWH_TOOL_PATH) + " " + args + " 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return {-1, ""};
  std::string out;
  char buf[4096];
  for (size_t n; (n = std::fread(buf, 1, sizeof(buf), pipe)) > 0;) {
    out.append(buf, n);
  }
  const int status = ::pclose(pipe);
  return {WEXITSTATUS(status), out};
}

/// Expects each way of opening the store at `dir` handed to it to refuse
/// the store with FailedPrecondition naming a file whose name contains
/// `named`, with every file of the store left as it was.
class RefusalCheck {
 public:
  RefusalCheck(std::string dir, std::string named)
      : dir_(std::move(dir)),
        named_(std::move(named)),
        before_(older_layout::DirectoryContents(dir_)) {}

  void Expect(const Status& status, const char* by) const {
    EXPECT_TRUE(status.IsFailedPrecondition()) << by << ": "
                                               << status.ToString();
    EXPECT_NE(status.message().find(dir_ + "/"), std::string::npos)
        << by << ": " << status.ToString();
    EXPECT_NE(status.message().find(named_), std::string::npos)
        << by << ": " << status.ToString();
    EXPECT_EQ(older_layout::DirectoryContents(dir_), before_) << by;
  }

  /// `sampwh_tool <args>` fails, naming the file.
  void ExpectTool(const std::string& args) const {
    const auto [code, out] = RunTool(args);
    EXPECT_EQ(code, 1) << out;
    EXPECT_NE(out.find("FailedPrecondition"), std::string::npos) << out;
    EXPECT_NE(out.find(named_), std::string::npos) << out;
    EXPECT_EQ(older_layout::DirectoryContents(dir_), before_) << args;
  }

  /// The recovering restore and the server start, which runs it.
  void ExpectRecoveringOpens() const {
    const WarehouseOptions options = StoreOptions(dir_);
    Expect(Warehouse::RestoreWithRecovery(options,
                                          FileSampleStore::Open(dir_).value(),
                                          options.manifest_path)
               .status(),
           "RestoreWithRecovery");
    ServerOptions server_options = TestServerOptions();
    server_options.store_directory = dir_;
    Expect(WarehouseServer::Start(server_options).status(),
           "WarehouseServer::Start");
  }

 private:
  const std::string dir_;
  const std::string named_;
  const std::map<std::string, std::string> before_;
};

/// Opens the store at `dir` every way there is and expects each to refuse
/// it, naming a file whose name contains `named` (RefusalCheck).
void ExpectRefusedByEveryOpen(const std::string& dir,
                              const std::string& named) {
  const RefusalCheck check(dir, named);
  const WarehouseOptions options = StoreOptions(dir);
  check.Expect(Warehouse::Restore(options, FileSampleStore::Open(dir).value(),
                                  options.manifest_path)
                   .status(),
               "Restore");
  check.ExpectRecoveringOpens();
  check.ExpectTool("inspect " + dir + " " + dir + "/MANIFEST");
}

/// Reads the ingest checkpoints of the store at `dir` every way there is
/// and expects each to refuse them, naming a file whose name contains
/// `named` (RefusalCheck). A plain restore reads no checkpoint, so it
/// opens the store and the resume after it refuses.
void ExpectCheckpointsRefused(const std::string& dir,
                              const std::string& named) {
  const RefusalCheck check(dir, named);
  check.ExpectRecoveringOpens();
  const WarehouseOptions options = StoreOptions(dir);
  auto restored = Warehouse::Restore(
      options, FileSampleStore::Open(dir).value(), options.manifest_path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  check.Expect(StreamIngestor::Resume(restored.value().get(), "events",
                                      MakeCountPartitioner(250))
                   .status(),
               "StreamIngestor::Resume");
  check.ExpectTool("checkpoints " + dir);
}

/// The payload of the stored file at `path`.
std::string StoredPayload(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(ReadFile(path, &bytes).ok()) << path;
  std::string_view payload;
  EXPECT_TRUE(DecodeStoredFile(bytes, path, &payload).ok()) << path;
  return std::string(payload);
}

/// Appends to the newest checkpoint chain of the stream in `dir` a
/// version-1 checkpoint A of its state, with a stored sample of the store
/// pending roll-in.
void AppendPreviousCheckpointA(const std::string& dir) {
  auto chain = FileSampleStore::Open(dir).value()->GetCheckpointChain("events");
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  const std::string stem =
      dir + "/events." + std::to_string(chain.value().generation);
  std::string wal;
  AppendFrame(&wal, older_layout::PreviousCheckpointA(
                        chain.value().snapshot,
                        StoredPayload(dir + "/events.0.sample")));
  ASSERT_TRUE(AppendBytesToFile(stem + ".wal", wal).ok());
}

TEST(FormatFloorTest, StoreOfTheOlderLayoutIsRefusedAndLeftAsItWas) {
  ScopedTempDir dir("sampwh_floor");
  ASSERT_NO_FATAL_FAILURE(WriteStore(dir.path()));
  // This build opens its own store.
  ASSERT_TRUE(Warehouse::Restore(StoreOptions(dir.path()),
                                 FileSampleStore::Open(dir.path()).value(),
                                 dir.path() + "/MANIFEST")
                  .ok());
  ASSERT_NO_FATAL_FAILURE(older_layout::Rewrite(dir.path()));
  ASSERT_NO_FATAL_FAILURE(ExpectRefusedByEveryOpen(dir.path(), "MANIFEST"));
}

TEST(FormatFloorTest, OlderSamplesAndCheckpointsAreRefusedBehindANewManifest) {
  // Only the samples and the checkpoint snapshot are of the older layout:
  // the refusal comes from the store's own decodes, in recovery's scan
  // before it changes anything and in the reads of a plain restore.
  ScopedTempDir dir("sampwh_floor_samples");
  ASSERT_NO_FATAL_FAILURE(WriteStore(dir.path()));
  const std::string manifest = dir.path() + "/MANIFEST";
  std::string framed;
  ASSERT_TRUE(ReadFile(manifest, &framed).ok());
  ASSERT_NO_FATAL_FAILURE(older_layout::Rewrite(dir.path()));
  ASSERT_TRUE(WriteFileAtomic(manifest, framed).ok());
  ASSERT_NO_FATAL_FAILURE(ExpectRefusedByEveryOpen(dir.path(), ".sample"));
}

TEST(FormatFloorTest, CatalogSnapshotOfThePreviousLayoutIsRefused) {
  ScopedTempDir dir("sampwh_floor_swm1");
  ASSERT_NO_FATAL_FAILURE(WriteStore(dir.path()));
  const std::string manifest = dir.path() + "/MANIFEST";
  ASSERT_TRUE(WriteFileAtomic(manifest,
                              EncodeFrame(older_layout::PreviousCatalogSnapshot(
                                  StoredPayload(manifest))))
                  .ok());
  ASSERT_NO_FATAL_FAILURE(ExpectRefusedByEveryOpen(dir.path(), "MANIFEST"));
}

TEST(FormatFloorTest, CatalogLogOfThePreviousLayoutIsRefused) {
  ScopedTempDir dir("sampwh_floor_log");
  ASSERT_NO_FATAL_FAILURE(WriteStore(dir.path()));
  const WarehouseOptions options = StoreOptions(dir.path());
  {
    // One more roll-in, which only the catalog log records.
    auto restored =
        Warehouse::Restore(options, FileSampleStore::Open(dir.path()).value(),
                           options.manifest_path);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    std::vector<Value> values(500);
    for (size_t i = 0; i < values.size(); ++i) values[i] = Value(i);
    ASSERT_TRUE(restored.value()->IngestBatch("events", values, 1).ok());
  }
  const std::string log = CatalogLog::PathFor(options.manifest_path);
  std::string bytes;
  ASSERT_TRUE(ReadFile(log, &bytes).ok());
  ASSERT_FALSE(bytes.empty());
  ASSERT_TRUE(
      WriteFileAtomic(log, older_layout::PreviousCatalogLog(bytes)).ok());
  ASSERT_NO_FATAL_FAILURE(
      ExpectRefusedByEveryOpen(dir.path(), "MANIFEST.log"));
}

TEST(FormatFloorTest, CheckpointsOfThePreviousVersionAreRefused) {
  // Every snapshot generation is a version-1 record, and the newest chain
  // ends in a version-1 checkpoint A.
  ScopedTempDir dir("sampwh_floor_ckpt_v1");
  ASSERT_NO_FATAL_FAILURE(WriteStore(dir.path()));
  ASSERT_NO_FATAL_FAILURE(AppendPreviousCheckpointA(dir.path()));
  for (const auto& [name, bytes] :
       older_layout::DirectoryContents(dir.path())) {
    if (std::filesystem::path(name).extension() != ".ckpt") continue;
    const std::string path = dir.path() + "/" + name;
    ASSERT_TRUE(WriteFileAtomic(path,
                                EncodeFrame(older_layout::PreviousCheckpointRecord(
                                    StoredPayload(path), "")))
                    .ok());
  }
  ASSERT_NO_FATAL_FAILURE(ExpectCheckpointsRefused(dir.path(), ".ckpt"));
}

TEST(FormatFloorTest, ChainEndingInAPreviousCheckpointAIsRefused) {
  // The snapshot is this build's; only the record the chain ends in is a
  // version-1 checkpoint A.
  ScopedTempDir dir("sampwh_floor_ckpt_a");
  ASSERT_NO_FATAL_FAILURE(WriteStore(dir.path()));
  ASSERT_NO_FATAL_FAILURE(AppendPreviousCheckpointA(dir.path()));
  ASSERT_NO_FATAL_FAILURE(ExpectCheckpointsRefused(dir.path(), ".wal"));
}

}  // namespace
}  // namespace sampwh
