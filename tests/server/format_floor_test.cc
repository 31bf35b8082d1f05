// The format floor: this build reads only the stored format it writes. A
// store whose samples, checkpoint snapshots or MANIFEST are in the layout
// of older builds (tests/warehouse/older_layout.h) is refused with
// FailedPrecondition naming a file of it, by every way a store is opened:
// Warehouse::Restore, Warehouse::RestoreWithRecovery, WarehouseServer::Start
// and `sampwh_tool inspect`. A refused store is left exactly as it was:
// nothing is quarantined, deleted or rewritten.

#include <cstdio>
#include <span>
#include <string>
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

/// `sampwh_tool inspect` of the store: its exit code and what it printed.
std::pair<int, std::string> Inspect(const std::string& dir) {
  const std::string command = std::string(SAMPWH_TOOL_PATH) + " inspect " +
                              dir + " " + dir + "/MANIFEST 2>&1";
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

/// Opens the store at `dir` every way there is and expects each to refuse
/// it with FailedPrecondition naming a file whose name contains `named`,
/// with every file of the store left as it was.
void ExpectRefusedByEveryOpen(const std::string& dir,
                              const std::string& named) {
  const auto before = older_layout::DirectoryContents(dir);
  const auto expect_refusal = [&](const Status& status, const char* by) {
    EXPECT_TRUE(status.IsFailedPrecondition()) << by << ": "
                                               << status.ToString();
    EXPECT_NE(status.message().find(dir + "/"), std::string::npos)
        << by << ": " << status.ToString();
    EXPECT_NE(status.message().find(named), std::string::npos)
        << by << ": " << status.ToString();
    EXPECT_EQ(older_layout::DirectoryContents(dir), before) << by;
  };
  const WarehouseOptions options = StoreOptions(dir);
  expect_refusal(Warehouse::Restore(options, FileSampleStore::Open(dir).value(),
                                    options.manifest_path)
                     .status(),
                 "Restore");
  expect_refusal(
      Warehouse::RestoreWithRecovery(options,
                                     FileSampleStore::Open(dir).value(),
                                     options.manifest_path)
          .status(),
      "RestoreWithRecovery");
  ServerOptions server_options = TestServerOptions();
  server_options.store_directory = dir;
  expect_refusal(WarehouseServer::Start(server_options).status(),
                 "WarehouseServer::Start");
  const auto [code, out] = Inspect(dir);
  EXPECT_EQ(code, 1) << out;
  EXPECT_NE(out.find("FailedPrecondition"), std::string::npos) << out;
  EXPECT_NE(out.find(named), std::string::npos) << out;
  EXPECT_EQ(older_layout::DirectoryContents(dir), before) << "inspect";
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

}  // namespace
}  // namespace sampwh
