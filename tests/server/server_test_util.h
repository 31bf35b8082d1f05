// Shared fixtures for the warehouse-server test battery: in-process
// servers on ephemeral loopback ports, and small deterministic samples.

#ifndef SAMPWH_TESTS_SERVER_SERVER_TEST_UTIL_H_
#define SAMPWH_TESTS_SERVER_SERVER_TEST_UTIL_H_

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/types.h"
#include "src/server/client.h"
#include "src/server/server.h"

namespace sampwh {

/// Server options every server test starts from: in-memory store,
/// ephemeral port (bind 0, read back — never a fixed number that parallel
/// ctest processes could race on), merge memo enabled (as in a
/// deployment; it is a cache and changes no answer), and a short read
/// timeout so hostile-peer tests run fast.
inline ServerOptions TestServerOptions(uint64_t seed = 0x5157313136ULL) {
  ServerOptions options;
  options.port = 0;
  options.read_timeout_millis = 2'000;
  options.warehouse.seed = seed;
  options.warehouse.merge_memo_bytes = 4u << 20;
  options.warehouse.sampler.footprint_bound_bytes = 512;
  options.ingest_partition_elements = 256;
  return options;
}

/// A store directory under the test temp dir, named `name` plus this
/// process's pid, empty when created and removed with its contents at scope
/// exit. A directory left by an earlier run whose pid this process reuses
/// would hold that run's catalog and store, so creation empties it first.
/// Forked children execv or _exit, so only the creating process removes it.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& name)
      : path_(::testing::TempDir() + name + "_" +
              std::to_string(::getpid())) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ScopedTempDir(ScopedTempDir&& other) noexcept
      : path_(std::exchange(other.path_, {})) {}
  ScopedTempDir& operator=(ScopedTempDir&& other) noexcept {
    std::swap(path_, other.path_);
    return *this;
  }
  ~ScopedTempDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

inline std::unique_ptr<WarehouseServer> MustStart(ServerOptions options) {
  auto server = WarehouseServer::Start(std::move(options));
  if (!server.ok()) {
    ADD_FAILURE() << "server start failed: " << server.status().ToString();
    return nullptr;
  }
  return std::move(server).value();
}

inline std::unique_ptr<WarehouseClient> MustConnect(
    const WarehouseServer& server, ClientOptions options = {}) {
  auto client =
      WarehouseClient::Connect(server.host(), server.port(), options);
  if (!client.ok()) {
    ADD_FAILURE() << "connect failed: " << client.status().ToString();
    return nullptr;
  }
  return std::move(client).value();
}

/// A reservoir sample holding `count` distinct values starting at `first`,
/// covering its whole parent (merges over such samples stay on the HR
/// path with observable value sets).
inline PartitionSample MakeReservoirSample(Value first, uint64_t count) {
  CompactHistogram h;
  for (uint64_t i = 0; i < count; ++i) {
    h.Insert(first + static_cast<Value>(i), 1);
  }
  return PartitionSample::MakeReservoir(h, count,
                                        count * kSingletonFootprintBytes);
}

inline std::string SampleBytes(const PartitionSample& sample) {
  BinaryWriter writer;
  sample.SerializeTo(&writer);
  return writer.Release();
}

}  // namespace sampwh

#endif  // SAMPWH_TESTS_SERVER_SERVER_TEST_UTIL_H_
