// End-to-end crash-resume over the wire: a real `sampwh_tool serve`
// process is SIGKILLed mid-ingest at seeded batch indices, restarted on
// the same store, and the client re-drives its stream at-least-once from
// sequence 0 after every crash. The final warehouse state — merged query
// bytes and partition metadata — must be BIT-IDENTICAL to an uninterrupted
// run of the same stream against a separate store. This exercises the
// whole durability stack through the RPC front end: the forced checkpoint
// before the IngestOpen ack, the partition close's keyed roll-in and its
// resume-point record, the delta WAL, the catalog log, and duplicate-batch
// acknowledgment on replay.

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "src/server/client.h"
#include "tests/server/server_test_util.h"

namespace sampwh {
namespace {

constexpr uint64_t kTotalElements = 400;
constexpr uint64_t kBatchElements = 37;
constexpr uint64_t kPartitionElements = 64;

Value ElementAt(uint64_t i) {
  return static_cast<Value>((i * 2654435761ull) % 1000);
}

std::vector<Value> BatchAt(uint64_t batch) {
  const uint64_t begin = batch * kBatchElements;
  const uint64_t end = std::min(kTotalElements, begin + kBatchElements);
  std::vector<Value> values;
  for (uint64_t i = begin; i < end; ++i) values.push_back(ElementAt(i));
  return values;
}

uint64_t NumBatches() {
  return (kTotalElements + kBatchElements - 1) / kBatchElements;
}

/// A `sampwh_tool serve` child process. Kill() delivers SIGKILL — the
/// crash under test; Shutdown() asks nicely over the wire. The destructor
/// SIGKILLs leftovers so a failing test never leaks a daemon.
class ServeProcess {
 public:
  static std::unique_ptr<ServeProcess> Start(const std::string& store_dir,
                                             const std::string& port_file) {
    ::unlink(port_file.c_str());
    const pid_t pid = ::fork();
    if (pid < 0) {
      ADD_FAILURE() << "fork: " << std::strerror(errno);
      return nullptr;
    }
    if (pid == 0) {
      const char* argv[] = {SAMPWH_TOOL_PATH,
                            "serve",
                            store_dir.c_str(),
                            "--port-file",
                            port_file.c_str(),
                            "--partition-elements",
                            "64",
                            "--tenant",
                            "acme",
                            nullptr};
      ::execv(SAMPWH_TOOL_PATH, const_cast<char* const*>(argv));
      ::_exit(127);  // exec failed
    }
    auto process = std::unique_ptr<ServeProcess>(new ServeProcess(pid));
    // The tool writes the port file (atomically) only once it is serving.
    for (int spin = 0; spin < 750; ++spin) {
      std::ifstream in(port_file);
      int port = 0;
      if (in >> port && port > 0) {
        process->port_ = static_cast<uint16_t>(port);
        return process;
      }
      ::usleep(20'000);
    }
    ADD_FAILURE() << "serve process never published its port";
    return nullptr;
  }

  ~ServeProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  uint16_t port() const { return port_; }

  /// SIGKILL — no flush, no checkpoint, no goodbye.
  void Kill() {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  /// Orderly remote shutdown; expects the process to exit cleanly.
  void Shutdown(WarehouseClient* client) {
    EXPECT_TRUE(client->Shutdown().ok());
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid_, &wstatus, 0), pid_);
    EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0);
    pid_ = -1;
  }

 private:
  explicit ServeProcess(pid_t pid) : pid_(pid) {}
  pid_t pid_;
  uint16_t port_ = 0;
};

std::unique_ptr<WarehouseClient> ConnectTo(const ServeProcess& process) {
  auto client = WarehouseClient::Connect("127.0.0.1", process.port());
  if (!client.ok()) {
    ADD_FAILURE() << "connect: " << client.status().ToString();
    return nullptr;
  }
  return std::move(client).value();
}

/// Re-drives the stream from sequence 0 through batch `last` inclusive —
/// at-least-once delivery: already-applied batches must be acknowledged
/// and skipped, new ones applied exactly once.
void DriveBatches(WarehouseClient* client, uint64_t last) {
  auto open = client->IngestOpen("acme", "events");
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  for (uint64_t b = 0; b <= last; ++b) {
    const std::vector<Value> values = BatchAt(b);
    auto ack =
        client->IngestAppend("acme", "events", b * kBatchElements, values);
    ASSERT_TRUE(ack.ok()) << "batch " << b << ": " << ack.status().ToString();
    EXPECT_GE(ack.value().next_sequence, b * kBatchElements + values.size());
  }
}

struct FinalState {
  std::string merged_bytes;
  std::vector<PartitionInfo> partitions;
};

void ReadFinalState(WarehouseClient* client, FinalState* out) {
  auto merged = client->Query("acme", "events");
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  out->merged_bytes = SampleBytes(merged.value());
  auto parts = client->ListPartitions("acme", "events");
  ASSERT_TRUE(parts.ok());
  out->partitions = parts.value();
}

TEST(CrashResumeTest, SigkilledIngestReplaysToBitIdenticalState) {
  // --- Uninterrupted reference run -----------------------------------------
  const ScopedTempDir ref("sampwh_crash_ref");
  const std::string& ref_dir = ref.path();
  FinalState reference;
  {
    auto server = ServeProcess::Start(ref_dir, ref_dir + "/port");
    ASSERT_NE(server, nullptr);
    auto client = ConnectTo(*server);
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->CreateDataset("acme", "events").ok());
    ASSERT_NO_FATAL_FAILURE(DriveBatches(client.get(), NumBatches() - 1));
    auto flushed = client->IngestFlush("acme", "events");
    ASSERT_TRUE(flushed.ok());
    EXPECT_EQ(flushed.value().next_sequence, kTotalElements);
    EXPECT_EQ(flushed.value().partitions_rolled_in,
              (kTotalElements + kPartitionElements - 1) / kPartitionElements);
    ASSERT_NO_FATAL_FAILURE(ReadFinalState(client.get(), &reference));
    server->Shutdown(client.get());
  }
  ASSERT_EQ(reference.partitions.size(), 7u);

  // --- Crashed run: SIGKILL mid-ingest at seeded batch indices -------------
  const ScopedTempDir crash("sampwh_crash_crash");
  const std::string& crash_dir = crash.path();
  const uint64_t crash_after_batch[] = {2, 5, 9};
  int restart = 0;
  {
    auto server =
        ServeProcess::Start(crash_dir, crash_dir + "/port.boot");
    ASSERT_NE(server, nullptr);
    auto client = ConnectTo(*server);
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->CreateDataset("acme", "events").ok());
    ASSERT_NO_FATAL_FAILURE(DriveBatches(client.get(), crash_after_batch[0]));
    server->Kill();
  }
  for (size_t c = 1; c < std::size(crash_after_batch); ++c, ++restart) {
    auto server = ServeProcess::Start(
        crash_dir, crash_dir + "/port." + std::to_string(restart));
    ASSERT_NE(server, nullptr);
    auto client = ConnectTo(*server);
    ASSERT_NE(client, nullptr);
    // Re-drive from 0: everything durable is acked as duplicate, the tail
    // replays against the checkpointed RNG.
    ASSERT_NO_FATAL_FAILURE(DriveBatches(client.get(), crash_after_batch[c]));
    server->Kill();
  }

  // --- Final restart: complete the stream and compare ----------------------
  FinalState resumed;
  {
    auto server = ServeProcess::Start(crash_dir, crash_dir + "/port.final");
    ASSERT_NE(server, nullptr);
    auto client = ConnectTo(*server);
    ASSERT_NE(client, nullptr);
    ASSERT_NO_FATAL_FAILURE(DriveBatches(client.get(), NumBatches() - 1));
    auto flushed = client->IngestFlush("acme", "events");
    ASSERT_TRUE(flushed.ok());
    EXPECT_EQ(flushed.value().next_sequence, kTotalElements);
    ASSERT_NO_FATAL_FAILURE(ReadFinalState(client.get(), &resumed));
    server->Shutdown(client.get());
  }

  // Bit-identical merged sample, identical partition metadata: the crashes
  // were invisible.
  EXPECT_EQ(resumed.merged_bytes, reference.merged_bytes);
  ASSERT_EQ(resumed.partitions.size(), reference.partitions.size());
  for (size_t i = 0; i < reference.partitions.size(); ++i) {
    EXPECT_EQ(resumed.partitions[i].id, reference.partitions[i].id);
    EXPECT_EQ(resumed.partitions[i].parent_size,
              reference.partitions[i].parent_size);
    EXPECT_EQ(resumed.partitions[i].sample_size,
              reference.partitions[i].sample_size);
  }
}

}  // namespace
}  // namespace sampwh
