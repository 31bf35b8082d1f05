// The bytes of a query answer on the wire. Whatever path the server takes to
// an answer — a cold merge, a memoized root, a root first memoized as an
// interior node, a single stored leaf, a memo-less walk — the length-prefixed
// blob in the response frame must be exactly SerializeTo of the embedded
// warehouse's copying MergedSample over the same catalog state.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/server/client.h"
#include "src/server/server.h"
#include "src/server/wire.h"
#include "tests/server/server_test_util.h"

namespace sampwh {
namespace {

constexpr char kTenant[] = "acme";
constexpr char kDataset[] = "sales";
constexpr char kKey[] = "acme.sales";

/// A raw loopback connection that sends kQuery requests and returns each
/// answer blob as it travelled: the response body's length-prefixed byte
/// string, undecoded.
class QueryConnection {
 public:
  explicit QueryConnection(const WarehouseServer& server) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    ::inet_pton(AF_INET, server.host().c_str(), &addr.sin_addr);
    if (fd_ >= 0 && ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                              sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
    if (fd_ >= 0) {
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      timeval timeout{};
      timeout.tv_sec = 5;
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    }
  }
  ~QueryConnection() {
    if (fd_ >= 0) ::close(fd_);
  }
  QueryConnection(const QueryConnection&) = delete;
  QueryConnection& operator=(const QueryConnection&) = delete;

  Result<std::string> Query(const std::vector<PartitionId>& ids) {
    if (fd_ < 0) return Status::IOError("not connected");
    BinaryWriter request;
    BeginRequest(&request, Verb::kQuery);
    request.PutString(kTenant);
    request.PutString(kDataset);
    request.PutVarint64(ids.size());
    for (const PartitionId id : ids) request.PutVarint64(id);
    SAMPWH_RETURN_IF_ERROR(WriteAll(fd_, EncodeFrame(request.buffer())));
    std::string payload;
    SAMPWH_RETURN_IF_ERROR(
        ReadFrame(fd_, kWireDefaultMaxFrameBytes, &payload));
    BinaryReader reader(payload);
    SAMPWH_RETURN_IF_ERROR(ParseResponseHead(&reader));
    std::string_view blob;
    SAMPWH_RETURN_IF_ERROR(reader.GetStringView(&blob));
    if (!reader.AtEnd()) return Status::Corruption("bytes after the blob");
    return std::string(blob);
  }

 private:
  int fd_ = -1;
};

Result<std::string> QueryBlob(const WarehouseServer& server,
                              const std::vector<PartitionId>& ids) {
  QueryConnection connection(server);
  return connection.Query(ids);
}

/// The reference: the copying library API over the same catalog state.
std::string ReferenceBytes(WarehouseServer& server,
                           const std::vector<PartitionId>& ids) {
  Warehouse* wh = server.warehouse_for_testing();
  const Result<PartitionSample> merged =
      ids.empty() ? wh->MergedSampleAll(kKey) : wh->MergedSample(kKey, ids);
  EXPECT_TRUE(merged.ok()) << merged.status().ToString();
  return merged.ok() ? SampleBytes(merged.value()) : std::string();
}

/// A started server holding five reservoir partitions large enough that
/// every merge purges (footprint bound 512 bytes).
std::unique_ptr<WarehouseServer> ServerWithPartitions(
    uint64_t merge_memo_bytes, std::vector<PartitionId>* ids) {
  ServerOptions options = TestServerOptions();
  options.warehouse.merge_memo_bytes = merge_memo_bytes;
  auto server = MustStart(std::move(options));
  if (server == nullptr) return nullptr;
  auto client = MustConnect(*server);
  if (client == nullptr) return nullptr;
  EXPECT_TRUE(client->CreateTenant(kTenant, {}).ok());
  EXPECT_TRUE(client->CreateDataset(kTenant, kDataset).ok());
  for (int p = 0; p < 5; ++p) {
    auto id = client->RollIn(kTenant, kDataset,
                             MakeReservoirSample(p * 1000, 40 + 7 * p));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    if (id.ok()) ids->push_back(id.value());
  }
  return server;
}

/// Queries `ids` over the wire and checks the blob against the reference
/// taken after it (so the reference never warms the server's memo first).
void ExpectWireBytesMatch(WarehouseServer& server,
                          const std::vector<PartitionId>& ids,
                          const std::string& what) {
  const Result<std::string> blob = QueryBlob(server, ids);
  ASSERT_TRUE(blob.ok()) << what << ": " << blob.status().ToString();
  EXPECT_EQ(blob.value(), ReferenceBytes(server, ids)) << what;
}

TEST(QueryBytesTest, EveryServingPathSendsTheCopyingEncodersBytes) {
  std::vector<PartitionId> ids;
  auto server = ServerWithPartitions(4u << 20, &ids);
  ASSERT_NE(server, nullptr);
  ASSERT_EQ(ids.size(), 5u);
  const std::vector<PartitionId> window = {ids[1], ids[2], ids[3], ids[4]};

  ExpectWireBytesMatch(*server, window, "cold miss");
  ExpectWireBytesMatch(*server, window, "warm root hit");
  // {1,2} was memoized as an interior node of the {1..4} tree; now it is
  // served as a root.
  ExpectWireBytesMatch(*server, {ids[1], ids[2]}, "interior node as root");
  ExpectWireBytesMatch(*server, {ids[1], ids[2]}, "interior node, again");
  ExpectWireBytesMatch(*server, {ids[3]}, "single id");
  ExpectWireBytesMatch(*server, {}, "all partitions");
  ExpectWireBytesMatch(*server, {}, "all partitions, warm");

  auto client = MustConnect(*server);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->RollOut(kTenant, kDataset, ids[2]).ok());
  ExpectWireBytesMatch(*server, {ids[1], ids[3], ids[4]},
                       "after a member rolled out");
  ExpectWireBytesMatch(*server, {}, "all partitions after roll-out");
}

TEST(QueryBytesTest, MemoLessServerSendsTheSameBytes) {
  std::vector<PartitionId> memo_ids;
  auto memo = ServerWithPartitions(4u << 20, &memo_ids);
  std::vector<PartitionId> plain_ids;
  auto plain = ServerWithPartitions(0, &plain_ids);
  ASSERT_NE(memo, nullptr);
  ASSERT_NE(plain, nullptr);
  ASSERT_EQ(memo_ids, plain_ids);
  const std::vector<std::vector<PartitionId>> queries = {
      {plain_ids[1], plain_ids[2], plain_ids[3], plain_ids[4]},
      {plain_ids[1], plain_ids[2]},
      {plain_ids[0]},
      {}};
  for (const std::vector<PartitionId>& q : queries) {
    for (int round = 0; round < 2; ++round) {
      ExpectWireBytesMatch(*plain, q, "memo-less");
      const Result<std::string> a = QueryBlob(*plain, q);
      const Result<std::string> b = QueryBlob(*memo, q);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a.value(), b.value()) << "memo-less vs memoized server";
    }
  }
}

TEST(QueryBytesTest, AnswersStayExactWhileAMemberRollsOutAndIn) {
  std::vector<PartitionId> ids;
  auto server = ServerWithPartitions(4u << 20, &ids);
  ASSERT_NE(server, nullptr);
  ASSERT_EQ(ids.size(), 5u);
  auto writer = MustConnect(*server);
  ASSERT_NE(writer, nullptr);
  const PartitionId member = ids[2];
  const std::vector<PartitionId> window = {ids[1], ids[2], ids[3], ids[4]};
  // The member alternates between two contents of one shape, so an answer
  // memoized from the old content and served after the new one rolled in
  // reads as a mismatch.
  const PartitionSample contents[2] = {MakeReservoirSample(2000, 54),
                                       MakeReservoirSample(9000, 54)};

  // References per catalog state: the member holding contents[0] (as
  // rolled in), absent, holding contents[1].
  std::string window_ref[2];
  std::string all_ref[2];
  window_ref[0] = ReferenceBytes(*server, window);
  all_ref[0] = ReferenceBytes(*server, {});
  ASSERT_TRUE(writer->RollOut(kTenant, kDataset, member).ok());
  const std::string all_absent_ref = ReferenceBytes(*server, {});
  ASSERT_TRUE(writer->RollInAt(kTenant, kDataset, member, contents[1]).ok());
  window_ref[1] = ReferenceBytes(*server, window);
  all_ref[1] = ReferenceBytes(*server, {});
  ASSERT_NE(window_ref[0], window_ref[1]);
  ASSERT_TRUE(writer->RollOut(kTenant, kDataset, member).ok());
  ASSERT_TRUE(writer->RollInAt(kTenant, kDataset, member, contents[0]).ok());

  constexpr int kReaders = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::atomic<int> answered{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      QueryConnection connection(*server);
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const bool whole = i % 2 == 1;
        const Result<std::string> blob =
            connection.Query(whole ? std::vector<PartitionId>{} : window);
        if (!blob.ok()) {
          // The member is absent, or rolled out between the catalog check
          // and the leaf fetch: NotFound, never another error.
          if (!blob.status().IsNotFound()) wrong.fetch_add(1);
          continue;
        }
        const std::string& b = blob.value();
        const bool exact =
            whole ? (b == all_ref[0] || b == all_ref[1] || b == all_absent_ref)
                  : (b == window_ref[0] || b == window_ref[1]);
        if (!exact) wrong.fetch_add(1);
        answered.fetch_add(1);
      }
    });
  }
  // At least kRounds rounds, and on until the readers have answered
  // kAnswers queries between them (a loaded machine may start them late).
  constexpr int kRounds = 60;
  constexpr int kAnswers = 60;
  constexpr int kMaxRounds = 20'000;
  int round = 0;
  while (round < kMaxRounds &&
         (round < kRounds || answered.load() < kAnswers)) {
    ++round;
    const Status out = writer->RollOut(kTenant, kDataset, member);
    const Result<PartitionId> in =
        writer->RollInAt(kTenant, kDataset, member, contents[round % 2]);
    if (!out.ok() || !in.ok()) {
      ADD_FAILURE() << "round " << round << ": " << out.ToString() << " / "
                    << in.status().ToString();
      break;
    }
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GE(answered.load(), kAnswers);

  // Quiescent: the member holds contents[round % 2], and whatever the memo
  // kept through the churn answers for exactly that state.
  QueryConnection connection(*server);
  for (int repeat = 0; repeat < 2; ++repeat) {
    const Result<std::string> w = connection.Query(window);
    const Result<std::string> a = connection.Query({});
    ASSERT_TRUE(w.ok() && a.ok());
    EXPECT_EQ(w.value(), window_ref[round % 2]);
    EXPECT_EQ(a.value(), all_ref[round % 2]);
  }
}

}  // namespace
}  // namespace sampwh
