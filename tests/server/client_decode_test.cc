// The client's response decoders against a server that lies: a stub
// loopback listener answers every request with one crafted OK frame. A
// count the body cannot hold must come back as Corruption before anything
// is reserved for it (reserving 2^62 entries would throw and terminate the
// caller), a query answer whose blob carries bytes after the sample must
// be Corruption, not the sample, and a server-stats body decodes exactly
// the field groups it was appended in.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/server/client.h"
#include "src/server/wire.h"
#include "tests/server/server_test_util.h"

namespace sampwh {
namespace {

/// Listens on an ephemeral loopback port, accepts one connection and
/// answers each request frame on it with `response_payload`.
class StubServer {
 public:
  explicit StubServer(std::string response_payload)
      : response_(std::move(response_payload)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    socklen_t len = sizeof(addr);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 1) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0) {
      ADD_FAILURE() << "stub listener setup failed";
      return;
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }

  StubServer(const StubServer&) = delete;
  StubServer& operator=(const StubServer&) = delete;

  ~StubServer() {
    // Wakes an accept that never got a connection.
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (thread_.joinable()) thread_.join();
    ::close(listen_fd_);
  }

  uint16_t port() const { return port_; }

 private:
  void Serve() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    timeval timeout{};
    timeout.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    std::string request;
    while (ReadFrame(fd, kWireDefaultMaxFrameBytes, &request).ok()) {
      if (!WriteFrame(fd, response_).ok()) break;
    }
    ::close(fd);
  }

  std::string response_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

/// An OK response payload whose body is `body`.
std::string OkResponse(std::string_view body) {
  BinaryWriter writer;
  BeginResponse(&writer, Status::OK());
  writer.PutRaw(body.data(), body.size());
  return writer.Release();
}

std::unique_ptr<WarehouseClient> ConnectTo(const StubServer& stub) {
  ClientOptions options;
  options.max_retries = 0;
  auto client = WarehouseClient::Connect("127.0.0.1", stub.port(), options);
  if (!client.ok()) {
    ADD_FAILURE() << client.status().ToString();
    return nullptr;
  }
  return std::move(client).value();
}

TEST(ClientDecodeTest, ListingCountsBeyondTheBodyAreCorruption) {
  // n = 2^62 followed by one entry's worth of bytes at most.
  BinaryWriter body;
  body.PutVarint64(uint64_t{1} << 62);
  body.PutString("x");
  StubServer stub(OkResponse(body.buffer()));
  auto client = ConnectTo(stub);
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->ListTenants().status().IsCorruption());
  EXPECT_TRUE(client->ListDatasets("t").status().IsCorruption());
  EXPECT_TRUE(client->ListPartitions("t", "d").status().IsCorruption());
  EXPECT_TRUE(client->PartitionDigests("t", "d").status().IsCorruption());
}

TEST(ClientDecodeTest, ListingCountsAreBoundedByTheEntrySize) {
  // Six one-byte varints hold one partition-info entry, not two; and the
  // one entry they hold decodes.
  BinaryWriter body;
  body.PutVarint64(2);
  for (int i = 0; i < 6; ++i) body.PutVarint64(1);
  {
    StubServer stub(OkResponse(body.buffer()));
    auto client = ConnectTo(stub);
    ASSERT_NE(client, nullptr);
    EXPECT_TRUE(client->ListPartitions("t", "d").status().IsCorruption());
  }
  BinaryWriter one;
  one.PutVarint64(1);
  for (int i = 0; i < 6; ++i) one.PutVarint64(1);
  StubServer stub(OkResponse(one.buffer()));
  auto client = ConnectTo(stub);
  ASSERT_NE(client, nullptr);
  const auto parts = client->ListPartitions("t", "d");
  ASSERT_TRUE(parts.ok()) << parts.status().ToString();
  EXPECT_EQ(parts.value().size(), 1u);
}

TEST(ClientDecodeTest, QueryDecodesTheAnswerBlobInPlace) {
  const PartitionSample sample = MakeReservoirSample(-40, 300);
  BinaryWriter body;
  body.PutString(SampleBytes(sample));
  StubServer stub(OkResponse(body.buffer()));
  auto client = ConnectTo(stub);
  ASSERT_NE(client, nullptr);
  const auto answer = client->Query("t", "d", {1, 2});
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(SampleBytes(answer.value()), SampleBytes(sample));
}

TEST(ClientDecodeTest, QueryRejectsTrailingBytesAfterTheSample) {
  BinaryWriter body;
  body.PutString(SampleBytes(MakeReservoirSample(-40, 300)) +
                 std::string(1, '\0'));
  StubServer stub(OkResponse(body.buffer()));
  auto client = ConnectTo(stub);
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Query("t", "d", {1, 2}).status().IsCorruption());
}

/// A kServerStats body of `fields` varints holding 1, 2, 3, ...
std::string StatsBody(int fields) {
  BinaryWriter body;
  for (int i = 1; i <= fields; ++i) body.PutVarint64(i);
  return body.Release();
}

TEST(ClientDecodeTest, ServerStatsDecodesEveryAppendedGroup) {
  // The body grew in groups that end at 6, 8 and 13 fields; a field past
  // the last one this build knows is ignored.
  for (const int fields : {6, 8, 13, 14}) {
    StubServer stub(OkResponse(StatsBody(fields)));
    auto client = ConnectTo(stub);
    ASSERT_NE(client, nullptr);
    const auto stats = client->ServerStats();
    ASSERT_TRUE(stats.ok()) << fields << ": " << stats.status().ToString();
    const auto& s = stats.value();
    const auto sent = [&](uint64_t position) -> uint64_t {
      return position <= static_cast<uint64_t>(fields) ? position : 0;
    };
    EXPECT_EQ(s.connections_accepted, 1u) << fields;
    EXPECT_EQ(s.connections_dropped, 2u) << fields;
    EXPECT_EQ(s.requests_served, 3u) << fields;
    EXPECT_EQ(s.error_responses, 4u) << fields;
    EXPECT_EQ(s.protocol_errors, 5u) << fields;
    EXPECT_EQ(s.num_datasets, 6u) << fields;
    EXPECT_EQ(s.connections_shed, sent(7)) << fields;
    EXPECT_EQ(s.deadlines_exceeded, sent(8)) << fields;
    EXPECT_EQ(s.replica_writes, sent(9)) << fields;
    EXPECT_EQ(s.failover_reads, sent(10)) << fields;
    EXPECT_EQ(s.scrub_rounds, sent(11)) << fields;
    EXPECT_EQ(s.partitions_healed, sent(12)) << fields;
    EXPECT_EQ(s.digest_mismatches, sent(13)) << fields;
  }
}

TEST(ClientDecodeTest, ServerStatsBodyEndingInsideAGroupFails) {
  for (const int fields : {5, 7, 10}) {
    StubServer stub(OkResponse(StatsBody(fields)));
    auto client = ConnectTo(stub);
    ASSERT_NE(client, nullptr);
    const auto stats = client->ServerStats();
    EXPECT_EQ(stats.status().code(), StatusCode::kOutOfRange) << fields;
  }
}

}  // namespace
}  // namespace sampwh
