// Protocol-robustness battery: seeded deterministic fuzzing of the wire
// format against a live server. Truncated and oversized frames, corrupted
// CRCs, bad magics, unknown verbs, malformed verb bodies, mid-frame
// disconnects, random garbage and a slow-loris peer must each yield a
// structured error response or a dropped connection — never a crash, a
// hang, or a leak (the suite runs under ASan/UBSan in CI and under TSan in
// scripts/check.sh --tsan). After every attack the server must still
// answer a well-formed ping from a fresh connection.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/server/client.h"
#include "src/server/server.h"
#include "src/server/wire.h"
#include "src/util/random.h"
#include "tests/server/server_test_util.h"

namespace sampwh {
namespace {

constexpr uint64_t kFuzzSeed = 0x0B0DDE7EC7ULL;

/// Raw loopback socket, no client framing: the hostile peer.
class RawPeer {
 public:
  explicit RawPeer(const WarehouseServer& server) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    ::inet_pton(AF_INET, server.host().c_str(), &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
    if (fd_ >= 0) {
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      // Bound every recv so a misbehaving server fails the test instead of
      // hanging it.
      timeval timeout{};
      timeout.tv_sec = 5;
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    }
  }
  ~RawPeer() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return fd_ >= 0; }

  void Send(std::string_view bytes) { (void)WriteAll(fd_, bytes); }

  /// Reads one response frame; empty on drop/timeout.
  std::string ReadResponse() {
    std::string payload;
    if (!ReadFrame(fd_, kWireDefaultMaxFrameBytes, &payload).ok()) return {};
    return payload;
  }

  /// True when the server closed the connection (EOF observed).
  bool Dropped() {
    char byte;
    const ssize_t n = ::recv(fd_, &byte, 1, 0);
    return n == 0;
  }

 private:
  int fd_ = -1;
};

std::string RequestPayload(uint32_t verb, std::string_view body = {}) {
  BinaryWriter writer;
  writer.PutFixed32(kWireRequestMagic);
  writer.PutFixed32(verb);
  if (!body.empty()) writer.PutRaw(body.data(), body.size());
  return writer.Release();
}

/// A v2 ("SWR2") request payload with a caller-supplied raw header
/// extension blob — well-formed or hostile.
std::string V2RequestPayload(uint32_t verb, std::string_view ext,
                             std::string_view body = {}) {
  BinaryWriter writer;
  writer.PutFixed32(kWireRequestMagicV2);
  writer.PutFixed32(verb);
  writer.PutString(ext);
  if (!body.empty()) writer.PutRaw(body.data(), body.size());
  return writer.Release();
}

/// A well-formed v2 extension: [deadline_millis, flags] varints.
std::string V2Extension(uint64_t deadline_millis, uint64_t flags = 0) {
  BinaryWriter ext;
  ext.PutVarint64(deadline_millis);
  ext.PutVarint64(flags);
  return ext.Release();
}

/// The server must answer a clean ping on a fresh connection — the "still
/// alive and framing-correct" probe after every attack.
void ExpectServerHealthy(const WarehouseServer& server) {
  auto client = WarehouseClient::Connect(server.host(), server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto banner = client.value()->Ping();
  ASSERT_TRUE(banner.ok()) << banner.status().ToString();
  EXPECT_EQ(banner.value().banner, "sampwh.warehouse/1");
}

class ProtocolRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions options = TestServerOptions();
    options.read_timeout_millis = 300;  // hostile peers time out fast
    server_ = MustStart(std::move(options));
    ASSERT_NE(server_, nullptr);
  }

  std::unique_ptr<WarehouseServer> server_;
};

TEST_F(ProtocolRobustnessTest, TruncatedFramesDropWithoutCrash) {
  const std::string frame = EncodeFrame(RequestPayload(
      static_cast<uint32_t>(Verb::kPing)));
  Pcg64 rng(kFuzzSeed);
  for (int round = 0; round < 24; ++round) {
    const size_t cut = 1 + rng.NextUint64() % (frame.size() - 1);
    RawPeer peer(*server_);
    ASSERT_TRUE(peer.connected());
    peer.Send(std::string_view(frame).substr(0, cut));
    // Destructor closes with the frame half-sent: a mid-frame disconnect.
  }
  ExpectServerHealthy(*server_);
  EXPECT_EQ(server_->stats().requests_served, 1u);  // only the health ping
}

TEST_F(ProtocolRobustnessTest, OversizedDeclaredLengthIsRejectedBeforeAlloc) {
  RawPeer peer(*server_);
  ASSERT_TRUE(peer.connected());
  BinaryWriter header;
  header.PutFixed32(0xFFFFFFF0u);  // ~4 GiB declared payload
  header.PutFixed32(0);
  peer.Send(header.Release());
  const std::string response = peer.ReadResponse();
  ASSERT_FALSE(response.empty());
  BinaryReader reader(response);
  EXPECT_TRUE(ParseResponseHead(&reader).IsOutOfRange());
  EXPECT_TRUE(peer.Dropped());
  ExpectServerHealthy(*server_);
  EXPECT_GE(server_->stats().protocol_errors, 1u);
}

TEST_F(ProtocolRobustnessTest, CorruptedCrcGetsStructuredErrorThenDrop) {
  RawPeer peer(*server_);
  ASSERT_TRUE(peer.connected());
  std::string frame =
      EncodeFrame(RequestPayload(static_cast<uint32_t>(Verb::kPing)));
  frame.back() ^= 0x40;
  peer.Send(frame);
  const std::string response = peer.ReadResponse();
  ASSERT_FALSE(response.empty());
  BinaryReader reader(response);
  EXPECT_TRUE(ParseResponseHead(&reader).IsCorruption());
  EXPECT_TRUE(peer.Dropped());
  ExpectServerHealthy(*server_);
}

TEST_F(ProtocolRobustnessTest, UnknownVerbsKeepTheConnection) {
  RawPeer peer(*server_);
  ASSERT_TRUE(peer.connected());
  Pcg64 rng(kFuzzSeed ^ 1);
  for (int round = 0; round < 16; ++round) {
    const uint32_t verb = 1000 + static_cast<uint32_t>(rng.NextUint64() % 64);
    peer.Send(EncodeFrame(RequestPayload(verb)));
    const std::string response = peer.ReadResponse();
    ASSERT_FALSE(response.empty()) << "connection lost on unknown verb";
    BinaryReader reader(response);
    EXPECT_TRUE(ParseResponseHead(&reader).IsInvalidArgument());
  }
  // Same connection still serves a real request.
  peer.Send(EncodeFrame(RequestPayload(static_cast<uint32_t>(Verb::kPing))));
  const std::string pong = peer.ReadResponse();
  ASSERT_FALSE(pong.empty());
  BinaryReader reader(pong);
  EXPECT_TRUE(ParseResponseHead(&reader).ok());
}

TEST_F(ProtocolRobustnessTest, RetiredVarintAppendVerbKeepsTheConnection) {
  // Verb 41 carried one zig-zag varint per value. It is retired rather than
  // reused, so an old client's append is refused as an unknown verb —
  // never decoded as a value block — and its connection stays usable.
  BinaryWriter body;
  body.PutString("acme");
  body.PutString("events");
  body.PutVarint64(0);  // sequence
  body.PutVarint64(0);  // timestamp
  body.PutVarint64(3);
  for (const int64_t v : {5, -7, 1 << 20}) body.PutVarintSigned64(v);
  RawPeer peer(*server_);
  ASSERT_TRUE(peer.connected());
  peer.Send(EncodeFrame(RequestPayload(41, body.Release())));
  const std::string response = peer.ReadResponse();
  ASSERT_FALSE(response.empty()) << "connection lost on the retired verb";
  BinaryReader reader(response);
  const Status status = ParseResponseHead(&reader);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.message().find("unknown verb 41"), std::string::npos)
      << status.ToString();

  peer.Send(EncodeFrame(RequestPayload(static_cast<uint32_t>(Verb::kPing))));
  const std::string pong = peer.ReadResponse();
  ASSERT_FALSE(pong.empty());
  BinaryReader pong_reader(pong);
  EXPECT_TRUE(ParseResponseHead(&pong_reader).ok());
  EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

TEST_F(ProtocolRobustnessTest, HostileValueBlocksAnswerStructuredErrors) {
  // Well-framed appends to an open session whose value block lies: a width
  // outside 1..8, a count whose n * w wraps 64 bits, a short block, and
  // trailing bytes after the block.
  const auto append = [](uint64_t n, uint8_t width, std::string_view tail) {
    BinaryWriter body;
    body.PutString("acme");
    body.PutString("events");
    body.PutVarint64(0);  // sequence
    body.PutVarint64(0);  // timestamp
    body.PutVarint64(n);
    body.PutFixed64(0);
    const char w = static_cast<char>(width);
    body.PutRaw(&w, 1);
    body.PutRaw(tail.data(), tail.size());
    return RequestPayload(static_cast<uint32_t>(Verb::kIngestAppendBlock),
                          body.Release());
  };
  struct Case {
    std::string payload;
    StatusCode expected;
  };
  const Case cases[] = {
      {append(4, 0, "abcd"), StatusCode::kCorruption},
      {append(1, 9, "abcdefghi"), StatusCode::kCorruption},
      {append(uint64_t{1} << 61, 8, "abcdefgh"), StatusCode::kOutOfRange},
      {append(3, 2, "abcde"), StatusCode::kOutOfRange},
      {append(2, 1, "abc"), StatusCode::kInvalidArgument},
  };
  auto client = WarehouseClient::Connect(server_->host(), server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client.value()->CreateTenant("acme", {}).ok());
  ASSERT_TRUE(client.value()->CreateDataset("acme", "events").ok());
  ASSERT_TRUE(client.value()->IngestOpen("acme", "events").ok());
  RawPeer peer(*server_);
  ASSERT_TRUE(peer.connected());
  for (const Case& c : cases) {
    peer.Send(EncodeFrame(c.payload));
    const std::string response = peer.ReadResponse();
    ASSERT_FALSE(response.empty()) << "connection lost on a hostile block";
    BinaryReader reader(response);
    const Status status = ParseResponseHead(&reader);
    EXPECT_EQ(status.code(), c.expected) << status.ToString();
  }
  EXPECT_EQ(server_->stats().protocol_errors, 0u);
  ExpectServerHealthy(*server_);
}

TEST_F(ProtocolRobustnessTest, BadMagicAnswersErrorAndKeepsFraming) {
  RawPeer peer(*server_);
  ASSERT_TRUE(peer.connected());
  BinaryWriter payload;
  payload.PutFixed32(0x4B4F4F42u);  // wrong magic, valid frame
  payload.PutFixed32(1);
  peer.Send(EncodeFrame(payload.Release()));
  const std::string response = peer.ReadResponse();
  ASSERT_FALSE(response.empty());
  BinaryReader reader(response);
  EXPECT_TRUE(ParseResponseHead(&reader).IsInvalidArgument());
  ExpectServerHealthy(*server_);
}

TEST_F(ProtocolRobustnessTest, MalformedVerbBodiesAnswerStructuredErrors) {
  // Every known verb, fed truncated/garbage bodies: structured error,
  // connection kept, server healthy. This is the per-verb decoder fuzz.
  const uint32_t verbs[] = {
      static_cast<uint32_t>(Verb::kCreateTenant),
      static_cast<uint32_t>(Verb::kSetTenantQuota),
      static_cast<uint32_t>(Verb::kTenantStats),
      static_cast<uint32_t>(Verb::kCreateDataset),
      static_cast<uint32_t>(Verb::kDropDataset),
      static_cast<uint32_t>(Verb::kListDatasets),
      static_cast<uint32_t>(Verb::kListPartitions),
      static_cast<uint32_t>(Verb::kRollIn),
      static_cast<uint32_t>(Verb::kRollInAt),
      static_cast<uint32_t>(Verb::kRollOut),
      static_cast<uint32_t>(Verb::kReplicaRollIn),
      static_cast<uint32_t>(Verb::kQuery),
      static_cast<uint32_t>(Verb::kPartitionDigests),
      static_cast<uint32_t>(Verb::kIngestOpen),
      static_cast<uint32_t>(Verb::kIngestFlush),
      static_cast<uint32_t>(Verb::kIngestAppendBlock),
  };
  Pcg64 rng(kFuzzSeed ^ 2);
  RawPeer peer(*server_);
  ASSERT_TRUE(peer.connected());
  for (const uint32_t verb : verbs) {
    for (int round = 0; round < 8; ++round) {
      std::string body(rng.NextUint64() % 40, '\0');
      for (char& c : body) c = static_cast<char>(rng.NextUint64());
      peer.Send(EncodeFrame(RequestPayload(verb, body)));
      const std::string response = peer.ReadResponse();
      ASSERT_FALSE(response.empty())
          << "verb " << verb << " dropped the connection on a bad body";
      BinaryReader reader(response);
      EXPECT_FALSE(ParseResponseHead(&reader).ok())
          << "verb " << verb << " accepted garbage";
    }
  }
  ExpectServerHealthy(*server_);
}

TEST_F(ProtocolRobustnessTest, RandomGarbageStreamsNeverCrashTheServer) {
  Pcg64 rng(kFuzzSeed ^ 3);
  for (int round = 0; round < 32; ++round) {
    RawPeer peer(*server_);
    ASSERT_TRUE(peer.connected());
    std::string garbage(1 + rng.NextUint64() % 256, '\0');
    for (char& c : garbage) c = static_cast<char>(rng.NextUint64());
    peer.Send(garbage);
    // Random first 4 bytes usually declare an absurd length (oversized) or
    // a length whose bytes never arrive (timeout); either way the server
    // must shed the connection on its own.
  }
  ExpectServerHealthy(*server_);
  EXPECT_GE(server_->stats().connections_accepted, 33u);
}

TEST_F(ProtocolRobustnessTest, SlowLorisPeersAreShedByTheReadTimeout) {
  const std::string frame =
      EncodeFrame(RequestPayload(static_cast<uint32_t>(Verb::kPing)));
  RawPeer peer(*server_);
  ASSERT_TRUE(peer.connected());
  // Trickle one byte, then stall past the 300 ms read timeout.
  peer.Send(std::string_view(frame).substr(0, 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  // The server sheds the connection: a best-effort structured error frame,
  // then the drop.
  const std::string response = peer.ReadResponse();
  if (!response.empty()) {
    BinaryReader reader(response);
    EXPECT_FALSE(ParseResponseHead(&reader).ok());
  }
  EXPECT_TRUE(peer.Dropped());
  ExpectServerHealthy(*server_);
  EXPECT_GE(server_->stats().connections_dropped, 1u);
}

/// A roll-in request body for `verb` (kRollIn or kReplicaRollIn) carrying
/// `blob` as the sample.
std::string RollInBody(Verb verb, std::string_view blob) {
  BinaryWriter body;
  body.PutString("acme");
  body.PutString("sales");
  if (verb == Verb::kReplicaRollIn) body.PutVarint64(/*id=*/3);
  body.PutVarint64(/*min_ts=*/10);
  body.PutVarint64(/*max_ts=*/20);
  if (verb == Verb::kReplicaRollIn) body.PutVarint64(/*flags=*/0);
  body.PutString(blob);
  return body.Release();
}

/// Sends one roll-in of `blob` and returns the response status.
Status RollInRaw(RawPeer& peer, Verb verb, std::string_view blob) {
  peer.Send(EncodeFrame(
      RequestPayload(static_cast<uint32_t>(verb), RollInBody(verb, blob))));
  const std::string response = peer.ReadResponse();
  if (response.empty()) return Status::IOError("connection dropped");
  BinaryReader reader(response);
  return ParseResponseHead(&reader);
}

TEST_F(ProtocolRobustnessTest, RollInRejectsTrailingBytesAfterTheSample) {
  // A blob with a byte after a valid sample is a different blob than the
  // sample's own bytes: Corruption, nothing stored, connection kept.
  auto client = MustConnect(*server_);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->CreateTenant("acme", {}).ok());
  ASSERT_TRUE(client->CreateDataset("acme", "sales").ok());
  const std::string blob = SampleBytes(MakeReservoirSample(1, 50));
  RawPeer peer(*server_);
  ASSERT_TRUE(peer.connected());
  EXPECT_TRUE(RollInRaw(peer, Verb::kRollIn, blob + std::string(1, '\0'))
                  .IsCorruption());
  EXPECT_TRUE(client->ListPartitions("acme", "sales").value().empty());
  EXPECT_TRUE(RollInRaw(peer, Verb::kRollIn, blob).ok());
  EXPECT_EQ(client->ListPartitions("acme", "sales").value().size(), 1u);
}

TEST_F(ProtocolRobustnessTest,
       ReplicaRollInRejectsTrailingBytesAfterTheSample) {
  // The replica verb digests the wire blob. A blob with a byte after the
  // sample once decoded to the stored sample yet never matched its digest,
  // so every retry counted a mismatch and rewrote the copy; now it is
  // Corruption and the stored copy stays as it was.
  auto client = MustConnect(*server_);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->CreateTenant("acme", {}).ok());
  ASSERT_TRUE(client->CreateDataset("acme", "sales").ok());
  const std::string blob = SampleBytes(MakeReservoirSample(1, 50));
  RawPeer peer(*server_);
  ASSERT_TRUE(peer.connected());
  ASSERT_TRUE(RollInRaw(peer, Verb::kReplicaRollIn, blob).ok());
  for (int retry = 0; retry < 3; ++retry) {
    EXPECT_TRUE(
        RollInRaw(peer, Verb::kReplicaRollIn, blob + std::string(1, '\0'))
            .IsCorruption());
  }
  EXPECT_EQ(server_->stats().digest_mismatches, 0u);
  // The exact blob acks as a no-op against its own stored copy.
  EXPECT_TRUE(RollInRaw(peer, Verb::kReplicaRollIn, blob).ok());
  EXPECT_EQ(server_->stats().digest_mismatches, 0u);
  EXPECT_EQ(client->ListPartitions("acme", "sales").value().size(), 1u);
}

TEST_F(ProtocolRobustnessTest, V2HeadWithDeadlineDecodesCleanly) {
  RawPeer peer(*server_);
  ASSERT_TRUE(peer.connected());
  peer.Send(EncodeFrame(V2RequestPayload(static_cast<uint32_t>(Verb::kPing),
                                         V2Extension(/*deadline=*/5'000))));
  const std::string response = peer.ReadResponse();
  ASSERT_FALSE(response.empty());
  BinaryReader reader(response);
  EXPECT_TRUE(ParseResponseHead(&reader).ok());
}

TEST_F(ProtocolRobustnessTest, V2TruncatedExtensionAnswersStructuredError) {
  RawPeer peer(*server_);
  ASSERT_TRUE(peer.connected());
  // Declared extension length far past the payload's end: the length-
  // delimited blob cannot be read, so the head itself is malformed.
  BinaryWriter payload;
  payload.PutFixed32(kWireRequestMagicV2);
  payload.PutFixed32(static_cast<uint32_t>(Verb::kPing));
  payload.PutVarint64(200);  // promises 200 ext bytes ...
  payload.PutRaw("abc", 3);  // ... delivers 3
  peer.Send(EncodeFrame(payload.Release()));
  const std::string response = peer.ReadResponse();
  ASSERT_FALSE(response.empty());
  BinaryReader reader(response);
  EXPECT_FALSE(ParseResponseHead(&reader).ok());
  // The head never parsed, but the FRAME was sound — connection kept.
  peer.Send(EncodeFrame(RequestPayload(static_cast<uint32_t>(Verb::kPing))));
  const std::string pong = peer.ReadResponse();
  ASSERT_FALSE(pong.empty());
  BinaryReader pong_reader(pong);
  EXPECT_TRUE(ParseResponseHead(&pong_reader).ok());
  ExpectServerHealthy(*server_);
}

TEST_F(ProtocolRobustnessTest, V2CorruptedDeadlineFieldsNeverCrash) {
  // Seeded fuzz of the extension blob itself: truncated varints, overlong
  // varints, short blobs missing the flags field, garbage. Every shape
  // must yield a structured answer (OK for decodable exts, error
  // otherwise) on a kept connection.
  Pcg64 rng(kFuzzSeed ^ 6);
  RawPeer peer(*server_);
  ASSERT_TRUE(peer.connected());
  for (int round = 0; round < 48; ++round) {
    std::string ext(rng.NextUint64() % 24, '\0');
    for (char& c : ext) c = static_cast<char>(rng.NextUint64());
    if (round % 4 == 0 && !ext.empty()) {
      // Bias toward the nastiest shape: a varint whose continuation bits
      // run off the blob's end.
      ext.back() = static_cast<char>(0x80 | (ext.back() & 0x7F));
    }
    peer.Send(EncodeFrame(
        V2RequestPayload(static_cast<uint32_t>(Verb::kPing), ext)));
    const std::string response = peer.ReadResponse();
    ASSERT_FALSE(response.empty())
        << "round " << round << " lost the connection on a hostile ext";
  }
  ExpectServerHealthy(*server_);
}

TEST_F(ProtocolRobustnessTest, InterleavedV1AndV2FramesOnOneConnection) {
  // A fleet of old and new clients behind one proxy socket looks exactly
  // like this: v1 and v2 heads alternating on a single connection, some
  // hostile. Each frame must be answered on its own terms and the
  // connection survive the lot.
  RawPeer peer(*server_);
  ASSERT_TRUE(peer.connected());
  Pcg64 rng(kFuzzSeed ^ 7);
  for (int round = 0; round < 24; ++round) {
    std::string payload;
    bool expect_ok = true;
    switch (round % 4) {
      case 0:  // plain v1
        payload = RequestPayload(static_cast<uint32_t>(Verb::kPing));
        break;
      case 1:  // well-formed v2 with a deadline and a failover flag
        payload = V2RequestPayload(
            static_cast<uint32_t>(Verb::kPing),
            V2Extension(1 + rng.NextUint64() % 10'000,
                        kRequestFlagFailoverRead));
        break;
      case 2: {  // v2 with a longer-than-known ext: appended fields ignored
        BinaryWriter ext;
        ext.PutVarint64(2'000);
        ext.PutVarint64(0);
        ext.PutVarint64(rng.NextUint64());  // a field this build predates
        payload =
            V2RequestPayload(static_cast<uint32_t>(Verb::kPing),
                             ext.Release());
        break;
      }
      default:  // v2 missing the flags varint: malformed head
        payload = V2RequestPayload(static_cast<uint32_t>(Verb::kPing),
                                   std::string(1, '\x07'));
        expect_ok = false;
        break;
    }
    peer.Send(EncodeFrame(payload));
    const std::string response = peer.ReadResponse();
    ASSERT_FALSE(response.empty()) << "round " << round;
    BinaryReader reader(response);
    EXPECT_EQ(ParseResponseHead(&reader).ok(), expect_ok)
        << "round " << round;
  }
  ExpectServerHealthy(*server_);
}

// The kServerStats body pinned byte for byte after a scripted sequence that
// leaves every counter but deadlines_exceeded at a distinct value: a field
// order swapped on both the server and the client would still round-trip,
// but it moves these bytes.
TEST(ServerStatsWireTest, ReplyBodyIsPinnedAfterAScriptedSequence) {
  ServerOptions options = TestServerOptions();
  options.read_timeout_millis = 0;  // no idle connection may time out
  auto server = MustStart(std::move(options));
  ASSERT_NE(server, nullptr);

  auto client = MustConnect(*server);  // connection 1
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->CreateTenant("t", {}).ok());
  for (const char* dataset : {"a", "b", "c"}) {
    ASSERT_TRUE(client->CreateDataset("t", dataset).ok());
  }
  // Replica writes: one placement, seven divergent heals of id 1 (each a
  // digest mismatch), two heals of fresh ids and one idempotent re-write.
  const PartitionSample a = MakeReservoirSample(0, 4);
  const PartitionSample b = MakeReservoirSample(100, 4);
  ASSERT_TRUE(client->ReplicaRollIn("t", "a", 1, a).ok());
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(
        client->ReplicaRollIn("t", "a", 1, i % 2 == 0 ? b : a, 0, 0, true)
            .ok());
  }
  ASSERT_TRUE(client->ReplicaRollIn("t", "a", 2, a, 0, 0, true).ok());
  ASSERT_TRUE(client->ReplicaRollIn("t", "a", 3, a, 0, 0, true).ok());
  ASSERT_TRUE(client->ReplicaRollIn("t", "a", 3, a).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client->PartitionDigests("t", "a").ok());
  }
  client->set_request_flags(kRequestFlagFailoverRead);
  for (int i = 0; i < 130; ++i) ASSERT_TRUE(client->Ping().ok());
  client->set_request_flags(0);
  EXPECT_FALSE(client->CreateTenant("t", {}).ok());
  EXPECT_FALSE(client->CreateDataset("t", "a").ok());
  EXPECT_FALSE(client->ListPartitions("nobody", "a").ok());

  RawPeer peer(*server);  // connection 2: three bad magics, then the stats
  ASSERT_TRUE(peer.connected());
  for (int i = 0; i < 3; ++i) {
    BinaryWriter bad;
    bad.PutFixed32(0xDEADBEEF);
    bad.PutFixed32(static_cast<uint32_t>(Verb::kPing));
    peer.Send(EncodeFrame(bad.buffer()));
    ASSERT_FALSE(peer.ReadResponse().empty());
  }
  {
    RawPeer torn(*server);  // connection 3: a CRC mismatch drops it
    ASSERT_TRUE(torn.connected());
    std::string frame =
        EncodeFrame(RequestPayload(static_cast<uint32_t>(Verb::kPing)));
    frame[4] = static_cast<char>(frame[4] ^ 0x5a);
    torn.Send(frame);
    ASSERT_FALSE(torn.ReadResponse().empty());
    EXPECT_TRUE(torn.Dropped());
  }
  server->BeginDrain();
  for (int i = 0; i < 2; ++i) {  // connections 4 and 5 are shed
    RawPeer shed(*server);
    ASSERT_TRUE(shed.connected());
    ASSERT_FALSE(shed.ReadResponse().empty());
  }

  peer.Send(
      EncodeFrame(RequestPayload(static_cast<uint32_t>(Verb::kServerStats))));
  const std::string response = peer.ReadResponse();
  BinaryReader reader(response);
  ASSERT_TRUE(ParseResponseHead(&reader).ok());
  std::string_view body;
  ASSERT_TRUE(reader.GetRaw(reader.remaining(), &body).ok());
  // connections_accepted 5, connections_dropped 1, requests_served 160,
  // error_responses 6, protocol_errors 4, datasets 3, connections_shed 2,
  // deadlines_exceeded 0, replica_writes 11, failover_reads 130,
  // scrub_rounds 8, partitions_healed 9, digest_mismatches 7.
  EXPECT_EQ(body, std::string_view("\x05\x01\xa0\x01\x06\x04\x03\x02\x00"
                                   "\x0b\x82\x01\x08\x09\x07",
                                   15));
}

TEST(WireFuzzTest, DecodeFrameNeverCrashesOnRandomBuffers) {
  Pcg64 rng(kFuzzSeed ^ 4);
  for (int round = 0; round < 20000; ++round) {
    std::string buffer(rng.NextUint64() % 64, '\0');
    for (char& c : buffer) c = static_cast<char>(rng.NextUint64());
    std::string_view payload;
    size_t consumed = 0;
    const FrameDecodeResult result =
        DecodeFrame(buffer, /*max_frame_bytes=*/1024, &payload, &consumed);
    if (result == FrameDecodeResult::kOk) {
      EXPECT_LE(consumed, buffer.size());
    }
  }
}

TEST(WireFuzzTest, ResponseParserNeverCrashesOnRandomPayloads) {
  Pcg64 rng(kFuzzSeed ^ 5);
  for (int round = 0; round < 20000; ++round) {
    std::string payload(rng.NextUint64() % 48, '\0');
    for (char& c : payload) c = static_cast<char>(rng.NextUint64());
    BinaryReader reader(payload);
    (void)ParseResponseHead(&reader);
    BinaryReader request_reader(payload);
    uint32_t verb = 0;
    RequestHeader header;
    (void)ParseRequestHead(&request_reader, &verb, &header);
  }
}

}  // namespace
}  // namespace sampwh
