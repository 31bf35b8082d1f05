// Held answers (wire.h, "Held answers"): a client that asks a query again
// names the tag of the answer it holds, and a server whose catalog has not
// moved since answers "unchanged" with an empty blob. The contract under
// test: whatever the client returns, held or received, is the answer for
// one catalog state its query overlapped — through roll-outs and
// roll-ins, a dataset dropped and re-created, and a server restarted on
// the same port. A request that does not opt in gets the bytes it always
// got, and a server that sends no tag leaves nothing held.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/server/client.h"
#include "src/server/server.h"
#include "src/server/wire.h"
#include "src/warehouse/warehouse.h"
#include "tests/server/server_test_util.h"

namespace sampwh {
namespace {

constexpr char kTenant[] = "acme";
constexpr char kDataset[] = "sales";
constexpr char kKey[] = "acme.sales";
constexpr size_t kParts = 5;
/// The partition the churn rolls out and back in.
constexpr PartitionId kMember = 2;
const std::vector<PartitionId> kWindow = {1, 2, 3, 4};
const std::vector<PartitionId> kAll = {};

/// Partition `p`'s sample in content variant `variant`: two variants of
/// one shape, so an answer of one read in place of the other's is a
/// mismatch, never an error.
PartitionSample Part(PartitionId p, int variant) {
  return MakeReservoirSample(
      static_cast<Value>(p * 1000 + static_cast<uint64_t>(variant) * 100'000),
      40 + 7 * p);
}

/// Server options with the tenant provisioned at startup, so a server
/// restarted on an in-memory store has it back.
ServerOptions HeldServerOptions(uint16_t port = 0) {
  ServerOptions options = TestServerOptions();
  options.port = port;
  options.bootstrap_tenants[kTenant] = TenantQuota{};
  return options;
}

// --- The wire: opt-in fields, legacy bytes unchanged ------------------------

TEST(HeldAnswerWireTest, RequestHeadCarriesTheHeldTagOnlyWhenAsked) {
  RequestHeader held;
  held.held = AnswerTag{0x1234'5678'9abc'def0ull, 77};
  BinaryWriter tagged;
  BeginRequest(&tagged, Verb::kQuery, held);
  BinaryReader tagged_reader(tagged.buffer());
  uint32_t verb = 0;
  RequestHeader parsed;
  ASSERT_TRUE(ParseRequestHead(&tagged_reader, &verb, &parsed).ok());
  EXPECT_EQ(verb, static_cast<uint32_t>(Verb::kQuery));
  ASSERT_TRUE(parsed.held.has_value());
  EXPECT_EQ(*parsed.held, *held.held);
  EXPECT_TRUE(tagged_reader.AtEnd());

  // The zero tag still opts in; a deadline alone does not.
  RequestHeader zero;
  zero.held = AnswerTag{};
  BinaryWriter zero_head;
  BeginRequest(&zero_head, Verb::kQuery, zero);
  BinaryReader zero_reader(zero_head.buffer());
  ASSERT_TRUE(ParseRequestHead(&zero_reader, &verb, &parsed).ok());
  ASSERT_TRUE(parsed.held.has_value());
  EXPECT_EQ(*parsed.held, AnswerTag{});

  RequestHeader deadline;
  deadline.deadline_millis = 500;
  BinaryWriter legacy;
  BeginRequest(&legacy, Verb::kQuery, deadline);
  BinaryReader legacy_reader(legacy.buffer());
  ASSERT_TRUE(ParseRequestHead(&legacy_reader, &verb, &parsed).ok());
  EXPECT_FALSE(parsed.held.has_value());
  EXPECT_EQ(parsed.deadline_millis, 500u);

  // The flag without its fields is a malformed head, not a zero tag.
  BinaryWriter ext;
  ext.PutVarint64(0);
  ext.PutVarint64(kRequestFlagHeldAnswer);
  BinaryWriter truncated;
  truncated.PutFixed32(kWireRequestMagicV2);
  truncated.PutFixed32(static_cast<uint32_t>(Verb::kQuery));
  truncated.PutString(ext.buffer());
  BinaryReader truncated_reader(truncated.buffer());
  EXPECT_FALSE(ParseRequestHead(&truncated_reader, &verb, &parsed).ok());
}

TEST(HeldAnswerWireTest, TaggedFrameIsTheLegacyFrameThenTheTag) {
  const std::string blob = SampleBytes(MakeReservoirSample(-7, 300));
  BinaryWriter tag;
  PutAnswerTag(&tag, AnswerTag{99, 3});
  for (const bool empty : {false, true}) {
    ResponseFrame frame;
    if (!empty) frame.body().PutRaw(blob.data(), blob.size());
    frame.SealOk(/*length_prefixed=*/true, tag.buffer());
    BinaryWriter expected;
    BeginResponse(&expected, Status::OK());
    expected.PutString(empty ? std::string() : blob);
    expected.PutRaw(tag.buffer().data(), tag.buffer().size());
    EXPECT_EQ(frame.bytes(), EncodeFrame(expected.buffer())) << empty;
  }
}

/// A raw loopback connection for kQuery requests with a chosen head.
class RawQuery {
 public:
  explicit RawQuery(const WarehouseServer& server) {
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
      timeval timeout{};
      timeout.tv_sec = 5;
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    }
  }
  ~RawQuery() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawQuery(const RawQuery&) = delete;
  RawQuery& operator=(const RawQuery&) = delete;

  /// The OK answer's body, undecoded.
  Result<std::string> Body(const std::vector<PartitionId>& ids,
                           const RequestHeader& header) {
    if (fd_ < 0) return Status::IOError("not connected");
    BinaryWriter request;
    BeginRequest(&request, Verb::kQuery, header);
    request.PutString(kTenant);
    request.PutString(kDataset);
    request.PutVarint64(ids.size());
    for (const PartitionId id : ids) request.PutVarint64(id);
    SAMPWH_RETURN_IF_ERROR(WriteFrame(fd_, request.buffer()));
    std::string payload;
    SAMPWH_RETURN_IF_ERROR(
        ReadFrame(fd_, kWireDefaultMaxFrameBytes, &payload));
    BinaryReader reader(payload);
    SAMPWH_RETURN_IF_ERROR(ParseResponseHead(&reader));
    return std::string(payload.substr(payload.size() - reader.remaining()));
  }

 private:
  int fd_ = -1;
};

/// Rolls the kParts partitions in under ids 0.. in content variant
/// `variant` after creating the dataset.
void Build(WarehouseClient& writer, int variant) {
  ASSERT_TRUE(writer.CreateDataset(kTenant, kDataset).ok());
  for (PartitionId p = 0; p < kParts; ++p) {
    ASSERT_TRUE(writer.RollInAt(kTenant, kDataset, p, Part(p, variant)).ok());
  }
}

TEST(HeldAnswerTest, ServerAnswersUnchangedOnlyToTheCurrentTag) {
  auto server = MustStart(HeldServerOptions());
  ASSERT_NE(server, nullptr);
  auto writer = MustConnect(*server);
  ASSERT_NE(writer, nullptr);
  ASSERT_NO_FATAL_FAILURE(Build(*writer, 0));
  const std::string window_blob = SampleBytes(
      server->warehouse_for_testing()->MergedSample(kKey, kWindow).value());

  RawQuery raw(*server);
  // Today's head, v1 or v2 without the flag: the blob and nothing after it.
  RequestHeader deadline;
  deadline.deadline_millis = 5'000;
  for (const RequestHeader& legacy : {RequestHeader{}, deadline}) {
    const Result<std::string> body = raw.Body(kWindow, legacy);
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    BinaryWriter expected;
    expected.PutString(window_blob);
    EXPECT_EQ(body.value(), expected.buffer());
  }

  // Opted in while holding nothing: the blob, then the tag.
  RequestHeader opt_in;
  opt_in.held = AnswerTag{};
  const Result<std::string> first = raw.Body(kWindow, opt_in);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  BinaryReader first_reader(first.value());
  std::string blob;
  AnswerTag tag;
  ASSERT_TRUE(first_reader.GetString(&blob).ok());
  ASSERT_TRUE(GetAnswerTag(&first_reader, &tag).ok());
  EXPECT_TRUE(first_reader.AtEnd());
  EXPECT_EQ(blob, window_blob);
  EXPECT_NE(tag.nonce, 0u);

  // Naming that tag: an empty blob and the same tag.
  RequestHeader holding;
  holding.held = tag;
  const Result<std::string> repeat = raw.Body(kWindow, holding);
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  BinaryWriter unchanged;
  unchanged.PutString("");
  PutAnswerTag(&unchanged, tag);
  EXPECT_EQ(repeat.value(), unchanged.buffer());

  // A mutation anywhere in the dataset moves the tag, and so does a tag
  // another process would have issued.
  ASSERT_TRUE(writer->RollOut(kTenant, kDataset, 0).ok());
  ASSERT_TRUE(writer->RollInAt(kTenant, kDataset, 0, Part(0, 0)).ok());
  RequestHeader foreign;
  foreign.held = AnswerTag{tag.nonce + 1, tag.version};
  for (const RequestHeader& stale : {holding, foreign}) {
    const Result<std::string> body = raw.Body(kWindow, stale);
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    BinaryReader reader(body.value());
    ASSERT_TRUE(reader.GetString(&blob).ok());
    EXPECT_EQ(blob, window_blob);
  }
}

TEST(HeldAnswerTest, ClientServesARepeatFromWhatItHolds) {
  auto server = MustStart(HeldServerOptions());
  ASSERT_NE(server, nullptr);
  auto writer = MustConnect(*server);
  ASSERT_NE(writer, nullptr);
  ASSERT_NO_FATAL_FAILURE(Build(*writer, 0));
  Warehouse* wh = server->warehouse_for_testing();
  auto client = MustConnect(*server);
  ASSERT_NE(client, nullptr);

  // A key's first ask holds nothing, its second holds the answer, and from
  // its third on the server says "unchanged". The same id set in any
  // order is one key.
  const std::vector<PartitionId> reversed = {4, 3, 2, 1};
  const std::string expected = SampleBytes(wh->MergedSample(kKey, kWindow).value());
  for (const auto& ids : {kWindow, reversed, kWindow, reversed}) {
    const Result<PartitionSample> answer = client->Query(kTenant, kDataset, ids);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(SampleBytes(answer.value()), expected);
  }
  EXPECT_EQ(client->stats().answers_unchanged, 2u);
  EXPECT_NE(client->answer_nonce(), 0u);

  // A held set of kHeldAnswers keys drops the least recently used: after
  // that many other keys, each asked twice, the window arrives again and
  // the newest is still held.
  std::vector<std::vector<PartitionId>> distinct;
  for (uint32_t mask = 1; distinct.size() < WarehouseClient::kHeldAnswers;
       ++mask) {
    std::vector<PartitionId> ids;
    for (PartitionId p = 0; p < kParts; ++p) {
      if ((mask >> p) & 1) ids.push_back(p);
    }
    if (ids != kWindow) distinct.push_back(std::move(ids));
  }
  for (const auto& ids : distinct) {
    ASSERT_TRUE(client->Query(kTenant, kDataset, ids).ok());
    ASSERT_TRUE(client->Query(kTenant, kDataset, ids).ok());
  }
  const uint64_t before = client->stats().answers_unchanged;
  ASSERT_TRUE(client->Query(kTenant, kDataset, kWindow).ok());
  EXPECT_EQ(client->stats().answers_unchanged, before);
  const Result<PartitionSample> newest =
      client->Query(kTenant, kDataset, distinct.back());
  ASSERT_TRUE(newest.ok());
  EXPECT_EQ(client->stats().answers_unchanged, before + 1);
  EXPECT_EQ(SampleBytes(newest.value()),
            SampleBytes(wh->MergedSample(kKey, distinct.back()).value()));
}

// --- Interop with a server that tags nothing, and with one that lies -------

/// Listens on an ephemeral loopback port, accepts one connection, records
/// each request payload and answers it with `response_payload`.
class RecordingStub {
 public:
  explicit RecordingStub(std::string response_payload)
      : response_(std::move(response_payload)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
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
  RecordingStub(const RecordingStub&) = delete;
  RecordingStub& operator=(const RecordingStub&) = delete;
  ~RecordingStub() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (thread_.joinable()) thread_.join();
    ::close(listen_fd_);
  }

  uint16_t port() const { return port_; }
  /// The requests received; read after the client is gone.
  const std::vector<std::string>& requests() const { return requests_; }

 private:
  void Serve() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    timeval timeout{};
    timeout.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    std::string request;
    while (ReadFrame(fd, kWireDefaultMaxFrameBytes, &request).ok()) {
      requests_.push_back(request);
      if (!WriteFrame(fd, response_).ok()) break;
    }
    ::close(fd);
  }

  std::string response_;
  std::vector<std::string> requests_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

std::string OkQueryResponse(std::string_view blob, const AnswerTag* tag) {
  BinaryWriter writer;
  BeginResponse(&writer, Status::OK());
  writer.PutString(blob);
  if (tag != nullptr) PutAnswerTag(&writer, *tag);
  return writer.Release();
}

TEST(HeldAnswerTest, ServerThatSendsNoTagLeavesNothingHeld) {
  const std::string blob = SampleBytes(MakeReservoirSample(-40, 300));
  std::vector<std::string> requests;
  {
    RecordingStub stub(OkQueryResponse(blob, nullptr));
    ClientOptions options;
    options.max_retries = 0;
    auto client = WarehouseClient::Connect("127.0.0.1", stub.port(), options);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    for (int repeat = 0; repeat < 3; ++repeat) {
      const Result<PartitionSample> answer =
          client.value()->Query(kTenant, kDataset, {1, 2});
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      EXPECT_EQ(SampleBytes(answer.value()), blob);
    }
    EXPECT_EQ(client.value()->stats().answers_unchanged, 0u);
    EXPECT_EQ(client.value()->answer_nonce(), 0u);
    client.value().reset();
    requests = stub.requests();
  }
  // Every request opted in, and each named the zero tag: nothing is held.
  ASSERT_EQ(requests.size(), 3u);
  for (const std::string& request : requests) {
    BinaryReader reader(request);
    uint32_t verb = 0;
    RequestHeader header;
    ASSERT_TRUE(ParseRequestHead(&reader, &verb, &header).ok());
    ASSERT_TRUE(header.held.has_value());
    EXPECT_EQ(*header.held, AnswerTag{});
  }
}

TEST(HeldAnswerTest, UnchangedAnswerToAQueryHoldingNoneIsCorruption) {
  const AnswerTag tag{5, 6};
  RecordingStub stub(OkQueryResponse("", &tag));
  ClientOptions options;
  options.max_retries = 0;
  auto client = WarehouseClient::Connect("127.0.0.1", stub.port(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(
      client.value()->Query(kTenant, kDataset, {1}).status().IsCorruption());
}

TEST(HeldAnswerTest, BytesAfterTheTagAreCorruption) {
  const std::string blob = SampleBytes(MakeReservoirSample(-40, 300));
  const AnswerTag tag{5, 6};
  RecordingStub stub(OkQueryResponse(blob, &tag) + std::string(1, '\0'));
  ClientOptions options;
  options.max_retries = 0;
  auto client = WarehouseClient::Connect("127.0.0.1", stub.port(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(
      client.value()->Query(kTenant, kDataset, {1}).status().IsCorruption());
}

// --- Churn: every answer is the answer of one catalog state ----------------

/// One catalog state of the dataset: whether it exists, and each
/// partition's content variant (-1 when absent).
struct CatalogState {
  bool exists = false;
  std::array<int, kParts> variant = {-1, -1, -1, -1, -1};

  bool operator<(const CatalogState& other) const {
    return std::tie(exists, variant) < std::tie(other.exists, other.variant);
  }
};

/// A query's outcome: the answer's bytes, or the error code.
struct Outcome {
  StatusCode code = StatusCode::kOk;
  std::string bytes;
  bool operator==(const Outcome&) const = default;
};

Outcome OutcomeOf(const Result<PartitionSample>& answer) {
  if (!answer.ok()) return {answer.status().code(), {}};
  return {StatusCode::kOk, SampleBytes(answer.value())};
}

/// The outcomes each state answers, from one embedded warehouse per state
/// under the server's seed and options.
class References {
 public:
  const Outcome& Of(const CatalogState& state, bool window) {
    auto it = cache_.find(state);
    if (it == cache_.end()) {
      Warehouse wh(TestServerOptions().warehouse);
      if (state.exists) {
        EXPECT_TRUE(wh.CreateDataset(kKey).ok());
        for (PartitionId p = 0; p < kParts; ++p) {
          if (state.variant[p] < 0) continue;
          EXPECT_TRUE(wh.RollInAt(kKey, p, Part(p, state.variant[p])).ok());
        }
      }
      std::pair<Outcome, Outcome> outcomes{
          OutcomeOf(wh.MergedSample(kKey, kWindow)),
          OutcomeOf(wh.MergedSampleAll(kKey))};
      it = cache_.emplace(state, std::move(outcomes)).first;
    }
    return window ? it->second.first : it->second.second;
  }

 private:
  std::map<CatalogState, std::pair<Outcome, Outcome>> cache_;
};

/// Client knobs for readers that ride through a server restart: quick
/// retries and no breaker.
ClientOptions ChurnClientOptions() {
  ClientOptions options;
  options.connect_timeout_millis = 1'000;
  options.read_timeout_millis = 5'000;
  options.max_retries = 3;
  options.backoff_initial_millis = 2;
  options.backoff_max_millis = 20;
  options.breaker_failure_threshold = 0;
  return options;
}

/// The server under churn, with its writer connection and a model of
/// its catalog state.
class ChurnedServer {
 public:
  ChurnedServer() { Start(0); }

  WarehouseServer* server() { return server_.get(); }
  const CatalogState& state() const { return state_; }

  enum class Op { kRestart, kDrop, kCreate, kRollIn, kRollOut };

  /// Applies one operation and updates the model.
  void Apply(Op op, PartitionId p = 0, int variant = 0) {
    switch (op) {
      case Op::kRestart:
        server_.reset();
        Start(port_);
        state_ = CatalogState{};
        break;
      case Op::kDrop:
        ASSERT_TRUE(writer_->DropDataset(kTenant, kDataset).ok());
        state_ = CatalogState{};
        break;
      case Op::kCreate:
        ASSERT_TRUE(writer_->CreateDataset(kTenant, kDataset).ok());
        state_.exists = true;
        break;
      case Op::kRollIn:
        ASSERT_TRUE(
            writer_->RollInAt(kTenant, kDataset, p, Part(p, variant)).ok());
        state_.variant[p] = variant;
        break;
      case Op::kRollOut:
        ASSERT_TRUE(writer_->RollOut(kTenant, kDataset, p).ok());
        state_.variant[p] = -1;
        break;
    }
  }

  void Build(int variant) {
    Apply(Op::kCreate);
    for (PartitionId p = 0; p < kParts; ++p) Apply(Op::kRollIn, p, variant);
  }

 private:
  void Start(uint16_t port) {
    server_ = MustStart(HeldServerOptions(port));
    ASSERT_NE(server_, nullptr);
    port_ = server_->port();
    writer_ = MustConnect(*server_);
    ASSERT_NE(writer_, nullptr);
  }

  std::unique_ptr<WarehouseServer> server_;
  std::unique_ptr<WarehouseClient> writer_;
  uint16_t port_ = 0;
  CatalogState state_;
};

/// Queries the window and the whole dataset three times each (the second
/// and third are served held when nothing moved) and expects the state's
/// outcomes.
void ExpectStateAnswers(WarehouseClient& reader, References& refs,
                        const CatalogState& state, const std::string& what) {
  for (const bool window : {true, false}) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      const Outcome got = OutcomeOf(
          reader.Query(kTenant, kDataset, window ? kWindow : kAll));
      const Outcome& want = refs.Of(state, window);
      EXPECT_TRUE(got == want)
          << what << (window ? ", window" : ", all") << ", repeat " << repeat
          << ": code " << static_cast<int>(got.code) << " want "
          << static_cast<int>(want.code);
    }
  }
}

TEST(HeldAnswerTest, ChurnAnswersMatchOneCatalogState) {
  References refs;
  ChurnedServer churn;
  ASSERT_NE(churn.server(), nullptr);
  using Op = ChurnedServer::Op;

  // Scripted: each step is one the held answers must not survive. A
  // server restarted on the same port rebuilds the same catalog versions
  // (only its boot nonce tells them apart); a re-created dataset reaches
  // the version count its dropped self had; a roll-out leaves the window
  // without a member.
  auto reader = WarehouseClient::Open("127.0.0.1", churn.server()->port(),
                                      ChurnClientOptions());
  ASSERT_NO_FATAL_FAILURE(churn.Build(0));
  ExpectStateAnswers(*reader, refs, churn.state(), "built");
  ASSERT_NO_FATAL_FAILURE(churn.Apply(Op::kRestart));
  ASSERT_NO_FATAL_FAILURE(churn.Build(1));
  ExpectStateAnswers(*reader, refs, churn.state(), "restarted and rebuilt");
  ASSERT_NO_FATAL_FAILURE(churn.Apply(Op::kDrop));
  ExpectStateAnswers(*reader, refs, churn.state(), "dropped");
  ASSERT_NO_FATAL_FAILURE(churn.Build(0));
  ExpectStateAnswers(*reader, refs, churn.state(), "re-created");
  ASSERT_NO_FATAL_FAILURE(churn.Apply(Op::kRollOut, kMember));
  ExpectStateAnswers(*reader, refs, churn.state(), "member rolled out");
  ASSERT_NO_FATAL_FAILURE(churn.Apply(Op::kRollIn, kMember, 1));
  ExpectStateAnswers(*reader, refs, churn.state(), "member rolled in");
  EXPECT_GT(reader->stats().answers_unchanged, 0u);

  // Concurrent: readers query while the writer churns. The writer
  // publishes how many operations it completed; an answer must be that of
  // a state from the one completed before the query began to the one in
  // flight when it ended.
  std::vector<CatalogState> states = {churn.state()};
  std::vector<bool> restarted = {false};
  std::atomic<size_t> done{0};
  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::atomic<int> answered{0};
  std::atomic<uint64_t> unchanged{0};
  // The plan, fixed before any reader runs: rounds of a member roll-out
  // and roll-in, with a drop and re-create every 8th round and a restart
  // every 16th.
  struct Step {
    Op op;
    PartitionId p;
    int variant;
  };
  std::vector<Step> plan;
  for (int round = 1; round <= 48; ++round) {
    const int variant = round % 2;
    if (round % 8 == 0) {
      plan.push_back({round % 16 == 0 ? Op::kRestart : Op::kDrop, 0, 0});
      plan.push_back({Op::kCreate, 0, 0});
      for (PartitionId p = 0; p < kParts; ++p) {
        plan.push_back({Op::kRollIn, p, variant});
      }
    } else {
      plan.push_back({Op::kRollOut, kMember, 0});
      plan.push_back({Op::kRollIn, kMember, variant});
    }
  }
  {
    CatalogState model = churn.state();
    for (const Step& step : plan) {
      switch (step.op) {
        case Op::kRestart:
        case Op::kDrop:
          model = CatalogState{};
          break;
        case Op::kCreate:
          model.exists = true;
          break;
        case Op::kRollIn:
          model.variant[step.p] = step.variant;
          break;
        case Op::kRollOut:
          model.variant[step.p] = -1;
          break;
      }
      states.push_back(model);
      restarted.push_back(step.op == Op::kRestart);
      refs.Of(model, true);  // every reference is computed up front
    }
  }
  const auto acceptable = [&](const Outcome& got, bool window, size_t from,
                              size_t to) {
    to = std::min(to, states.size() - 1);
    for (size_t k = from; k <= to; ++k) {
      if (got == refs.Of(states[k], window)) return true;
      // A restart in flight: the connection drops or is refused.
      const bool transport = got.code == StatusCode::kIOError ||
                             got.code == StatusCode::kUnavailable ||
                             got.code == StatusCode::kDeadlineExceeded;
      if (transport && restarted[k]) return true;
      // A member or the dataset removed between the catalog read and the
      // leaf fetch (ROADMAP item 6) is NotFound, never a wrong answer.
      if (got.code == StatusCode::kNotFound && k > from &&
          (plan[k - 1].op == Op::kRollOut || plan[k - 1].op == Op::kDrop ||
           restarted[k])) {
        return true;
      }
    }
    return false;
  };

  constexpr int kReaders = 3;
  const uint16_t port = churn.server()->port();
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      auto client =
          WarehouseClient::Open("127.0.0.1", port, ChurnClientOptions());
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const bool window = (i / 3 + r) % 2 == 0;
        const size_t from = done.load(std::memory_order_acquire);
        const Outcome got = OutcomeOf(
            client->Query(kTenant, kDataset, window ? kWindow : kAll));
        const size_t to = done.load(std::memory_order_acquire) + 1;
        if (!acceptable(got, window, from, to)) {
          wrong.fetch_add(1);
          ADD_FAILURE() << "reader " << r << " query " << i << " ("
                        << (window ? "window" : "all") << ") over states "
                        << from << ".." << to << ": code "
                        << static_cast<int>(got.code);
        }
        if (got.code == StatusCode::kOk) answered.fetch_add(1);
      }
      unchanged.fetch_add(client->stats().answers_unchanged);
    });
  }
  constexpr int kAnswers = 200;
  for (size_t k = 0; k < plan.size(); ++k) {
    ASSERT_NO_FATAL_FAILURE(
        churn.Apply(plan[k].op, plan[k].p, plan[k].variant));
    done.store(k + 1, std::memory_order_release);
    // Room for the readers to repeat a query between two operations, and
    // to keep pace on a loaded machine (up to a bound).
    const auto now = std::chrono::steady_clock::now();
    const auto pause = now + std::chrono::milliseconds(2);
    const auto bound = now + std::chrono::seconds(2);
    while (std::chrono::steady_clock::now() < pause ||
           (answered.load() < static_cast<int>(k * kAnswers / plan.size()) &&
            std::chrono::steady_clock::now() < bound)) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GE(answered.load(), kAnswers * static_cast<int>(plan.size() - 1) /
                                 static_cast<int>(plan.size()));
  EXPECT_GT(unchanged.load(), 0u);
}

}  // namespace
}  // namespace sampwh
