// The three workloads: their seeded inputs and operation sequences, the
// deployment they run against, and the correctness gate.

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "perfbench/src/bench.h"
#include "src/core/any_sampler.h"
#include "src/core/types.h"
#include "src/util/random.h"
#include "src/util/serialization.h"
#include "src/warehouse/warehouse.h"

namespace perfbench {
namespace {

using sampwh::Pcg64;

constexpr uint64_t kWarehouseSeed = 0x5157313136ULL;
// Stream salts: each input family draws from its own PCG stream.
constexpr uint64_t kFactsSalt = 0xfac75;
constexpr uint64_t kFeedSalt = 0xfeed;
constexpr uint64_t kSamplerSalt = 0x5a3b1e;
constexpr uint64_t kSubsetSalt = 0x5b5e7;
constexpr uint64_t kKeepSalt = 0xc4ec;
/// Answers per run that the correctness gate re-derives.
constexpr double kKeptAnswers = 32;

void Fail(const char* what, const sampwh::Status& st) {
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               st.ToString().c_str());
}

sampwh::CacheStats Delta(const sampwh::CacheStats& after,
                         const sampwh::CacheStats& before) {
  sampwh::CacheStats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.evictions = after.evictions - before.evictions;
  return d;
}

uint64_t Digest(const std::string& bytes) {
  return (static_cast<uint64_t>(sampwh::Crc32(bytes)) << 32) |
         (static_cast<uint64_t>(bytes.size()) & 0xffffffffull);
}

}  // namespace

WorkloadConfig MakeConfig(const Args& args) {
  WorkloadConfig c;
  c.name = args.workload;
  const uint64_t s = static_cast<uint64_t>(std::max(args.seconds, 1));
  if (c.name == "scatter_union") {
    // 4 nodes, hash-placed partitions of 128-value samples: about 55 serial
    // RPCs and coordinator-side merges per random-half union. (With
    // 64-value samples, cross-CPU wakeup latency set the result.)
    c.nodes = 4;
    c.sample_bytes = 128 * sampwh::kSingletonFootprintBytes;
    c.population = args.tiny ? 48 : 128;
    c.population_raw_elements = 8 * 1024;
    c.setup_batches = args.tiny ? 10 : 32;
    const uint64_t queries = args.tiny ? 48 : 100 * s;
    c.ops.assign(queries, Op{OpKind::kQuery, 0});
  } else if (c.name == "hot_window") {
    // 1 node, 32 KiB samples: a dashboard of three recurring windows over
    // the newest partitions, each re-queried before the next partition
    // arrives and the windows slide. One feed batch per cycle keeps the
    // node's stream open beside it, so the append and close latencies are
    // sampled over the whole run.
    c.nodes = 1;
    c.sample_bytes = 32 * 1024;
    c.population = 64;
    c.population_raw_elements = 16 * 1024;
    c.rollin_raw_elements = 16 * 1024;
    c.setup_batches = args.tiny ? 10 : 32;
    // The traced run plays its sequence twice (untraced, then traced)
    // before the replay legs, so it plays half as many cycles; at 25 s that
    // still leaves ten samples beyond every reported tail.
    const uint64_t cycles = args.tiny ? 2 : (args.trace ? 6 : 12) * s;
    const uint64_t windows[] = {2, 8, 32};
    uint64_t batch = c.setup_batches;
    for (uint64_t cycle = 0; cycle < cycles; ++cycle) {
      c.ops.push_back({OpKind::kAppend, batch++});
      c.ops.push_back({OpKind::kRollIn, c.population + cycle});
      for (int repeat = 0; repeat < 12; ++repeat) {
        for (const uint64_t w : windows) c.ops.push_back({OpKind::kQuery, w});
      }
    }
    c.ops_per_cycle = 2 + 12 * 3;
  } else if (c.name == "ingest_rollup") {
    // 2 file-store nodes at R=2: streamed batches beside roll-ins and a
    // query over the newest partitions, so the catalog grows along the
    // same trajectory in every run.
    c.nodes = 2;
    c.replication = 2;
    c.file_store = true;
    // 16 KiB samples, and a setup that streams 128 feed batches beside 16
    // roll-ins of partitions sampled from 1 Mi raw elements each: setup is
    // mostly ingest work rather than file replacement, whose latency on a
    // shared disk drifts with other tenants' load.
    c.sample_bytes = 16 * 1024;
    c.population = args.tiny ? 4 : 16;
    c.population_raw_elements = 1024 * 1024;
    c.rollin_raw_elements = 2048;
    c.setup_batches = args.tiny ? 10 : 128;
    const uint64_t cycles = args.tiny ? 48 : 64 * s;
    uint64_t batch = c.setup_batches;
    for (uint64_t cycle = 0; cycle < cycles; ++cycle) {
      c.ops.push_back({OpKind::kAppend, batch++});
      c.ops.push_back({OpKind::kRollIn, c.population + cycle});
      c.ops.push_back({OpKind::kQuery, 4});
    }
    c.ops_per_cycle = 3;
  }
  if (args.tiny) c.setups = 2;
  return c;
}

std::vector<Value> RawPartition(const WorkloadConfig& c, uint64_t seed,
                                uint64_t p) {
  Pcg64 rng(seed ^ kFactsSalt, p);
  std::vector<Value> raw(p < c.population ? c.population_raw_elements
                                          : c.rollin_raw_elements);
  for (Value& v : raw) v = static_cast<Value>(rng.NextUint64() >> 24);
  return raw;
}

std::vector<Value> FeedBatch(const WorkloadConfig& c, uint64_t seed,
                             uint64_t b) {
  Pcg64 rng(seed ^ kFeedSalt, b);
  std::vector<Value> batch(c.batch_elements);
  for (Value& v : batch) v = static_cast<Value>(rng.NextUint64() >> 24);
  return batch;
}

PartitionSample SampleRaw(const WorkloadConfig& c, uint64_t seed, uint64_t p,
                          const std::vector<Value>& raw) {
  sampwh::AnySampler sampler(NodeOptions(c, "").warehouse.sampler,
                             Pcg64(seed ^ kSamplerSalt, p));
  sampler.AddBatch(raw);
  return sampler.Finalize();
}

sampwh::ServerOptions NodeOptions(const WorkloadConfig& c,
                                  const std::string& store_directory) {
  sampwh::ServerOptions o;
  o.port = 0;
  o.warehouse.seed = kWarehouseSeed;
  o.warehouse.sampler.footprint_bound_bytes = c.sample_bytes;
  o.warehouse.merge.footprint_bound_bytes = c.sample_bytes;
  // Nonzero: the distributed-exactness contract needs the memoized merge.
  o.warehouse.merge_memo_bytes = 8ull << 20;
  o.store_directory = store_directory;
  // Tenants are not persisted; a restarted node gets its tenant back from
  // the bootstrap list, as a deployment's configuration would.
  o.bootstrap_tenants[kTenant] = {};
  return o;
}

sampwh::CoordinatorOptions CoordOptions(const WorkloadConfig& c) {
  sampwh::CoordinatorOptions o;
  o.seed = kWarehouseSeed;
  o.merge.footprint_bound_bytes = c.sample_bytes;
  o.replication_factor = c.replication;
  return o;
}

Session::Session(const WorkloadConfig& config, const Args& args,
                 Tracer* tracer)
    : config_(config), args_(args), tracer_(tracer) {}

Session::~Session() { Teardown(); }

std::string Session::NodeDirectory(size_t node) const {
  return args_.work_dir + "/" + config_.name + "/node" + std::to_string(node);
}

void Session::Teardown() {
  coord_.reset();
  for (auto& server : servers_) server->Stop();
  servers_.clear();
}

sampwh::Result<double> Session::Setup() {
  Teardown();
  tracer_->Open("setup");
  node_options_.clear();
  for (size_t i = 0; i < config_.nodes; ++i) {
    std::string dir;
    if (config_.file_store) {
      dir = NodeDirectory(i);
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
    }
    node_options_.push_back(NodeOptions(config_, dir));
  }
  facts_ids.clear();
  facts_p.clear();
  batch_ms.clear();
  batch_closed.clear();
  feed_closed = 0;
  next_sequence_ = 0;

  // Deploy: start the nodes, connect, create the tenant and datasets.
  auto start = Clock::now();
  std::vector<sampwh::ShardNodeAddress> addresses;
  for (const sampwh::ServerOptions& options : node_options_) {
    SAMPWH_ASSIGN_OR_RETURN(std::unique_ptr<sampwh::WarehouseServer> server,
                            sampwh::WarehouseServer::Start(options));
    addresses.push_back({server->host(), server->port()});
    servers_.push_back(std::move(server));
  }
  SAMPWH_ASSIGN_OR_RETURN(
      coord_, sampwh::ShardCoordinator::Connect(addresses, CoordOptions(config_)));
  SAMPWH_RETURN_IF_ERROR(coord_->CreateDataset(kTenant, kFacts));
  SAMPWH_RETURN_IF_ERROR(coord_->CreateDataset(kTenant, kFeed));
  SAMPWH_RETURN_IF_ERROR(coord_->client(0)->IngestOpen(kTenant, kFeed).status());
  double seconds = MillisBetween(start, Clock::now()) / 1e3;

  // Load: sample each generated raw partition and roll it in, then stream
  // the feed. Input generation stays outside the timed sections.
  for (uint64_t p = 0; p < config_.population; ++p) {
    const std::vector<Value> raw = RawPartition(config_, args_.seed, p);
    start = Clock::now();
    const PartitionSample sample = SampleRaw(config_, args_.seed, p, raw);
    RollIn(-1, p, sample);
    seconds += MillisBetween(start, Clock::now()) / 1e3;
  }
  for (uint64_t b = 0; b < config_.setup_batches; ++b) {
    const std::vector<Value> values = FeedBatch(config_, args_.seed, b);
    start = Clock::now();
    Append(-1, b, values);
    seconds += MillisBetween(start, Clock::now()) / 1e3;
  }
  tracer_->Close();
  return seconds;
}

NodeCounters Session::ReadCounters() const {
  NodeCounters c;
  for (const auto& server : servers_) {
    const sampwh::ServerStatsSnapshot s = server->stats();
    c.requests += s.requests_served;
    c.errors += s.error_responses + s.protocol_errors + s.connections_dropped;
    c.replica_writes += s.replica_writes;
    const sampwh::WarehouseCacheStats cache =
        server->warehouse_for_testing()->GetCacheStats();
    c.sample_cache += cache.sample_cache;
    c.memo += cache.merge_memo;
  }
  return c;
}

sampwh::StoreStats Session::FeedStoreStats() const {
  return servers_[0]->warehouse_for_testing()->store_for_testing()
      ->GetStoreStats();
}

void Session::StoredBytes(DirBytes* stored, uint64_t* live) const {
  *stored = DirBytes{};
  *live = 0;
  for (size_t i = 0; i < servers_.size(); ++i) {
    sampwh::Warehouse* wh = servers_[i]->warehouse_for_testing();
    if (config_.file_store) {
      const DirBytes d = ScanStoreDirectory(NodeDirectory(i));
      stored->samples += d.samples;
      stored->checkpoints += d.checkpoints;
      stored->manifest += d.manifest;
    } else {
      stored->samples += wh->store_for_testing()->TotalStoredBytes();
      const auto chain = wh->store_for_testing()->GetCheckpointChain(
          std::string(kTenant) + "." + kFeed);
      if (chain.ok()) {
        stored->checkpoints += chain.value().snapshot.size();
        for (const std::string& d : chain.value().deltas) {
          stored->checkpoints += d.size();
        }
      }
    }
    for (const char* dataset : {kFacts, kFeed}) {
      const std::string key = std::string(kTenant) + "." + dataset;
      const auto parts = wh->ListPartitions(key);
      if (!parts.ok()) continue;
      for (const sampwh::PartitionInfo& info : parts.value()) {
        const auto sample = wh->GetSample(key, info.id);
        if (sample.ok()) *live += SerializeSample(sample.value()).size();
      }
    }
  }
}

bool Session::Query(int64_t op, const std::vector<PartitionId>& ids) {
  NodeCounters before;
  if (tracer_->enabled()) before = ReadCounters();
  const auto start = Clock::now();
  auto answer = coord_->Query(kTenant, kFacts, ids);
  const auto end = Clock::now();
  ++attempted;
  if (!answer.ok()) {
    ++failed;
    Fail("query", answer.status());
    return false;
  }
  last_ms_ = MillisBetween(start, end);
  query_ms.push_back(last_ms_);
  tracer_->Record("coordinator.query", start, end, op);
  if (op >= 0 && keep_[op]) kept_answers_[op] = SerializeSample(answer.value());
  if (tracer_->enabled()) {
    const NodeCounters after = ReadCounters();
    counters.queries++;
    counters.query_rpcs += after.requests - before.requests;
    counters.sample_cache += Delta(after.sample_cache, before.sample_cache);
    counters.memo += Delta(after.memo, before.memo);
  }
  return true;
}

bool Session::RollIn(int64_t op, uint64_t p, const PartitionSample& sample) {
  NodeCounters before;
  if (tracer_->enabled()) before = ReadCounters();
  const auto start = Clock::now();
  auto id = coord_->RollIn(kTenant, kFacts, sample, p, p);
  const auto end = Clock::now();
  ++attempted;
  if (!id.ok()) {
    ++failed;
    Fail("roll-in", id.status());
    return false;
  }
  last_ms_ = MillisBetween(start, end);
  rollin_ms.push_back(last_ms_);
  facts_ids.push_back(id.value());
  facts_p.push_back(p);
  tracer_->Record("coordinator.rollin", start, end, op);
  if (tracer_->enabled()) {
    const NodeCounters after = ReadCounters();
    counters.rollins++;
    counters.rollin_rpcs += after.requests - before.requests;
    counters.replica_writes += after.replica_writes - before.replica_writes;
  }
  return true;
}

bool Session::Append(int64_t op, uint64_t b,
                     const std::vector<Value>& values) {
  const auto start = Clock::now();
  auto ack = coord_->client(0)->IngestAppend(kTenant, kFeed, next_sequence_,
                                             values, b);
  const auto end = Clock::now();
  ++attempted;
  const uint64_t expected = next_sequence_ + values.size();
  if (!ack.ok() || ack.value().next_sequence != expected) {
    ++failed;
    Fail("ingest append", ack.ok() ? sampwh::Status::Internal("watermark")
                                   : ack.status());
    return false;
  }
  next_sequence_ = expected;
  last_ms_ = MillisBetween(start, end);
  const bool closed = ack.value().partitions_rolled_in > feed_closed;
  feed_closed = ack.value().partitions_rolled_in;
  (closed ? close_ms : append_ms).push_back(last_ms_);
  appended_elements += values.size();
  if (batch_ms.size() <= b) {
    batch_ms.resize(b + 1, 0);
    batch_closed.resize(b + 1, false);
  }
  batch_ms[b] = last_ms_;
  batch_closed[b] = closed;
  tracer_->Record("client.ingest_append", start, end, op);
  return true;
}

double Session::RunOps() {
  const std::vector<Op>& ops = config_.ops;
  size_t queries = 0;
  for (const Op& op : ops) queries += op.kind == OpKind::kQuery;
  Pcg64 keep_rng(args_.seed ^ kKeepSalt, 0);
  const double keep_p = std::min(1.0, kKeptAnswers / std::max<size_t>(queries, 1));
  keep_.assign(ops.size(), false);
  for (size_t i = 0; i < ops.size(); ++i) {
    keep_[i] = ops[i].kind == OpKind::kQuery && keep_rng.Bernoulli(keep_p);
  }
  kept_answers_.clear();
  op_ids.assign(ops.size(), {});
  op_ms.assign(ops.size(), 0);

  tracer_->Open("measure");
  const auto start = Clock::now();
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const int64_t id = static_cast<int64_t>(i);
    last_ms_ = 0;
    switch (op.kind) {
      case OpKind::kQuery: {
        std::vector<PartitionId>& ids = op_ids[i];
        if (op.arg == 0) {
          Pcg64 rng(args_.seed ^ kSubsetSalt, i);
          for (const PartitionId fid : facts_ids) {
            if (rng.Bernoulli(0.5)) ids.push_back(fid);
          }
          if (ids.empty()) ids.push_back(facts_ids[rng.UniformInt(facts_ids.size())]);
        } else {
          const size_t w = std::min<size_t>(op.arg, facts_ids.size());
          ids.assign(facts_ids.end() - static_cast<std::ptrdiff_t>(w),
                     facts_ids.end());
        }
        Query(id, ids);
        break;
      }
      case OpKind::kRollIn:
        // Sampled here, outside the timed RPC.
        RollIn(id, op.arg,
               SampleRaw(config_, args_.seed, op.arg,
                         RawPartition(config_, args_.seed, op.arg)));
        break;
      case OpKind::kAppend:
        Append(id, op.arg, FeedBatch(config_, args_.seed, op.arg));
        break;
    }
    op_ms[i] = last_ms_;
  }
  const double seconds = MillisBetween(start, Clock::now()) / 1e3;
  tracer_->Close();
  return seconds;
}

bool Session::CheckAnswers() {
  sampwh::WarehouseOptions options = NodeOptions(config_, "").warehouse;
  options.sample_cache_bytes = 0;
  sampwh::Warehouse reference(options);
  const std::string key = std::string(kTenant) + "." + kFacts;
  if (!reference.CreateDataset(key).ok()) return false;
  for (size_t k = 0; k < facts_ids.size(); ++k) {
    const uint64_t p = facts_p[k];
    const PartitionSample sample =
        SampleRaw(config_, args_.seed, p, RawPartition(config_, args_.seed, p));
    if (!reference.RollInAt(key, facts_ids[k], sample, p, p).ok()) return false;
  }
  bool corrupt = args_.corrupt_reference;
  size_t mismatches = 0;
  for (const auto& [op, bytes] : kept_answers_) {
    auto expected = reference.MergedSample(key, op_ids[op]);
    if (!expected.ok()) {
      Fail("reference query", expected.status());
      return false;
    }
    std::string want = SerializeSample(expected.value());
    if (corrupt && !want.empty()) {
      want[want.size() / 2] ^= 0x01;
      corrupt = false;
    }
    if (want != bytes) {
      ++mismatches;
      std::fprintf(stderr,
                   "perfbench: answer of op %lld differs from the "
                   "single-warehouse reference\n",
                   static_cast<long long>(op));
    }
  }
  return !kept_answers_.empty() && mismatches == 0;
}

bool Session::RestartAndVerify(double* restart_ms) {
  bool ok = true;
  const auto complain = [&ok](const std::string& what) {
    std::fprintf(stderr, "perfbench: restart check: %s\n", what.c_str());
    ok = false;
  };
  // Charge-once accounting: every node's tenant usage equals what it
  // stores, before the stop and after the restart.
  const auto check_usage = [&](const char* when) {
    for (size_t i = 0; i < servers_.size(); ++i) {
      sampwh::Warehouse* wh = servers_[i]->warehouse_for_testing();
      uint64_t bytes = 0, partitions = 0;
      for (const char* dataset : {kFacts, kFeed}) {
        const std::string key = std::string(kTenant) + "." + dataset;
        const auto parts = wh->ListPartitions(key);
        if (!parts.ok()) continue;
        for (const sampwh::PartitionInfo& info : parts.value()) {
          const auto sample = wh->GetSample(key, info.id);
          if (sample.ok()) bytes += sample.value().footprint_bytes();
          ++partitions;
        }
      }
      const auto stats = coord_->client(i)->GetTenantStats(kTenant);
      if (!stats.ok() || stats.value().usage.bytes != bytes ||
          stats.value().usage.partitions != partitions) {
        complain(std::string("tenant usage differs from stored footprint on "
                             "node ") + std::to_string(i) + " " + when);
      }
    }
  };
  check_usage("before the stop");

  const auto feed_before = coord_->client(0)->PartitionDigests(kTenant, kFeed);
  if (!feed_before.ok() || feed_before.value().size() != feed_closed) {
    complain("node 0 does not list every acknowledged streamed partition");
  }
  std::vector<PartitionId> newest(
      facts_ids.end() - static_cast<std::ptrdiff_t>(std::min<size_t>(4, facts_ids.size())),
      facts_ids.end());
  const auto answer_before = coord_->Query(kTenant, kFacts, newest);

  coord_.reset();
  for (auto& server : servers_) server->Stop();
  servers_.clear();
  const auto start = Clock::now();
  std::vector<sampwh::ShardNodeAddress> addresses;
  for (const sampwh::ServerOptions& options : node_options_) {
    auto server = sampwh::WarehouseServer::Start(options);
    if (!server.ok()) {
      Fail("restart", server.status());
      return false;
    }
    addresses.push_back({server.value()->host(), server.value()->port()});
    servers_.push_back(std::move(server).value());
  }
  *restart_ms = MillisBetween(start, Clock::now());
  auto coord = sampwh::ShardCoordinator::Connect(addresses, CoordOptions(config_));
  if (!coord.ok()) {
    Fail("reconnect", coord.status());
    return false;
  }
  coord_ = std::move(coord).value();

  // Every acknowledged roll-in is on every owner with the digest of the
  // bytes that were sent.
  std::vector<std::map<PartitionId, uint64_t>> listed(servers_.size());
  for (size_t i = 0; i < servers_.size(); ++i) {
    const auto digests = coord_->client(i)->PartitionDigests(kTenant, kFacts);
    if (!digests.ok()) {
      complain("cannot list facts digests on node " + std::to_string(i));
      continue;
    }
    for (const sampwh::PartitionDigest& d : digests.value()) {
      listed[i][d.id] = d.digest;
    }
  }
  for (size_t k = 0; k < facts_ids.size(); ++k) {
    const uint64_t p = facts_p[k];
    const uint64_t want = Digest(SerializeSample(
        SampleRaw(config_, args_.seed, p, RawPartition(config_, args_.seed, p))));
    for (const size_t owner :
         coord_->OwnersOf(coord_->ShardOf(kTenant, kFacts, facts_ids[k]))) {
      const auto it = listed[owner].find(facts_ids[k]);
      if (it == listed[owner].end() || it->second != want) {
        complain("roll-in " + std::to_string(facts_ids[k]) +
                 " missing or changed on node " + std::to_string(owner));
      }
    }
  }
  // Every streamed partition whose close was acknowledged survived.
  const auto feed_after = coord_->client(0)->PartitionDigests(kTenant, kFeed);
  if (!feed_before.ok() || !feed_after.ok() ||
      feed_after.value().size() != feed_before.value().size()) {
    complain("streamed partitions lost across the restart");
  } else {
    for (size_t i = 0; i < feed_after.value().size(); ++i) {
      if (feed_after.value()[i].id != feed_before.value()[i].id ||
          feed_after.value()[i].digest != feed_before.value()[i].digest) {
        complain("streamed partition changed across the restart");
      }
    }
  }
  check_usage("after the restart");
  const auto answer_after = coord_->Query(kTenant, kFacts, newest);
  if (!answer_before.ok() || !answer_after.ok() ||
      SerializeSample(answer_before.value()) !=
          SerializeSample(answer_after.value())) {
    complain("a query over the newest partitions changed across the restart");
  }
  return ok;
}

}  // namespace perfbench
