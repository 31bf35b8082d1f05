// The traced run's replay legs. A seeded sample of the traced pass's
// operations is replayed into each lower layer in turn — a 1-node
// reference server through WarehouseClient, an embedded Warehouse, a
// SampleStore of the nodes' kind, the StreamIngestor, and the src/core
// sampler, merge and codec calls — each leg starting from the same state.
// A layer's self time is its span minus its child layer's span for the
// same operation.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>

#include "perfbench/src/bench.h"
#include "src/core/any_sampler.h"
#include "src/core/merge.h"
#include "src/server/wire.h"
#include "src/util/logging.h"
#include "src/util/random.h"
#include "src/util/serialization.h"
#include "src/warehouse/partitioner.h"
#include "src/warehouse/stream_ingestor.h"
#include "src/warehouse/warehouse.h"

namespace perfbench {
namespace {

using sampwh::Pcg64;

constexpr uint64_t kReplaySalt = 0x7e91a7;
/// Replayed queries: kBlocks runs of kBlockLength consecutive queries, so
/// a replay keeps the repeat pattern (and memo hits) of the original.
constexpr size_t kBlocks = 4;
constexpr size_t kBlockLength = 50;
constexpr int kPings = 200;
constexpr size_t kStoreOps = 256;
constexpr size_t kPairsPerQuery = 4;

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

std::vector<double> Diffs(const std::map<int64_t, double>& outer,
                          const std::map<int64_t, double>& inner) {
  std::vector<double> d;
  for (const auto& [op, ms] : outer) {
    const auto it = inner.find(op);
    if (it != inner.end()) d.push_back(ms - it->second);
  }
  return d;
}

/// Seeded choice of replayed query ops (indices into the op sequence).
std::vector<int64_t> SampleQueries(const Session& s) {
  std::vector<int64_t> queries;
  for (size_t i = 0; i < s.config().ops.size(); ++i) {
    if (s.config().ops[i].kind == OpKind::kQuery && !s.op_ids[i].empty()) {
      queries.push_back(static_cast<int64_t>(i));
    }
  }
  if (queries.size() <= kBlocks * kBlockLength) return queries;
  Pcg64 rng(s.args().seed ^ kReplaySalt, 0);
  std::set<int64_t> chosen;
  const size_t stride = queries.size() / kBlocks;
  for (size_t b = 0; b < kBlocks; ++b) {
    const size_t start =
        b * stride + rng.UniformInt(stride - std::min(stride, kBlockLength) + 1);
    for (size_t k = start; k < std::min(queries.size(), start + kBlockLength);
         ++k) {
      chosen.insert(queries[k]);
    }
  }
  return {chosen.begin(), chosen.end()};
}

std::unique_ptr<sampwh::SampleStore> MakeStore(const WorkloadConfig& c,
                                               const std::string& dir) {
  if (!c.file_store) return std::make_unique<sampwh::InMemorySampleStore>();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto store = sampwh::FileSampleStore::Open(dir);
  SAMPWH_CHECK(store.ok());
  return std::move(store).value();
}

void Check(const sampwh::Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: replay %s failed: %s\n", what,
                 st.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

MetricMap ReplayLayers(Session& s, double untraced_seconds,
                       double traced_seconds, double restart_ms) {
  const WorkloadConfig& c = s.config();
  const Args& args = s.args();
  Tracer tracer(true);
  const std::string root = args.work_dir + "/" + c.name + "/replay";
  const std::string facts_key = std::string(kTenant) + "." + kFacts;
  const std::string feed_key = std::string(kTenant) + "." + kFeed;
  const sampwh::ServerOptions node = NodeOptions(c, "");
  const std::vector<int64_t> sampled = SampleQueries(s);

  // Facts samples by id, regenerated from the seed.
  std::map<PartitionId, std::pair<uint64_t, PartitionSample>> facts;
  for (size_t k = 0; k < s.facts_ids.size(); ++k) {
    const uint64_t p = s.facts_p[k];
    facts[s.facts_ids[k]] = {
        p, SampleRaw(c, args.seed, p, RawPartition(c, args.seed, p))};
  }

  // Leg 1: a 1-node reference server, through WarehouseClient.
  std::map<int64_t, double> server_ms;
  std::map<int64_t, PartitionSample> answers;
  std::vector<double> ping_ms;
  {
    sampwh::ServerOptions options =
        NodeOptions(c, c.file_store ? root + "/server" : "");
    if (c.file_store) {
      std::filesystem::remove_all(options.store_directory);
      std::filesystem::create_directories(options.store_directory);
    }
    auto server = sampwh::WarehouseServer::Start(options);
    Check(server.status(), "server start");
    auto client = sampwh::WarehouseClient::Connect(server.value()->host(),
                                                   server.value()->port());
    Check(client.status(), "connect");
    sampwh::WarehouseClient& cl = *client.value();
    Check(cl.CreateDataset(kTenant, kFacts), "create dataset");
    for (const auto& [id, entry] : facts) {
      Check(cl.RollInAt(kTenant, kFacts, id, entry.second, entry.first,
                        entry.first)
                .status(),
            "reference roll-in");
    }
    tracer.Open("leg.server");
    for (const int64_t op : sampled) {
      const auto start = Clock::now();
      auto answer = cl.Query(kTenant, kFacts, s.op_ids[op]);
      const auto end = Clock::now();
      Check(answer.status(), "reference query");
      server_ms[op] = MillisBetween(start, end);
      answers[op] = std::move(answer).value();
      tracer.Record("server.query", start, end, op);
    }
    for (int i = 0; i < kPings; ++i) {
      const auto start = Clock::now();
      Check(cl.Ping().status(), "ping");
      const auto end = Clock::now();
      ping_ms.push_back(MillisBetween(start, end));
      tracer.Record("server.ping", start, end, -1);
    }
    tracer.Close();
    client.value().reset();
    server.value()->Stop();
  }

  // Leg 2: an embedded Warehouse with the nodes' options and store kind.
  std::map<int64_t, double> warehouse_ms;
  std::vector<double> wh_rollin_ms;
  uint64_t manifest_bytes = 0;
  double restore_ms = restart_ms;
  {
    sampwh::WarehouseOptions options = node.warehouse;
    const std::string dir = root + "/warehouse";
    auto store = MakeStore(c, dir);
    if (c.file_store) options.manifest_path = dir + "/MANIFEST";
    sampwh::Warehouse wh(options, std::move(store));
    Check(wh.CreateDataset(facts_key), "create dataset");
    tracer.Open("leg.warehouse");
    for (const auto& [id, entry] : facts) {
      const auto start = Clock::now();
      Check(wh.RollInAt(facts_key, id, entry.second, entry.first, entry.first)
                .status(),
            "embedded roll-in");
      const auto end = Clock::now();
      wh_rollin_ms.push_back(MillisBetween(start, end));
      tracer.Record("warehouse.rollin", start, end, -1);
      if (c.file_store) {
        manifest_bytes += std::filesystem::file_size(options.manifest_path);
      }
    }
    for (const int64_t op : sampled) {
      const auto start = Clock::now();
      Check(wh.MergedSample(facts_key, s.op_ids[op]).status(),
            "embedded query");
      const auto end = Clock::now();
      warehouse_ms[op] = MillisBetween(start, end);
      tracer.Record("warehouse.merged_sample", start, end, op);
    }
    tracer.Close();
    if (!c.file_store) {
      // In-memory nodes never restart; time restoring this warehouse's
      // catalog over a store holding the same samples instead.
      std::filesystem::create_directories(root);
      const std::string manifest = root + "/warehouse.MANIFEST";
      Check(wh.SaveManifest(manifest), "save manifest");
      auto copy = std::make_unique<sampwh::InMemorySampleStore>();
      for (const auto& [id, entry] : facts) {
        Check(copy->Put({facts_key, id}, entry.second), "store copy");
      }
      const auto start = Clock::now();
      Check(sampwh::Warehouse::Restore(options, std::move(copy), manifest)
                .status(),
            "restore");
      const auto end = Clock::now();
      restore_ms = MillisBetween(start, end);
      tracer.Record("warehouse.restore", start, end, -1);
    }
  }

  // Leg 3: a SampleStore of the nodes' kind.
  std::vector<double> put_ms, get_ms;
  {
    auto store = MakeStore(c, root + "/store");
    tracer.Open("leg.store");
    std::vector<PartitionId> ids;
    for (const auto& [id, entry] : facts) {
      if (ids.size() == kStoreOps) break;
      const auto start = Clock::now();
      Check(store->Put({facts_key, id}, entry.second), "store put");
      const auto end = Clock::now();
      put_ms.push_back(MillisBetween(start, end));
      tracer.Record("store.put", start, end, -1);
      ids.push_back(id);
    }
    for (const PartitionId id : ids) {
      const auto start = Clock::now();
      Check(store->Get({facts_key, id}).status(), "store get");
      const auto end = Clock::now();
      get_ms.push_back(MillisBetween(start, end));
      tracer.Record("store.get", start, end, -1);
    }
    tracer.Close();
  }

  // Leg 4: the embedded StreamIngestor on the same feed batches, configured
  // like a server session.
  std::vector<double> stream_append_ms, stream_close_ms, append_self_ms;
  {
    sampwh::WarehouseOptions options = node.warehouse;
    const std::string dir = root + "/stream";
    auto store = MakeStore(c, dir);
    if (c.file_store) options.manifest_path = dir + "/MANIFEST";
    sampwh::Warehouse wh(options, std::move(store));
    Check(wh.CreateDataset(feed_key), "create dataset");
    sampwh::StreamIngestor ingestor(
        &wh, feed_key,
        sampwh::MakeCountPartitioner(node.ingest_partition_elements));
    ingestor.EnableCheckpoints(node.ingest_checkpoints);
    Check(ingestor.Checkpoint(), "checkpoint");
    tracer.Open("leg.stream");
    for (uint64_t b = 0; b < s.batch_ms.size(); ++b) {
      const std::vector<Value> values = FeedBatch(c, args.seed, b);
      const size_t closed_before = ingestor.rolled_in().size();
      const auto start = Clock::now();
      Check(ingestor.AppendBatchAt(b * c.batch_elements, values, b),
            "stream append");
      const auto end = Clock::now();
      const double ms = MillisBetween(start, end);
      const bool closed = ingestor.rolled_in().size() > closed_before;
      (closed ? stream_close_ms : stream_append_ms).push_back(ms);
      if (!closed && !s.batch_closed[b]) {
        append_self_ms.push_back(s.batch_ms[b] - ms);
      }
      tracer.Record("stream.append", start, end, static_cast<int64_t>(b));
    }
    tracer.Close();
  }

  // Leg 5: src/core — sampler, merge and codec calls.
  double sample_ns = 0;
  uint64_t sampled_elements = 0;
  std::vector<double> merge_us, codec_us, answer_kib;
  {
    tracer.Open("leg.core");
    for (const auto& [id, entry] : facts) {
      const std::vector<Value> raw = RawPartition(c, args.seed, entry.first);
      sampwh::AnySampler sampler(node.warehouse.sampler, Pcg64(args.seed, id));
      const auto start = Clock::now();
      sampler.AddBatch(raw);
      (void)sampler.Finalize();
      const auto end = Clock::now();
      sample_ns += std::chrono::duration<double, std::nano>(end - start).count();
      sampled_elements += raw.size();
      tracer.Record("core.sample", start, end, -1);
    }
    for (const int64_t op : sampled) {
      std::vector<PartitionId> ids = s.op_ids[op];
      std::sort(ids.begin(), ids.end());
      for (size_t i = 0; i + 1 < ids.size() && i / 2 < kPairsPerQuery; i += 2) {
        Pcg64 rng(args.seed, static_cast<uint64_t>(op) * 8 + i);
        const auto start = Clock::now();
        Check(sampwh::MergeSamples(facts.at(ids[i]).second,
                                   facts.at(ids[i + 1]).second,
                                   node.warehouse.merge, rng)
                  .status(),
              "merge");
        const auto end = Clock::now();
        merge_us.push_back(MillisBetween(start, end) * 1e3);
        tracer.Record("core.merge", start, end, op);
      }
    }
    for (const auto& [op, answer] : answers) {
      const auto start = Clock::now();
      const std::string bytes = SerializeSample(answer);
      sampwh::BinaryReader reader(bytes);
      Check(PartitionSample::DeserializeFrom(&reader).status(), "decode");
      const std::string frame = sampwh::EncodeFrame(bytes);
      std::string_view payload;
      size_t frame_bytes = 0;
      if (sampwh::DecodeFrame(frame, sampwh::kWireDefaultMaxFrameBytes,
                              &payload, &frame_bytes) !=
          sampwh::FrameDecodeResult::kOk) {
        Check(sampwh::Status::Corruption("frame"), "frame decode");
      }
      const auto end = Clock::now();
      codec_us.push_back(MillisBetween(start, end) * 1e3);
      answer_kib.push_back(static_cast<double>(bytes.size()) / 1024.0);
      tracer.Record("core.codec", start, end, op);
    }
    tracer.Close();
  }

  std::filesystem::remove_all(root);
  const std::string traces = args.work_dir + "/traces";
  std::filesystem::create_directories(traces);
  Check(tracer.WriteJsonLines(traces + "/" + c.name + "-seed" +
                              std::to_string(args.seed) + "-replay.jsonl"),
        "span file");

  // Coordinator span minus the 1-node server span, and server span minus
  // the embedded warehouse span, for the same operations.
  std::map<int64_t, double> coordinator_ms;
  for (const int64_t op : sampled) coordinator_ms[op] = s.op_ms[op];

  const TraceCounters& t = s.counters;
  const uint64_t closed = std::max<uint64_t>(s.feed_closed, 1);
  MetricMap m;
  const auto put = [&m](const std::string& name, double value,
                        const char* unit) { m[name] = Metric{value, unit}; };
  put("coordinator.rpcs_per_query", Ratio(t.query_rpcs, t.queries), "count");
  put("coordinator.self_ms_p50", Median(Diffs(coordinator_ms, server_ms)), "ms");
  put("coordinator.rpcs_per_rollin", Ratio(t.rollin_rpcs, t.rollins), "count");
  put("coordinator.write_amp", Ratio(t.rollins + t.replica_writes, t.rollins),
      "ratio");
  put("coordinator.retries", static_cast<double>(t.coordinator_retries), "count");
  put("server.ping_ms_p50", Median(ping_ms), "ms");
  put("server.query_ms_p50", Median([&] {
        std::vector<double> v;
        for (const auto& [op, ms] : server_ms) v.push_back(ms);
        return v;
      }()),
      "ms");
  put("server.self_ms_p50", Median(Diffs(server_ms, warehouse_ms)), "ms");
  put("server.response_kb_p50", Median(answer_kib), "KiB");
  put("server.append_self_ms_p50", Median(append_self_ms), "ms");
  put("server.errors", static_cast<double>(t.errors), "count");
  put("warehouse.query_ms_p50", Median([&] {
        std::vector<double> v;
        for (const auto& [op, ms] : warehouse_ms) v.push_back(ms);
        return v;
      }()),
      "ms");
  put("warehouse.memo_hit_ratio", Ratio(t.memo.hits, t.memo.hits + t.memo.misses),
      "ratio");
  put("warehouse.memo_lookups", static_cast<double>(t.memo.hits + t.memo.misses),
      "count");
  put("warehouse.memo_evictions", static_cast<double>(t.memo.evictions), "count");
  put("warehouse.sample_cache_hit_ratio",
      Ratio(t.sample_cache.hits, t.sample_cache.hits + t.sample_cache.misses),
      "ratio");
  put("warehouse.sample_cache_lookups",
      static_cast<double>(t.sample_cache.hits + t.sample_cache.misses), "count");
  put("warehouse.sample_cache_evictions",
      static_cast<double>(t.sample_cache.evictions), "count");
  put("warehouse.rollin_ms_p50", Median(wh_rollin_ms), "ms");
  put("warehouse.manifest_bytes_per_rollin",
      Ratio(manifest_bytes, wh_rollin_ms.size()), "bytes");
  put("warehouse.restore_ms", restore_ms, "ms");
  put("store.put_ms_p50", Median(put_ms), "ms");
  put("store.get_ms_p50", Median(get_ms), "ms");
  put("store.checkpoints_per_partition",
      Ratio(t.feed_store.checkpoints_written, closed), "count");
  put("store.wal_records_per_partition",
      Ratio(t.feed_store.wal_records_appended, closed), "count");
  put("store.sample_bytes", static_cast<double>(t.stored.samples), "bytes");
  put("store.checkpoint_bytes", static_cast<double>(t.stored.checkpoints),
      "bytes");
  put("store.manifest_bytes", static_cast<double>(t.stored.manifest), "bytes");
  put("stream.append_ms_p50", Median(stream_append_ms), "ms");
  put("stream.close_ms_p50", Median(stream_close_ms), "ms");
  put("core.sample_ns_per_element",
      sampled_elements == 0 ? 0 : sample_ns / static_cast<double>(sampled_elements),
      "ns");
  put("core.merge_us_p50", Median(merge_us), "us");
  put("core.codec_us_p50", Median(codec_us), "us");
  put("trace.overhead_pct",
      untraced_seconds > 0 ? (traced_seconds / untraced_seconds - 1.0) * 100.0
                           : 0,
      "%");
  return m;
}

}  // namespace perfbench
