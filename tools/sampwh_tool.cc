// sampwh_tool — command-line utility over warehouse artifacts.
//
//   sampwh_tool dump <sample-file>
//       Encoding (SWS2) and encoded size, metadata and compact histogram
//       head of one stored sample file (one frame around the payload).
//   sampwh_tool profile <sample-file>
//       Column profile (min/max/mean, distinct estimate, heavy hitters).
//   sampwh_tool estimate <sample-file> mean|sum|distinct
//       Point estimate with standard error.
//   sampwh_tool merge <out-file> <in-file> <in-file> [in-file...]
//       Uniform merge of samples of DISJOINT partitions (F = 64 KiB): the
//       merge tree over the inputs in argument order (MergeAll), written
//       as a stored sample file.
//   sampwh_tool inspect <store-dir> <manifest-file>
//       Restore a file-backed warehouse (the manifest snapshot plus the
//       catalog log beside it) and list its catalog, with the close key of
//       each streamed partition. A store an older build wrote is refused,
//       naming the first file of the old format.
//
// Every file these verbs read or write is in the one stored format of
// this build (util/serialization "Stored files"); files of older formats
// are refused, never rewritten.
//   sampwh_tool checkpoints <store-dir>
//       List datasets with pending ingest checkpoints: the resolved replay
//       watermark, open-partition progress, rolled-in count, the stream's
//       next close key and age, plus the chain structure behind it —
//       snapshot generation and verify status, every WAL delta record with
//       its kind / watermark / CRC status, and whether a torn tail was
//       skipped.
//   sampwh_tool serve <store-dir> [--port N] [--port-file PATH]
//                     [--tenant NAME[:bytes[:partitions[:datasets]]]] ...
//                     [--seed S] [--partition-elements N] [--memo-bytes N]
//       Run the warehouse server daemon over a file-backed store (restores
//       the store's MANIFEST when present). Binds an ephemeral port when
//       --port is omitted and, with --port-file, writes the bound port
//       there so orchestrators never race on a fixed port. Stops on
//       SIGINT/SIGTERM or the kShutdown wire verb.
//   sampwh_tool ping <host> <port>
//   sampwh_tool server-stats <host> <port>
//   sampwh_tool remote-query <host> <port> <tenant> <dataset> <out-file>
//       Client verbs against a running server; remote-query saves the
//       merged sample of every partition to <out-file> (dump/estimate
//       read it back).

#include <csignal>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/core/merge.h"
#include "src/core/sample.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/stats/estimators.h"
#include "src/stats/profile.h"
#include "src/util/serialization.h"
#include "src/warehouse/checkpoint.h"
#include "src/warehouse/warehouse.h"

namespace sampwh {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// The serialized sample in the file at `path`: store-written files, merge
// outputs and remote-query outputs alike are one stored frame.
Result<std::string> LoadPayload(const std::string& path) {
  std::string bytes;
  SAMPWH_RETURN_IF_ERROR(ReadFile(path, &bytes));
  std::string_view payload;
  SAMPWH_RETURN_IF_ERROR(DecodeStoredFile(bytes, path, &payload));
  return std::string(payload);
}

Result<PartitionSample> LoadSample(const std::string& path) {
  SAMPWH_ASSIGN_OR_RETURN(const std::string payload, LoadPayload(path));
  return PartitionSample::DeserializeWhole(payload);
}

Status SaveSample(const std::string& path, const PartitionSample& sample) {
  BinaryWriter writer;
  sample.SerializeTo(&writer);
  return WriteFileAtomic(path, EncodeFrame(writer.buffer()));
}

int CmdDump(const std::string& path) {
  const auto payload = LoadPayload(path);
  if (!payload.ok()) return Fail(payload.status());
  const auto sample = PartitionSample::DeserializeWhole(payload.value());
  if (!sample.ok()) return Fail(sample.status());
  const PartitionSample& s = sample.value();
  std::printf("file:            %s\n", path.c_str());
  std::printf("encoding:        SWS2, %zu B\n", payload.value().size());
  std::printf("phase:           %s\n",
              std::string(SamplePhaseToString(s.phase())).c_str());
  std::printf("parent size:     %llu\n",
              static_cast<unsigned long long>(s.parent_size()));
  std::printf("sample size:     %llu\n",
              static_cast<unsigned long long>(s.size()));
  std::printf("distinct values: %llu\n",
              static_cast<unsigned long long>(s.histogram().distinct_count()));
  std::printf("sampling rate:   %.6g\n", s.sampling_rate());
  std::printf("footprint:       %llu B (bound %llu B)\n",
              static_cast<unsigned long long>(s.footprint_bytes()),
              static_cast<unsigned long long>(s.footprint_bound_bytes()));
  std::printf("entries (first 20, by value):\n");
  int shown = 0;
  for (const auto& [v, n] : s.histogram().entries()) {
    if (shown++ >= 20) {
      std::printf("  ...\n");
      break;
    }
    std::printf("  %lld x%llu\n", static_cast<long long>(v),
                static_cast<unsigned long long>(n));
  }
  return 0;
}

int CmdProfile(const std::string& path) {
  auto sample = LoadSample(path);
  if (!sample.ok()) return Fail(sample.status());
  auto profile = ProfileColumn(sample.value());
  if (!profile.ok()) return Fail(profile.status());
  const ColumnProfile& p = profile.value();
  std::printf("parent size:        %llu\n",
              static_cast<unsigned long long>(p.parent_size));
  std::printf("sample size:        %llu (%s)\n",
              static_cast<unsigned long long>(p.sample_size),
              p.exact ? "exhaustive - exact statistics" : "sampled");
  std::printf("value range:        [%lld, %lld]\n",
              static_cast<long long>(p.min_value),
              static_cast<long long>(p.max_value));
  std::printf("mean:               %.6g\n", p.mean);
  std::printf("distinct in sample: %llu\n",
              static_cast<unsigned long long>(p.distinct_in_sample));
  std::printf("estimated distinct: %.0f\n", p.estimated_distinct);
  std::printf("key likelihood:     %.3f\n", p.key_likelihood);
  std::printf("singleton fraction: %.3f\n", p.singleton_fraction);
  std::printf("heavy hitters:\n");
  for (const HeavyHitter& h : p.heavy_hitters) {
    std::printf("  %lld: %llu in sample (~%.0f in parent)\n",
                static_cast<long long>(h.value),
                static_cast<unsigned long long>(h.sample_count),
                h.estimated_frequency);
  }
  return 0;
}

int CmdEstimate(const std::string& path, const std::string& what) {
  auto sample = LoadSample(path);
  if (!sample.ok()) return Fail(sample.status());
  Result<Estimate> estimate = Status::InvalidArgument(
      "unknown estimator '" + what + "' (want mean|sum|distinct)");
  if (what == "mean") estimate = EstimateMean(sample.value());
  if (what == "sum") estimate = EstimateSum(sample.value());
  if (what == "distinct") estimate = EstimateDistinctCount(sample.value());
  if (!estimate.ok()) return Fail(estimate.status());
  std::printf("%s = %.6g", what.c_str(), estimate.value().value);
  if (estimate.value().exact) {
    std::printf(" (exact)\n");
  } else {
    std::printf(" +/- %.6g SE\n", estimate.value().standard_error);
  }
  return 0;
}

int CmdMerge(const std::vector<std::string>& args) {
  const std::string& out = args[0];
  std::vector<PartitionSample> samples;
  for (size_t i = 1; i < args.size(); ++i) {
    auto sample = LoadSample(args[i]);
    if (!sample.ok()) return Fail(sample.status());
    samples.push_back(std::move(sample).value());
  }
  std::vector<const PartitionSample*> pointers;
  for (const PartitionSample& s : samples) pointers.push_back(&s);
  MergeOptions options;
  options.footprint_bound_bytes = 64 * 1024;
  auto merged = MergeAll(pointers, options, /*seed=*/0x700515EED);
  if (!merged.ok()) return Fail(merged.status());
  const Status save = SaveSample(out, merged.value());
  if (!save.ok()) return Fail(save);
  std::printf("merged %zu samples -> %s (parent %llu, sample %llu, %s)\n",
              samples.size(), out.c_str(),
              static_cast<unsigned long long>(merged.value().parent_size()),
              static_cast<unsigned long long>(merged.value().size()),
              std::string(SamplePhaseToString(merged.value().phase()))
                  .c_str());
  return 0;
}

int CmdInspect(const std::string& dir, const std::string& manifest) {
  auto store = FileSampleStore::Open(dir);
  if (!store.ok()) return Fail(store.status());
  WarehouseOptions options;
  auto warehouse =
      Warehouse::Restore(options, std::move(store).value(), manifest);
  if (!warehouse.ok()) return Fail(warehouse.status());
  for (const DatasetId& dataset : warehouse.value()->ListDatasets()) {
    const auto info = warehouse.value()->GetDatasetInfo(dataset);
    if (!info.ok()) return Fail(info.status());
    std::printf("dataset %s: %llu partitions, %llu parent elements, "
                "%llu sampled\n",
                dataset.c_str(),
                static_cast<unsigned long long>(info.value().num_partitions),
                static_cast<unsigned long long>(
                    info.value().total_parent_size),
                static_cast<unsigned long long>(
                    info.value().total_sample_size));
    const auto parts = warehouse.value()->ListPartitions(dataset);
    if (!parts.ok()) return Fail(parts.status());
    for (const PartitionInfo& p : parts.value()) {
      std::printf("  partition %llu: parent %llu, sample %llu, %s, "
                  "ticks [%llu, %llu]",
                  static_cast<unsigned long long>(p.id),
                  static_cast<unsigned long long>(p.parent_size),
                  static_cast<unsigned long long>(p.sample_size),
                  std::string(SamplePhaseToString(p.phase)).c_str(),
                  static_cast<unsigned long long>(p.min_timestamp),
                  static_cast<unsigned long long>(p.max_timestamp));
      if (p.close_key != 0) {
        std::printf(", close key %llu",
                    static_cast<unsigned long long>(p.close_key));
      }
      std::printf("\n");
    }
  }
  return 0;
}

int CmdCheckpoints(const std::string& dir) {
  auto store = FileSampleStore::Open(dir);
  if (!store.ok()) return Fail(store.status());
  auto datasets = store.value()->ListCheckpoints();
  if (!datasets.ok()) return Fail(datasets.status());
  if (datasets.value().empty()) {
    std::printf("no pending ingest checkpoints\n");
    return 0;
  }
  const uint64_t now_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  for (const DatasetId& dataset : datasets.value()) {
    auto chain = store.value()->GetCheckpointChain(dataset);
    if (!chain.ok()) return Fail(chain.status());
    const CheckpointChain& ch = chain.value();
    auto ckpt = ResolveCheckpointChain(ch);
    if (!ckpt.ok()) return Fail(ckpt.status());
    const IngestCheckpoint& c = ckpt.value();
    const double age_seconds =
        now_micros > c.created_unix_micros
            ? static_cast<double>(now_micros - c.created_unix_micros) / 1e6
            : 0.0;
    std::printf("dataset %s: watermark %llu, open partition %llu elements "
                "(%llu sampled), %zu rolled in, next close key %llu, "
                "age %.1fs\n",
                dataset.c_str(),
                static_cast<unsigned long long>(c.next_sequence),
                static_cast<unsigned long long>(c.progress.elements),
                static_cast<unsigned long long>(c.progress.sample_size),
                c.rolled_in.size(),
                static_cast<unsigned long long>(c.next_close_key),
                age_seconds);
    std::printf("  chain: generation %llu, snapshot %s, %zu delta record(s)%s\n",
                static_cast<unsigned long long>(ch.generation),
                VerifyCheckpointPayload(ch.snapshot).ok() ? "verified"
                                                          : "INVALID",
                ch.deltas.size(),
                ch.torn_tail ? ", torn WAL tail truncated" : "");
    for (size_t i = 0; i < ch.deltas.size(); ++i) {
      // Records in the chain already passed WAL frame + CRC checks; decode
      // each and re-run deep verification so damage is reported per record.
      auto record = CheckpointDeltaRecord::Deserialize(ch.deltas[i]);
      if (!record.ok()) {
        std::printf("    delta %zu: crc ok, decode FAILED: %s\n", i,
                    record.status().ToString().c_str());
        continue;
      }
      auto inner =
          IngestCheckpoint::Deserialize(record.value().checkpoint_payload);
      const uint64_t watermark = inner.ok() ? inner.value().next_sequence : 0;
      const Status deep = VerifyCheckpointDeltaPayload(ch.deltas[i]);
      std::printf("    delta %zu: %-13s watermark %llu, crc ok, %s\n", i,
                  "close-pending", static_cast<unsigned long long>(watermark),
                  deep.ok() ? "verified" : deep.ToString().c_str());
    }
  }
  return 0;
}

std::atomic<bool> g_signalled{false};

void OnSignal(int) { g_signalled.store(true, std::memory_order_release); }

/// "NAME[:bytes[:partitions[:datasets]]]" -> bootstrap tenant entry.
Status ParseTenantSpec(const std::string& spec, std::string* name,
                       TenantQuota* quota) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t colon = spec.find(':', start);
    parts.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (parts.empty() || parts.size() > 4) {
    return Status::InvalidArgument("bad tenant spec: " + spec);
  }
  *name = parts[0];
  uint64_t* fields[] = {&quota->max_bytes, &quota->max_partitions,
                        &quota->max_datasets};
  for (size_t i = 1; i < parts.size(); ++i) {
    char* end = nullptr;
    *fields[i - 1] = std::strtoull(parts[i].c_str(), &end, 10);
    if (end == nullptr || *end != '\0') {
      return Status::InvalidArgument("bad tenant quota in spec: " + spec);
    }
  }
  return ValidateTenantId(*name);
}

int CmdServe(const std::vector<std::string>& args) {
  ServerOptions options;
  options.store_directory = args[0];
  // The merge memo is a cache of merge-tree nodes (speed only, never
  // bytes); give it a sane default the flags can override.
  options.warehouse.merge_memo_bytes = 8ull << 20;
  std::string port_file;
  uint64_t drain_millis = 5'000;
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& flag = args[i];
    auto next = [&]() -> const std::string* {
      return i + 1 < args.size() ? &args[++i] : nullptr;
    };
    if (flag == "--port") {
      const std::string* v = next();
      if (v == nullptr) return Fail(Status::InvalidArgument("--port needs N"));
      options.port = static_cast<uint16_t>(std::strtoul(v->c_str(), nullptr,
                                                        10));
    } else if (flag == "--port-file") {
      const std::string* v = next();
      if (v == nullptr) {
        return Fail(Status::InvalidArgument("--port-file needs PATH"));
      }
      port_file = *v;
    } else if (flag == "--seed") {
      const std::string* v = next();
      if (v == nullptr) return Fail(Status::InvalidArgument("--seed needs S"));
      options.warehouse.seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (flag == "--partition-elements") {
      const std::string* v = next();
      if (v == nullptr) {
        return Fail(Status::InvalidArgument("--partition-elements needs N"));
      }
      options.ingest_partition_elements = std::strtoull(v->c_str(), nullptr,
                                                        10);
    } else if (flag == "--memo-bytes") {
      const std::string* v = next();
      if (v == nullptr) {
        return Fail(Status::InvalidArgument("--memo-bytes needs N"));
      }
      options.warehouse.merge_memo_bytes = std::strtoull(v->c_str(), nullptr,
                                                         10);
    } else if (flag == "--tenant") {
      const std::string* v = next();
      if (v == nullptr) {
        return Fail(Status::InvalidArgument("--tenant needs a spec"));
      }
      std::string name;
      TenantQuota quota;
      const Status parsed = ParseTenantSpec(*v, &name, &quota);
      if (!parsed.ok()) return Fail(parsed);
      options.bootstrap_tenants[name] = quota;
    } else if (flag == "--max-connections") {
      const std::string* v = next();
      if (v == nullptr) {
        return Fail(Status::InvalidArgument("--max-connections needs N"));
      }
      options.max_connections =
          static_cast<uint32_t>(std::strtoul(v->c_str(), nullptr, 10));
    } else if (flag == "--drain-millis") {
      const std::string* v = next();
      if (v == nullptr) {
        return Fail(Status::InvalidArgument("--drain-millis needs N"));
      }
      drain_millis = std::strtoull(v->c_str(), nullptr, 10);
    } else {
      return Fail(Status::InvalidArgument("unknown serve flag: " + flag));
    }
  }

  auto server = WarehouseServer::Start(std::move(options));
  if (!server.ok()) return Fail(server.status());

  if (!port_file.empty()) {
    const Status written = WriteFileAtomic(
        port_file, std::to_string(server.value()->port()) + "\n");
    if (!written.ok()) return Fail(written);
  }
  std::printf("serving on %s:%u\n", server.value()->host().c_str(),
              server.value()->port());
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (!g_signalled.load(std::memory_order_acquire) &&
         !server.value()->stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Graceful teardown on the first signal: refuse new connections with a
  // structured kUnavailable while in-flight work (streaming ingests above
  // all) completes, bounded by --drain-millis; a second signal, or the
  // bound, forces the stop. Stop() itself still checkpoints every ingest
  // session durably.
  if (g_signalled.load(std::memory_order_acquire) && drain_millis > 0 &&
      !server.value()->stop_requested()) {
    std::printf("draining (up to %llu ms)...\n",
                static_cast<unsigned long long>(drain_millis));
    std::fflush(stdout);
    g_signalled.store(false, std::memory_order_release);
    server.value()->BeginDrain();
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(drain_millis);
    while (std::chrono::steady_clock::now() < deadline &&
           !g_signalled.load(std::memory_order_acquire)) {
      if (server.value()->WaitDrained(/*deadline_millis=*/50)) break;
    }
  }
  server.value()->Stop();
  std::printf("stopped\n");
  return 0;
}

Result<std::unique_ptr<WarehouseClient>> ToolConnect(const std::string& host,
                                                     const std::string& port) {
  return WarehouseClient::Connect(
      host, static_cast<uint16_t>(std::strtoul(port.c_str(), nullptr, 10)));
}

int CmdPing(const std::string& host, const std::string& port) {
  auto client = ToolConnect(host, port);
  if (!client.ok()) return Fail(client.status());
  auto pong = client.value()->Ping();
  if (!pong.ok()) return Fail(pong.status());
  std::printf("%s\n", pong.value().banner.c_str());
  return 0;
}

int CmdServerStats(const std::string& host, const std::string& port) {
  auto client = ToolConnect(host, port);
  if (!client.ok()) return Fail(client.status());
  auto stats = client.value()->ServerStats();
  if (!stats.ok()) return Fail(stats.status());
  for (const auto& row : kServerCounters) {
    const std::string label = std::string(row.label) + ":";
    std::printf("%-22s%llu\n", label.c_str(),
                static_cast<unsigned long long>(stats.value().*row.field));
  }
  return 0;
}

int CmdRemoteQuery(const std::vector<std::string>& args) {
  auto client = ToolConnect(args[0], args[1]);
  if (!client.ok()) return Fail(client.status());
  auto sample = client.value()->Query(args[2], args[3]);
  if (!sample.ok()) return Fail(sample.status());
  const Status saved = SaveSample(args[4], sample.value());
  if (!saved.ok()) return Fail(saved);
  std::printf("query %s/%s -> %s (parent %llu, sample %llu, %s)\n",
              args[2].c_str(), args[3].c_str(), args[4].c_str(),
              static_cast<unsigned long long>(sample.value().parent_size()),
              static_cast<unsigned long long>(sample.value().size()),
              std::string(SamplePhaseToString(sample.value().phase()))
                  .c_str());
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  sampwh_tool dump <sample-file>\n"
      "  sampwh_tool profile <sample-file>\n"
      "  sampwh_tool estimate <sample-file> mean|sum|distinct\n"
      "  sampwh_tool merge <out-file> <in-file> <in-file> [in-file...]\n"
      "  sampwh_tool inspect <store-dir> <manifest-file>\n"
      "  sampwh_tool checkpoints <store-dir>\n"
      "  sampwh_tool serve <store-dir> [--port N] [--port-file PATH]\n"
      "              [--tenant NAME[:bytes[:partitions[:datasets]]]] ...\n"
      "              [--seed S] [--partition-elements N] [--memo-bytes N]\n"
      "              [--max-connections N] [--drain-millis N]\n"
      "  sampwh_tool ping <host> <port>\n"
      "  sampwh_tool server-stats <host> <port>\n"
      "  sampwh_tool remote-query <host> <port> <tenant> <dataset> "
      "<out-file>\n");
  return 2;
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "dump" && args.size() == 1) return CmdDump(args[0]);
  if (command == "profile" && args.size() == 1) return CmdProfile(args[0]);
  if (command == "estimate" && args.size() == 2) {
    return CmdEstimate(args[0], args[1]);
  }
  if (command == "merge" && args.size() >= 3) return CmdMerge(args);
  if (command == "inspect" && args.size() == 2) {
    return CmdInspect(args[0], args[1]);
  }
  if (command == "checkpoints" && args.size() == 1) {
    return CmdCheckpoints(args[0]);
  }
  if (command == "serve" && !args.empty()) return CmdServe(args);
  if (command == "ping" && args.size() == 2) return CmdPing(args[0], args[1]);
  if (command == "server-stats" && args.size() == 2) {
    return CmdServerStats(args[0], args[1]);
  }
  if (command == "remote-query" && args.size() == 5) {
    return CmdRemoteQuery(args);
  }
  return Usage();
}

}  // namespace
}  // namespace sampwh

int main(int argc, char** argv) { return sampwh::Run(argc, argv); }
