// The repository benchmark's binary. Usage:
//
//   perfbench --workload <scatter_union|hot_window|ingest_rollup>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--tiny] [--corrupt-reference]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (see perfbench/README.md). The last stdout line is the result object;
// the line before it carries the run's metadata. Exits 1 when the
// correctness gate fails, 2 on a usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "perfbench/src/bench.h"

namespace perfbench {
namespace {

int Usage(const char* message) {
  std::fprintf(stderr, "perfbench: %s\n", message);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--tiny") {
      args->tiny = true;
    } else if (flag == "--corrupt-reference") {
      args->corrupt_reference = true;
    } else if (!has_value) {
      return false;
    } else if (flag == "--workload") {
      args->workload = argv[++i];
    } else if (flag == "--seed") {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(argv[++i]);

    } else if (flag == "--trace") {
      args->trace = std::string(argv[++i]) == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = argv[++i];
    } else {
      return false;
    }
  }
  return args->seconds > 0 && args->seconds <= 600;
}

/// Emits the q-th percentile as "<prefix>_p<q>_ms" when at least ten
/// samples lie beyond it (a tiny run omits it).
void PutTail(MetricMap* m, const std::string& prefix,
             const std::vector<double>& v, int q) {
  if (!TailResolved(v.size(), q / 100.0)) return;
  (*m)[prefix + "_p" + std::to_string(q) + "_ms"] =
      Metric{Percentile(v, q / 100.0), "ms"};
}

double Sum(const std::vector<double>& v) {
  double total = 0;
  for (const double x : v) total += x;
  return total;
}

/// Streamed elements acked per second of IngestAppend time.
double IngestEps(const Session& s) {
  return s.appended_elements / ((Sum(s.append_ms) + Sum(s.close_ms)) / 1e3);
}

/// A typical cycle of the measured sequence. Each step of the cycle (its
/// position in the cycle and, for an append, whether its ack closed a
/// partition) counts at its median latency over all cycles, weighted by how
/// often it occurs per cycle. A few operations that a neighbour's load
/// preempts then leave the figure alone, while the sequence fixes each
/// step's share: memo misses after a slide, roll-ins and closes included.
struct TypicalCycle {
  double ms = 0;
  double query_ms = 0;
  double queries = 0;
};

TypicalCycle Typical(const Session& s) {
  const WorkloadConfig& c = s.config();
  std::map<std::pair<size_t, bool>, std::vector<double>> steps;
  std::map<std::pair<size_t, bool>, bool> is_query;
  for (size_t i = 0; i < c.ops.size(); ++i) {
    const Op& op = c.ops[i];
    const std::pair<size_t, bool> step{
        i % c.ops_per_cycle,
        op.kind == OpKind::kAppend && s.batch_closed[op.arg]};
    steps[step].push_back(s.op_ms[i]);
    is_query[step] = op.kind == OpKind::kQuery;
  }
  const double cycles =
      static_cast<double>(c.ops.size()) / static_cast<double>(c.ops_per_cycle);
  TypicalCycle t;
  for (const auto& [step, ms] : steps) {
    const double per_cycle = static_cast<double>(ms.size()) / cycles;
    t.ms += per_cycle * Median(ms);
    if (is_query[step]) {
      t.query_ms += per_cycle * Median(ms);
      t.queries += per_cycle;
    }
  }
  return t;
}

/// The append and close medians cover every setup's feed and the measured
/// sequence's appends.
MetricMap EndToEnd(const Session& s, const TypicalCycle& cycle,
                   const std::vector<double>& setups, double space_amp,
                   double peak_rss_mb) {
  MetricMap m;
  m["setup_s"] = Metric{Median(setups), "s"};
  m["cycle_ms"] = Metric{cycle.ms, "ms"};
  m["query_qps"] = Metric{cycle.queries / (cycle.query_ms / 1e3), "1/s"};
  m["query_p50_ms"] = Metric{Median(s.query_ms), "ms"};
  m["append_p50_ms"] = Metric{Median(s.append_ms), "ms"};
  m["close_p50_ms"] = Metric{Median(s.close_ms), "ms"};
  m["space_amp"] = Metric{space_amp, "ratio"};
  m["peak_rss_mb"] = Metric{peak_rss_mb, "MB"};
  return m;
}

void Fatal(const sampwh::Status& st, const char* what) {
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               st.ToString().c_str());
  std::exit(1);
}

double SpaceAmp(const Session& s, DirBytes* stored, uint64_t* live) {
  s.StoredBytes(stored, live);
  return *live == 0 ? 0
                    : static_cast<double>(stored->total()) /
                          static_cast<double>(*live);
}

struct RunOutcome {
  MetricMap metrics;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Phase wall times go to stderr, so a slow phase is visible in any run.
void LogPhase(const char* phase, Clock::time_point start) {
  std::fprintf(stderr, "perfbench: %s %.3f s\n", phase,
               MillisBetween(start, Clock::now()) / 1e3);
}

RunOutcome RunEndToEnd(const WorkloadConfig& config, const Args& args) {
  Tracer off(false);
  Session s(config, args, &off);
  // The sequence runs on the first deployment, in a fresh process, so its
  // peak RSS holds no memory that torn-down deployments left in the
  // allocator's per-thread arenas. The other setups follow the checks;
  // setup_s is the median of all of them.
  std::vector<double> setups;
  const auto set_up = [&](int n) {
    for (int i = 0; i < n; ++i) {
      auto seconds = s.Setup();
      if (!seconds.ok()) Fatal(seconds.status(), "setup");
      setups.push_back(seconds.value());
      std::fprintf(stderr, "perfbench: setup %.3f s\n", seconds.value());
    }
  };
  set_up(1);
  auto phase = Clock::now();
  s.RunOps();
  // Before the checks below, which build reference state of their own.
  const double peak_rss_mb = PeakRssMb();
  LogPhase("measured sequence", phase);
  phase = Clock::now();
  RunOutcome out;
  out.correct = s.CheckAnswers();
  LogPhase("answer check", phase);
  phase = Clock::now();
  DirBytes stored;
  uint64_t live = 0;
  const double space_amp = SpaceAmp(s, &stored, &live);
  if (config.file_store) {
    double restart_ms = 0;
    out.correct = s.RestartAndVerify(&restart_ms) && out.correct;
  }
  LogPhase("space and restart check", phase);
  // Read the sequence's log before the remaining setups clear it.
  const TypicalCycle cycle = Typical(s);
  set_up(config.setups - 1);
  out.metrics = EndToEnd(s, cycle, setups, space_amp, peak_rss_mb);
  out.attempted = s.attempted;
  out.failed = s.failed;
  return out;
}

RunOutcome RunTraced(const WorkloadConfig& config, const Args& args) {
  RunOutcome out;
  // The same sequence untraced, then traced, each on a fresh deployment:
  // their wall-time gap is the tracing overhead.
  double untraced = 0;
  {
    Tracer off(false);
    Session s(config, args, &off);
    if (auto st = s.Setup(); !st.ok()) Fatal(st.status(), "setup");
    untraced = s.RunOps();
    std::fprintf(stderr, "perfbench: untraced pass %.3f s, query p50 %.4f ms\n",
                 untraced, Median(s.query_ms));
    out.correct = s.CheckAnswers();
    out.attempted += s.attempted;
    out.failed += s.failed;
  }
  Tracer tracer(true);
  Session s(config, args, &tracer);
  tracer.Open("run");
  if (auto st = s.Setup(); !st.ok()) Fatal(st.status(), "setup");
  const double traced = s.RunOps();
  std::fprintf(stderr, "perfbench: traced pass %.3f s, query p50 %.4f ms\n",
               traced, Median(s.query_ms));
  const NodeCounters end = s.ReadCounters();
  const sampwh::CoordinatorStats coord = s.CoordStats();
  s.counters.errors = end.errors + coord.transport_errors;
  s.counters.coordinator_retries = coord.retries_attempted;
  s.counters.feed_store = s.FeedStoreStats();
  if (s.counters.errors != 0 || s.counters.coordinator_retries != 0) {
    std::fprintf(stderr,
                 "perfbench: %llu server or transport errors and %llu "
                 "client retries in the traced pass\n",
                 static_cast<unsigned long long>(s.counters.errors),
                 static_cast<unsigned long long>(
                     s.counters.coordinator_retries));
    out.correct = false;
  }
  uint64_t live = 0;
  (void)SpaceAmp(s, &s.counters.stored, &live);
  out.correct = s.CheckAnswers() && out.correct;
  double restart_ms = 0;
  if (config.file_store) {
    out.correct = s.RestartAndVerify(&restart_ms) && out.correct;
  }
  tracer.Close();
  out.attempted += s.attempted;
  out.failed += s.failed;
  const std::string traces = args.work_dir + "/traces";
  std::filesystem::create_directories(traces);
  if (auto st = tracer.WriteJsonLines(traces + "/" + config.name + "-seed" +
                                      std::to_string(args.seed) + ".jsonl");
      !st.ok()) {
    Fatal(st, "span file");
  }
  out.metrics = ReplayLayers(s, untraced, traced, restart_ms);
  // Tails, roll-ins that wait on a file-store flush, and the mean-based
  // ingest rate move with the machine's neighbours far more than the gated
  // medians do, so they are reported here, ungated, from the traced pass.
  PutTail(&out.metrics, "coordinator.query", s.query_ms, 99);
  out.metrics["coordinator.rollin_p50_ms"] = Metric{Median(s.rollin_ms), "ms"};
  out.metrics["server.ingest_eps"] = Metric{IngestEps(s), "1/s"};
  PutTail(&out.metrics, "coordinator.rollin", s.rollin_ms, 90);
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  const WorkloadConfig config = MakeConfig(args);
  if (config.ops.empty()) return Usage("unknown workload");

  const std::string dir = args.work_dir + "/" + config.name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string fs_type = FilesystemType(dir);

  const double probe_before = SpinProbeSeconds();
  const uint64_t steal_before = StealTicks();
  const RunOutcome out =
      args.trace ? RunTraced(config, args) : RunEndToEnd(config, args);
  const uint64_t steal_after = StealTicks();
  // A failed or refused operation fails the run: the catalog the latencies
  // come from would be smaller than the sequence intends.
  const bool correct = out.correct && out.failed == 0;
  if (out.failed != 0) {
    std::fprintf(stderr, "perfbench: %llu of %llu operations failed\n",
                 static_cast<unsigned long long>(out.failed),
                 static_cast<unsigned long long>(out.attempted));
  }
  const double probe_after = SpinProbeSeconds();
  std::filesystem::remove_all(dir);

  uint64_t queries = 0, rollins = 0, appends = 0;
  for (const Op& op : config.ops) {
    queries += op.kind == OpKind::kQuery;
    rollins += op.kind == OpKind::kRollIn;
    appends += op.kind == OpKind::kAppend;
  }
  const char* source = std::getenv("PERFBENCH_SOURCE_DIGEST");
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
      "\"trace\": %d, \"setups\": %d, \"population\": %llu, "
      "\"setup_batches\": %llu, \"measured_ops\": {\"query\": %llu, "
      "\"rollin\": %llu, \"append\": %llu}, \"nproc\": %u, "
      "\"store_fs\": \"%s\", \"spin_probe_s\": [%s, %s], "
      "\"steal_ticks\": %llu, \"source_digest\": \"%s\"}}\n",
      config.name.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, args.trace ? 1 : config.setups,
      static_cast<unsigned long long>(config.population),
      static_cast<unsigned long long>(config.setup_batches),
      static_cast<unsigned long long>(queries),
      static_cast<unsigned long long>(rollins),
      static_cast<unsigned long long>(appends),
      std::thread::hardware_concurrency(), fs_type.c_str(),
      Number(probe_before).c_str(), Number(probe_after).c_str(),
      static_cast<unsigned long long>(steal_after - steal_before),
      source == nullptr ? "unknown" : source);

  std::string metrics;
  for (const auto& [name, metric] : out.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + Number(metric.value) +
               ", \"unit\": \"" + metric.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
