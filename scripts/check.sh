#!/usr/bin/env bash
# Full local verification: an optimized build plus an ASan/UBSan build,
# each running the whole ctest suite, plus the concurrency smoke tiers.
# Usage:
#
#   scripts/check.sh            # optimized + ASan/UBSan configurations
#   scripts/check.sh --fast     # optimized configuration only
#   scripts/check.sh --tsan     # ThreadSanitizer build, concurrency and
#                               # stress tests only (slow; run separately)
#
# STRESS_SOAK=1 scripts/check.sh additionally runs the long stress soak
# (~30 s) in the optimized tree after the test suites. CHAOS_SOAK=1 runs
# the long network-chaos schedule (~20 s) instead of the smoke rounds the
# suite already covers. REPL_SOAK=1 runs the long replication-chaos
# schedule (24 seeded single-node kill/partition rounds at R=2, every
# strict answer required exact).
#
# Build trees go to build-check/<config> so the default build/ tree is
# left alone.

set -euo pipefail

cd "$(dirname "$0")/.."

mode="full"
case "${1:-}" in
  --fast) mode="fast" ;;
  --tsan) mode="tsan" ;;
  "") ;;
  *)
    echo "usage: scripts/check.sh [--fast|--tsan]" >&2
    exit 2
    ;;
esac

run_config() {
  local name="$1"
  shift
  local dir="build-check/${name}"
  echo "=== [${name}] configure ==="
  cmake -B "${dir}" -S . "$@" >/dev/null
  echo "=== [${name}] build ==="
  cmake --build "${dir}" -j "$(nproc)"
  echo "=== [${name}] test ==="
  ctest --test-dir "${dir}" --output-on-failure -j "$(nproc)"
}

if [[ "${mode}" == "tsan" ]]; then
  # ThreadSanitizer pass over the concurrency-sensitive surface: the
  # gtest binaries covering the store/cache/warehouse layers, the
  # warehouse-server battery (thread-per-connection daemon + robustness
  # corpus; needs sampwh_tool for the crash-resume case) and the stress
  # smoke. gtest binaries exit nonzero on failure, and TSan with
  # halt_on_error aborts on the first race, so plain invocation gates.
  dir="build-check/tsan"
  echo "=== [tsan] configure ==="
  cmake -B "${dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" >/dev/null
  echo "=== [tsan] build ==="
  cmake --build "${dir}" -j "$(nproc)" --target \
    sampwh_util_test sampwh_warehouse_test sampwh_integration_test \
    sampwh_server_test sampwh_tool stress_runner
  export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
  for bin in sampwh_util_test sampwh_warehouse_test sampwh_integration_test \
             sampwh_server_test; do
    echo "=== [tsan] ${bin} ==="
    "${dir}/tests/${bin}"
  done
  echo "=== [tsan] stress smoke ==="
  "${dir}/tests/stress_runner" --smoke
  echo "All TSan checks passed."
  exit 0
fi

run_config relwithdebinfo -DCMAKE_BUILD_TYPE=RelWithDebInfo

# Quick re-gate on the lock-free and bitmask primitives: the SPSC ring
# (the checkpoint writer's queue), the shard router (coordinator id
# routing) and the bitmask Bern(q) suites run standalone so a regression
# there fails with a targeted name even though the full suite above
# already covered them.
echo "=== [relwithdebinfo] ring, router and bitmask unit gate ==="
ctest --test-dir build-check/relwithdebinfo -R \
  "SpscRing|ShardRouter|BatchAccept" --output-on-failure

if [[ "${mode}" == "full" ]]; then
  run_config asan \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"

  # Codec re-gate under UBSan: the histogram delta codec must stay free of
  # signed overflow across the full int64 span, and decoding must stay
  # canonical and bounded. The suite above already ran these; this names
  # them on their own line.
  echo "=== [asan] histogram codec gate ==="
  ctest --test-dir build-check/asan -R \
    "CompactHistogram|HistogramBuilder|HistogramCodecDiff|HistogramModel|GoldenDigest|SampleFuzz|Crc32" \
    --output-on-failure

  # Purge-kernel re-gate under ASan/UBSan: the branch-free Fenwick descent
  # indexes a padded raw array, and the streamed purge must keep matching
  # the Fig. 4 linear-scan oracle draw for draw.
  echo "=== [asan] reservoir purge gate ==="
  ctest --test-dir build-check/asan -R \
    "^(FenwickTree|Purge|PurgeDiff|Merge|HybridReservoir)" \
    --output-on-failure

  # Merge-tree re-gate under ASan/UBSan: the warehouse merge tree with and
  # without a merge memo, pinned by the golden digests; the memo's stored
  # answer bytes and their budget (QueryCache), and the wire bytes of every
  # serving path, including answers held across a node's eviction
  # (QueryBytes).
  echo "=== [asan] merge-tree gate ==="
  ctest --test-dir build-check/asan \
    -R "^(GoldenDigest|QueryCache|QueryBytes|Warehouse)" --output-on-failure

  # Frame re-gate under ASan/UBSan: the one CRC frame codec that the wire
  # and the checkpoint WAL share, parsed at every cut and byte flip.
  echo "=== [asan] frame codec gate ==="
  ctest --test-dir build-check/asan -R \
    "^(Frame|CheckpointDelta|WireTest|WireFuzz|ProtocolRobustness)" \
    --output-on-failure

  # Store re-gate under ASan/UBSan: MemEnv, torn-prefix writes and WAL
  # truncation all do offset arithmetic on strings; the Env conformance
  # suite runs every Env (the unarmed FaultEnv among them), FaultEnv's own
  # suite pins the fault sites, and the store suites run the one store
  # over each Env.
  echo "=== [asan] store gate ==="
  ctest --test-dir build-check/asan -R \
    "^(Env|FaultEnv|FileIo|SampleStore|FileSampleStore|InMemorySampleStore|CheckpointStore|Recovery|Manifest)" \
    --output-on-failure

  # Ingest re-gate under ASan/UBSan: the stream ingestor and its one
  # background checkpoint writer (ring handoff, durability acks, WAL
  # poisoning and healing, resume).
  echo "=== [asan] stream ingestor and checkpoint writer gate ==="
  ctest --test-dir build-check/asan -R \
    "^(ResumableIngest|StreamIngestor|IngestCheckpoint)" \
    --output-on-failure
fi

# Query-path smoke bench (~2 s): exercises the sample cache, parallel
# prefetch and memoized merge tree end to end, asserts warm == cold bytes,
# and fails if the warm speedup regresses below its gate.
echo "=== [relwithdebinfo] query bench (smoke) ==="
(cd build-check/relwithdebinfo/bench && ./bench_query_throughput --smoke)

# Ingest smoke bench (~5 s): exercises every ingestion path. Gates
# checkpoint overhead: >25% at 64Ki cadence (async delta checkpointing
# should be near-free; a synchronous write sneaking back onto the hot
# path fails here) or a cadence writing no snapshot at all.
echo "=== [relwithdebinfo] ingest bench (smoke) ==="
(cd build-check/relwithdebinfo/bench && ./bench_ingest_throughput --smoke)

# Server smoke bench (~2 s): in-process shard deployments driven by
# closed-loop RPC clients. Fails if the distributed merge stops being
# bit-identical to the single-node reference or any server records a
# protocol error under load.
echo "=== [relwithdebinfo] server bench (smoke) ==="
(cd build-check/relwithdebinfo/bench && ./bench_server_loadgen --smoke)

# Network-chaos smoke (~5 s): the failure-domain battery standalone — a
# 4-node sharded deployment behind seeded chaos proxies (partitions,
# resets, black-holes, mid-frame truncations, delays), plus overload
# shedding, drain and the replication battery (write quorums, exact
# replica failover, scrub heal). The ctest suite above already ran these;
# this re-runs them with a targeted name so a serving-path robustness
# regression fails loudly on its own line.
echo "=== [relwithdebinfo] chaos smoke ==="
build-check/relwithdebinfo/tests/sampwh_server_test \
  --gtest_filter='ChaosTest.*:OverloadTest.*:ClientResilienceTest.*:CoordinatorFailureTest.*:ReplicationTest.*'

# Fault-injection stress smoke (~2 s): seeded concurrent
# ingest/query/roll-out rounds against an injected store, checking the
# no-stale-cache / footprint / warm-identity / crash-recovery invariants.
# The ctest suite already ran it once; this prints its round summary.
echo "=== [relwithdebinfo] stress smoke ==="
build-check/relwithdebinfo/tests/stress_runner --smoke

if [[ "${STRESS_SOAK:-0}" != "0" ]]; then
  echo "=== [relwithdebinfo] stress soak ==="
  build-check/relwithdebinfo/tests/stress_runner --soak
fi

if [[ "${CHAOS_SOAK:-0}" != "0" ]]; then
  echo "=== [relwithdebinfo] chaos soak ==="
  CHAOS_SOAK=1 build-check/relwithdebinfo/tests/sampwh_server_test \
    --gtest_filter='ChaosTest.*'
fi

if [[ "${REPL_SOAK:-0}" != "0" ]]; then
  echo "=== [relwithdebinfo] replication soak ==="
  REPL_SOAK=1 build-check/relwithdebinfo/tests/sampwh_server_test \
    --gtest_filter='ReplicationTest.*'
fi

echo "All checks passed."
