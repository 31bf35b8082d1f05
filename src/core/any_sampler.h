// A value-semantic wrapper selecting one of the library's partition
// samplers at runtime — the unit of configuration for the warehouse
// ingestion layer ("sample this dataset's partitions with HB at 64 KiB /
// p = 1e-3") and for the benchmark harnesses that sweep over algorithms.

#ifndef SAMPWH_CORE_ANY_SAMPLER_H_
#define SAMPWH_CORE_ANY_SAMPLER_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "src/core/bernoulli_sampler.h"
#include "src/core/hybrid_bernoulli.h"
#include "src/core/hybrid_reservoir.h"
#include "src/core/sample.h"
#include "src/util/random.h"
#include "src/util/status.h"

namespace sampwh {

enum class SamplerKind {
  kHybridBernoulli,     ///< Algorithm HB
  kHybridReservoir,     ///< Algorithm HR
  kStratifiedBernoulli, ///< Algorithm SB's per-partition worker (fixed rate)
};

std::string_view SamplerKindToString(SamplerKind kind);

struct SamplerConfig {
  SamplerKind kind = SamplerKind::kHybridReservoir;
  /// F for HB / HR.
  uint64_t footprint_bound_bytes = 64 * 1024;
  /// HB only: p.
  double exceedance_probability = 1e-3;
  /// HB only: expected partition size N (0: let the ingestion layer fill
  /// it in when the partition size is known, e.g. batch loads).
  uint64_t expected_partition_size = 0;
  /// HB only: solve the rate equation exactly.
  bool use_exact_rate = false;
  /// SB only: fixed Bernoulli rate.
  double bernoulli_rate = 0.01;
};

class AnySampler {
 public:
  AnySampler(const SamplerConfig& config, Pcg64 rng);

  void Add(Value v);

  /// Forwards the whole batch through one virtual dispatch to the selected
  /// sampler's skip-based batch path (identical results to an element-wise
  /// Add loop under the same seed).
  void AddBatch(std::span<const Value> values);

  uint64_t elements_seen() const;
  uint64_t sample_size() const;
  PartitionSample Finalize();

  /// Serializes the complete mid-stream state — kind tag, configuration,
  /// compact histogram / bag, skip counters and the RNG engine — as a
  /// self-describing sampler-state record (kSamplerStateRecordMagic).
  /// LoadState() reconstructs a sampler that continues bit-identically to
  /// one that was never serialized. The bytes ride inside a checkpoint,
  /// which is stored as one CRC frame; neither side applies its own
  /// checksum.
  std::string SaveState() const;
  static Result<AnySampler> LoadState(std::string_view bytes);

 private:
  using Impl = std::variant<HybridBernoulliSampler, HybridReservoirSampler,
                            BernoulliSampler>;

  explicit AnySampler(Impl impl) : impl_(std::move(impl)) {}

  Impl impl_;
};

}  // namespace sampwh

#endif  // SAMPWH_CORE_ANY_SAMPLER_H_
