// PartitionSample: a compact uniform random sample of one data-set
// partition, together with the metadata the merge procedures need — which
// terminal phase produced it (exhaustive / Bernoulli / reservoir, the h_i of
// Figs. 6 and 8), the parent partition size |D|, the Bernoulli rate q, and
// the footprint bound it was collected under. This is the unit that flows
// between samplers, the merge layer, and the warehouse.

#ifndef SAMPWH_CORE_SAMPLE_H_
#define SAMPWH_CORE_SAMPLE_H_

#include <cstdint>
#include <string_view>

#include "src/core/compact_histogram.h"
#include "src/core/types.h"
#include "src/util/serialization.h"
#include "src/util/status.h"

namespace sampwh {

/// Terminal phase of the producing algorithm (paper notation h_i).
enum class SamplePhase : uint8_t {
  /// Phase 1: the sample is the exact frequency histogram of the parent.
  kExhaustive = 1,
  /// Phase 2: the sample is (essentially) a Bern(q) sample of the parent.
  kBernoulli = 2,
  /// Phase 3: the sample is a simple random sample of fixed size.
  kReservoir = 3,
};

std::string_view SamplePhaseToString(SamplePhase phase);

class PartitionSample {
 public:
  PartitionSample() = default;

  /// An exhaustive sample: `hist` is the exact histogram of all
  /// `parent_size` values of the partition.
  static PartitionSample MakeExhaustive(CompactHistogram hist,
                                        uint64_t parent_size,
                                        uint64_t footprint_bound_bytes);

  /// A Bernoulli(q) sample of a partition of `parent_size` values.
  /// `footprint_bound_bytes` == 0 means unbounded (Algorithm SB).
  static PartitionSample MakeBernoulli(CompactHistogram hist,
                                       uint64_t parent_size, double q,
                                       uint64_t footprint_bound_bytes);

  /// A simple random (reservoir) sample of a partition of `parent_size`
  /// values.
  static PartitionSample MakeReservoir(CompactHistogram hist,
                                       uint64_t parent_size,
                                       uint64_t footprint_bound_bytes);

  SamplePhase phase() const { return phase_; }
  /// |D|: number of data elements in the parent partition.
  uint64_t parent_size() const { return parent_size_; }
  /// The Bernoulli rate q (meaningful when phase() == kBernoulli; 1.0 for
  /// exhaustive samples).
  double sampling_rate() const { return q_; }
  /// The footprint bound F under which the sample was collected; 0 means
  /// unbounded.
  uint64_t footprint_bound_bytes() const { return footprint_bound_bytes_; }
  /// n_F corresponding to the bound (0 when unbounded).
  uint64_t max_sample_size() const {
    return MaxSampleSizeForFootprint(footprint_bound_bytes_);
  }

  const CompactHistogram& histogram() const { return hist_; }
  CompactHistogram& mutable_histogram() { return hist_; }

  /// |S|: number of data-element values in the sample.
  uint64_t size() const { return hist_.total_count(); }
  uint64_t footprint_bytes() const { return hist_.footprint_bytes(); }

  /// Checks the structural invariants: exhaustive samples cover the parent
  /// exactly; sizes never exceed the parent or the footprint bound; rates
  /// are valid probabilities.
  Status Validate() const;

  /// The wire form of a sample (SWS2): magic, then varint phase, varint
  /// parent size, fixed64 q, varint footprint bound, then the histogram in
  /// the packed layout. The decode is canonical — every input it accepts
  /// re-encodes to exactly its own bytes — and rejects more entries than
  /// the footprint bound allows before allocating for them.
  void SerializeTo(BinaryWriter* writer) const;
  static Result<PartitionSample> DeserializeFrom(BinaryReader* reader);
  /// Decodes a blob that must hold exactly one serialized sample: bytes
  /// left over after it are Corruption, so two different blobs never
  /// decode to one sample.
  static Result<PartitionSample> DeserializeWhole(std::string_view bytes);

 private:
  SamplePhase phase_ = SamplePhase::kExhaustive;
  uint64_t parent_size_ = 0;
  double q_ = 1.0;
  uint64_t footprint_bound_bytes_ = 0;
  CompactHistogram hist_;
};

}  // namespace sampwh

#endif  // SAMPWH_CORE_SAMPLE_H_
