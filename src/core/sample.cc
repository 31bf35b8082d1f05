#include "src/core/sample.h"

#include <limits>
#include <utility>

namespace sampwh {

namespace {
// Format tag of the serialized encoding.
constexpr uint32_t kSampleFormatMagic = 0x53575332;  // "SWS2"
}  // namespace

std::string_view SamplePhaseToString(SamplePhase phase) {
  switch (phase) {
    case SamplePhase::kExhaustive:
      return "exhaustive";
    case SamplePhase::kBernoulli:
      return "bernoulli";
    case SamplePhase::kReservoir:
      return "reservoir";
  }
  return "unknown";
}

PartitionSample PartitionSample::MakeExhaustive(
    CompactHistogram hist, uint64_t parent_size,
    uint64_t footprint_bound_bytes) {
  PartitionSample s;
  s.phase_ = SamplePhase::kExhaustive;
  s.parent_size_ = parent_size;
  s.q_ = 1.0;
  s.footprint_bound_bytes_ = footprint_bound_bytes;
  s.hist_ = std::move(hist);
  return s;
}

PartitionSample PartitionSample::MakeBernoulli(
    CompactHistogram hist, uint64_t parent_size, double q,
    uint64_t footprint_bound_bytes) {
  PartitionSample s;
  s.phase_ = SamplePhase::kBernoulli;
  s.parent_size_ = parent_size;
  s.q_ = q;
  s.footprint_bound_bytes_ = footprint_bound_bytes;
  s.hist_ = std::move(hist);
  return s;
}

PartitionSample PartitionSample::MakeReservoir(
    CompactHistogram hist, uint64_t parent_size,
    uint64_t footprint_bound_bytes) {
  PartitionSample s;
  s.phase_ = SamplePhase::kReservoir;
  s.parent_size_ = parent_size;
  s.q_ = 1.0;
  s.footprint_bound_bytes_ = footprint_bound_bytes;
  s.hist_ = std::move(hist);
  return s;
}

Status PartitionSample::Validate() const {
  if (q_ < 0.0 || q_ > 1.0) {
    return Status::Corruption("sampling rate outside [0, 1]");
  }
  if (size() > parent_size_) {
    return Status::Corruption("sample larger than its parent partition");
  }
  if (phase_ == SamplePhase::kExhaustive && size() != parent_size_) {
    return Status::Corruption("exhaustive sample does not cover its parent");
  }
  // The a priori bound of §2 requirement 3 is on the FOOTPRINT, not the
  // value count: a merged Bernoulli sample over duplicate-heavy data may
  // legitimately hold more than n_F values inside F bytes of (value,
  // count) pairs.
  if (footprint_bound_bytes_ > 0 &&
      footprint_bytes() > footprint_bound_bytes_) {
    return Status::Corruption("sample footprint exceeds its bound");
  }
  return Status::OK();
}

void PartitionSample::SerializeTo(BinaryWriter* writer) const {
  writer->PutFixed32(kSampleFormatMagic);
  writer->PutVarint64(static_cast<uint64_t>(phase_));
  writer->PutVarint64(parent_size_);
  writer->PutDouble(q_);
  writer->PutVarint64(footprint_bound_bytes_);
  // The histogram in the packed layout: bit-packed value gaps, then a
  // bitmap of the counts above 1 and those counts.
  hist_.SerializeTo(writer);
}

Result<PartitionSample> PartitionSample::DeserializeFrom(
    BinaryReader* reader) {
  uint32_t magic;
  SAMPWH_RETURN_IF_ERROR(reader->GetFixed32(&magic));
  if (magic != kSampleFormatMagic) {
    return Status::Corruption("bad sample magic");
  }
  // The encoding is canonical throughout, its header varints included.
  uint64_t phase_raw;
  SAMPWH_RETURN_IF_ERROR(reader->GetMinimalVarint64(&phase_raw));
  if (phase_raw < 1 || phase_raw > 3) {
    return Status::Corruption("bad sample phase");
  }
  PartitionSample s;
  s.phase_ = static_cast<SamplePhase>(phase_raw);
  SAMPWH_RETURN_IF_ERROR(reader->GetMinimalVarint64(&s.parent_size_));
  SAMPWH_RETURN_IF_ERROR(reader->GetDouble(&s.q_));
  SAMPWH_RETURN_IF_ERROR(
      reader->GetMinimalVarint64(&s.footprint_bound_bytes_));
  // Every entry costs at least a singleton's footprint, so a bounded
  // sample holds at most n_F of them: larger counts are rejected before
  // the histogram allocates (Validate would reject them after).
  const uint64_t max_entries = s.footprint_bound_bytes_ > 0
                                   ? s.max_sample_size()
                                   : std::numeric_limits<uint64_t>::max();
  SAMPWH_ASSIGN_OR_RETURN(
      s.hist_, CompactHistogram::DeserializeFrom(reader, max_entries));
  SAMPWH_RETURN_IF_ERROR(s.Validate());
  return s;
}

Result<PartitionSample> PartitionSample::DeserializeWhole(
    std::string_view bytes) {
  BinaryReader reader(bytes);
  SAMPWH_ASSIGN_OR_RETURN(PartitionSample s, DeserializeFrom(&reader));
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after serialized sample");
  }
  return s;
}

}  // namespace sampwh
