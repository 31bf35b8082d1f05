#include "src/core/hybrid_reservoir.h"

#include <utility>

#include "src/core/purge.h"
#include "src/core/sampler_state.h"
#include "src/util/logging.h"

namespace sampwh {

HybridReservoirSampler::HybridReservoirSampler(const Options& options,
                                               Pcg64 rng)
    : options_(options),
      n_F_(MaxSampleSizeForFootprint(options.footprint_bound_bytes)),
      rng_(std::move(rng)) {
  SAMPWH_CHECK(n_F_ >= 1);
}

uint64_t HybridReservoirSampler::sample_size() const {
  if (phase_ == SamplePhase::kExhaustive) return phase1_.total_count();
  return expanded_ ? bag_.size() : hist_.total_count();
}

uint64_t HybridReservoirSampler::footprint_bytes() const {
  if (phase_ == SamplePhase::kExhaustive) return phase1_.footprint_bytes();
  return expanded_ ? bag_.size() * kSingletonFootprintBytes
                   : hist_.footprint_bytes();
}

void HybridReservoirSampler::Add(Value v) {
  ++elements_seen_;
  if (phase_ == SamplePhase::kExhaustive) {
    // Fig. 7 lines 3-5, with the check moved BEFORE the insertion so the
    // footprint bound holds at every instant even when the insertion would
    // jump past F (duplicate-heavy streams grow the footprint in +4/+8
    // steps and can straddle F without ever equaling it). If this value
    // still fits, stay exhaustive; otherwise switch to reservoir mode over
    // the elements_seen_ - 1 elements ingested so far — the footprint
    // argument guarantees that count is >= n_F — and give the current
    // element the standard reservoir treatment below. The purge of the
    // histogram down to n_F values happens lazily at the first reservoir
    // insertion (Fig. 7 lines 9-11).
    if (phase1_.InsertIfFits(v, options_.footprint_bound_bytes)) return;
    hist_ = phase1_.Build();
    phase1_.Clear();
    phase_ = SamplePhase::kReservoir;
    reservoir_capacity_ = n_F_;
    reservoir_skip_.emplace(n_F_);
    next_reservoir_index_ =
        reservoir_skip_->NextInsertionIndex(rng_, elements_seen_ - 1);
  }
  if (elements_seen_ == next_reservoir_index_) {
    ExpandIfNeeded();
    const size_t victim = static_cast<size_t>(rng_.UniformInt(bag_.size()));
    bag_[victim] = v;
    next_reservoir_index_ =
        reservoir_skip_->NextInsertionIndex(rng_, elements_seen_);
  }
}

void HybridReservoirSampler::AddBatch(std::span<const Value> values) {
  size_t i = 0;
  const size_t n = values.size();
  // Phase 1: per-element footprint accounting; the scalar path also gives
  // the transition element its reservoir treatment when the bound trips.
  while (i < n && phase_ == SamplePhase::kExhaustive) {
    Add(values[i]);
    ++i;
  }
  // Phase 2: jump straight to each Vitter insertion index (Fig. 7 lines
  // 7-13, batched).
  while (i < n) {
    const uint64_t remaining = n - i;
    if (next_reservoir_index_ > elements_seen_ + remaining) {
      elements_seen_ += remaining;
      return;
    }
    i += next_reservoir_index_ - elements_seen_ - 1;
    elements_seen_ = next_reservoir_index_;
    ExpandIfNeeded();
    const size_t victim = static_cast<size_t>(rng_.UniformInt(bag_.size()));
    bag_[victim] = values[i];
    ++i;
    next_reservoir_index_ =
        reservoir_skip_->NextInsertionIndex(rng_, elements_seen_);
  }
}

void HybridReservoirSampler::ExpandIfNeeded() {
  if (expanded_) return;
  PurgeReservoir(&hist_, reservoir_capacity_, rng_);
  bag_ = hist_.ToBag();
  hist_.Clear();
  expanded_ = true;
}

void HybridReservoirSampler::SaveState(BinaryWriter* writer) const {
  writer->PutVarint64(options_.footprint_bound_bytes);
  SaveRngState(rng_, writer);
  writer->PutVarint64(static_cast<uint64_t>(phase_));
  writer->PutVarint64(elements_seen_);
  writer->PutVarint64(reservoir_capacity_);
  if (phase_ == SamplePhase::kExhaustive) {
    phase1_.Build().SerializeTo(writer);
  } else {
    hist_.SerializeTo(writer);
  }
  writer->PutVarint64(expanded_ ? 1 : 0);
  SaveValueBag(bag_, writer);
  SaveVitterState(reservoir_skip_, writer);
  writer->PutVarint64(next_reservoir_index_);
}

Result<HybridReservoirSampler> HybridReservoirSampler::LoadState(
    BinaryReader* reader) {
  Options options;
  SAMPWH_RETURN_IF_ERROR(
      reader->GetVarint64(&options.footprint_bound_bytes));
  if (MaxSampleSizeForFootprint(options.footprint_bound_bytes) < 1) {
    return Status::Corruption("HR state: footprint bound below one value");
  }
  Pcg64 rng(0);
  SAMPWH_RETURN_IF_ERROR(LoadRngState(reader, &rng));
  HybridReservoirSampler s(options, std::move(rng));
  uint64_t phase_raw;
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&phase_raw));
  if (phase_raw != static_cast<uint64_t>(SamplePhase::kExhaustive) &&
      phase_raw != static_cast<uint64_t>(SamplePhase::kReservoir)) {
    return Status::Corruption("HR state: bad phase");
  }
  s.phase_ = static_cast<SamplePhase>(phase_raw);
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&s.elements_seen_));
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&s.reservoir_capacity_));
  SAMPWH_ASSIGN_OR_RETURN(s.hist_, CompactHistogram::DeserializeFrom(reader));
  if (s.phase_ == SamplePhase::kExhaustive) {
    s.phase1_ = HistogramBuilder(s.hist_);
    s.hist_.Clear();
  }
  uint64_t expanded_raw;
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&expanded_raw));
  if (expanded_raw > 1) {
    return Status::Corruption("HR state: bad expanded flag");
  }
  s.expanded_ = expanded_raw != 0;
  if (s.expanded_ && s.phase_ == SamplePhase::kExhaustive) {
    return Status::Corruption("HR state: expanded exhaustive phase");
  }
  SAMPWH_RETURN_IF_ERROR(LoadValueBag(reader, &s.bag_));
  SAMPWH_RETURN_IF_ERROR(LoadVitterState(reader, &s.reservoir_skip_));
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&s.next_reservoir_index_));
  if (s.phase_ == SamplePhase::kReservoir &&
      (!s.reservoir_skip_.has_value() || s.reservoir_capacity_ == 0)) {
    return Status::Corruption("HR state: reservoir phase without skip");
  }
  return s;
}

PartitionSample HybridReservoirSampler::Finalize() {
  const uint64_t parent = elements_seen_;
  const uint64_t bound = options_.footprint_bound_bytes;
  if (phase_ == SamplePhase::kExhaustive) {
    CompactHistogram hist = phase1_.Build();
    phase1_.Clear();
    return PartitionSample::MakeExhaustive(std::move(hist), parent, bound);
  }
  CompactHistogram hist =
      expanded_ ? CompactHistogram::FromBag(std::move(bag_)) : std::move(hist_);
  bag_.clear();
  hist_.Clear();
  // In reservoir mode the histogram may still hold more than n_F values if
  // no insertion ever fired after the phase switch; cut it down so the
  // finalized sample is a true size-n_F simple random sample.
  PurgeReservoir(&hist, reservoir_capacity_, rng_);
  return PartitionSample::MakeReservoir(std::move(hist), parent, bound);
}

}  // namespace sampwh
