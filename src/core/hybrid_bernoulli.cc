#include "src/core/hybrid_bernoulli.h"

#include <utility>

#include "src/core/purge.h"
#include "src/core/qbound.h"
#include "src/core/sampler_state.h"
#include "src/util/logging.h"

namespace sampwh {

HybridBernoulliSampler::HybridBernoulliSampler(const Options& options,
                                               Pcg64 rng)
    : options_(options),
      n_F_(MaxSampleSizeForFootprint(options.footprint_bound_bytes)),
      rng_(std::move(rng)) {
  SAMPWH_CHECK(n_F_ >= 1);
  SAMPWH_CHECK(options_.exceedance_probability > 0.0 &&
               options_.exceedance_probability <= 0.5);
}

uint64_t HybridBernoulliSampler::sample_size() const {
  if (phase_ == SamplePhase::kExhaustive) return phase1_.total_count();
  return expanded_ ? bag_.size() : hist_.total_count();
}

uint64_t HybridBernoulliSampler::footprint_bytes() const {
  if (phase_ == SamplePhase::kExhaustive) return phase1_.footprint_bytes();
  return expanded_ ? bag_.size() * kSingletonFootprintBytes
                   : hist_.footprint_bytes();
}

void HybridBernoulliSampler::Add(Value v) {
  ++elements_seen_;
  if (phase_ == SamplePhase::kExhaustive) {
    // Fig. 2 lines 1-11, with the footprint check moved BEFORE the
    // insertion so the bound holds at every instant even when the insert
    // would jump past F (the +4/+8 footprint steps of duplicate-heavy
    // streams can straddle F without equaling it). If the value fits, stay
    // in phase 1; otherwise transition using the elements_seen_ - 1
    // elements ingested so far and give the current element the regular
    // phase-2/3 treatment by falling through.
    if (phase1_.InsertIfFits(v, options_.footprint_bound_bytes)) return;
    TransitionFromPhase1(elements_seen_ - 1);
  }
  if (phase_ == SamplePhase::kBernoulli) {
    if (bernoulli_gap_ > 0) {
      --bernoulli_gap_;
      return;
    }
    ExpandIfNeeded();
    bag_.push_back(v);
    if (bag_.size() >= n_F_) {
      EnterPhase3(elements_seen_);  // Fig. 2 lines 17-19
    } else {
      bernoulli_gap_ = bernoulli_skip_.Sample(rng_);
    }
    return;
  }
  // Phase 3: reservoir step (Fig. 2 lines 21-27).
  if (elements_seen_ == next_reservoir_index_) {
    ExpandIfNeeded();
    // removeRandomVictim + insert, fused as an overwrite.
    const size_t victim = static_cast<size_t>(rng_.UniformInt(bag_.size()));
    bag_[victim] = v;
    next_reservoir_index_ =
        reservoir_skip_->NextInsertionIndex(rng_, elements_seen_);
  }
}

void HybridBernoulliSampler::AddBatch(std::span<const Value> values) {
  size_t i = 0;
  const size_t n = values.size();
  // Phase 1 ingests every element into the histogram with a footprint
  // check each time; delegate to the scalar path until it transitions
  // (which also gives the transition element its phase-2/3 treatment).
  while (i < n && phase_ == SamplePhase::kExhaustive) {
    Add(values[i]);
    ++i;
  }
  // Phase 2: geometric-skip jumps (Fig. 2 lines 13-19, batched).
  while (i < n && phase_ == SamplePhase::kBernoulli) {
    const size_t remaining = n - i;
    if (bernoulli_gap_ >= remaining) {
      bernoulli_gap_ -= remaining;
      elements_seen_ += remaining;
      return;
    }
    i += bernoulli_gap_;
    elements_seen_ += bernoulli_gap_ + 1;
    ExpandIfNeeded();
    bag_.push_back(values[i]);
    ++i;
    if (bag_.size() >= n_F_) {
      EnterPhase3(elements_seen_);
    } else {
      bernoulli_gap_ = bernoulli_skip_.Sample(rng_);
    }
  }
  // Phase 3: Vitter-skip jumps (Fig. 2 lines 21-27, batched).
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

void HybridBernoulliSampler::TransitionFromPhase1(uint64_t processed) {
  const uint64_t n = options_.expected_population_size > 0
                         ? options_.expected_population_size
                         : elements_seen_;
  q_ = options_.use_exact_rate
           ? ExactBernoulliRate(n, options_.exceedance_probability, n_F_)
           : ApproxBernoulliRate(n, options_.exceedance_probability, n_F_);
  // Precompute the Bern(q) subsample S' of the exhaustive histogram
  // (Fig. 2 line 4).
  hist_ = phase1_.Build();
  phase1_.Clear();
  PurgeBernoulli(&hist_, q_, rng_);
  expanded_ = false;
  if (hist_.total_count() < n_F_) {
    phase_ = SamplePhase::kBernoulli;  // Fig. 2 line 6
    bernoulli_skip_ = GeometricSkip(q_);
    bernoulli_gap_ = bernoulli_skip_.Sample(rng_);
  } else {
    // Subsample is too large (Fig. 2 lines 8-10): reservoir-subsample it
    // and switch directly to reservoir mode.
    PurgeReservoir(&hist_, n_F_, rng_);
    EnterPhase3(processed);
  }
}

void HybridBernoulliSampler::EnterPhase3(uint64_t processed) {
  phase_ = SamplePhase::kReservoir;
  const uint64_t k = sample_size();
  SAMPWH_CHECK(k >= 1);
  reservoir_skip_.emplace(k);
  next_reservoir_index_ =
      reservoir_skip_->NextInsertionIndex(rng_, processed);
}

void HybridBernoulliSampler::ExpandIfNeeded() {
  if (expanded_) return;
  bag_ = hist_.ToBag();
  bag_.reserve(n_F_);
  hist_.Clear();
  expanded_ = true;
}

void HybridBernoulliSampler::SaveState(BinaryWriter* writer) const {
  writer->PutVarint64(options_.footprint_bound_bytes);
  writer->PutVarint64(options_.expected_population_size);
  writer->PutDouble(options_.exceedance_probability);
  writer->PutVarint64(options_.use_exact_rate ? 1 : 0);
  SaveRngState(rng_, writer);
  writer->PutVarint64(static_cast<uint64_t>(phase_));
  writer->PutVarint64(elements_seen_);
  writer->PutDouble(q_);
  if (phase_ == SamplePhase::kExhaustive) {
    phase1_.Build().SerializeTo(writer);
  } else {
    hist_.SerializeTo(writer);
  }
  writer->PutVarint64(expanded_ ? 1 : 0);
  SaveValueBag(bag_, writer);
  writer->PutVarint64(bernoulli_gap_);
  SaveVitterState(reservoir_skip_, writer);
  writer->PutVarint64(next_reservoir_index_);
}

Result<HybridBernoulliSampler> HybridBernoulliSampler::LoadState(
    BinaryReader* reader) {
  Options options;
  uint64_t use_exact;
  SAMPWH_RETURN_IF_ERROR(
      reader->GetVarint64(&options.footprint_bound_bytes));
  SAMPWH_RETURN_IF_ERROR(
      reader->GetVarint64(&options.expected_population_size));
  SAMPWH_RETURN_IF_ERROR(reader->GetDouble(&options.exceedance_probability));
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&use_exact));
  options.use_exact_rate = use_exact != 0;
  // Re-validate the constructor preconditions so corrupt state fails with
  // Corruption instead of tripping a CHECK.
  if (MaxSampleSizeForFootprint(options.footprint_bound_bytes) < 1) {
    return Status::Corruption("HB state: footprint bound below one value");
  }
  if (!(options.exceedance_probability > 0.0 &&
        options.exceedance_probability <= 0.5)) {
    return Status::Corruption("HB state: bad exceedance probability");
  }
  Pcg64 rng(0);
  SAMPWH_RETURN_IF_ERROR(LoadRngState(reader, &rng));
  HybridBernoulliSampler s(options, std::move(rng));
  uint64_t phase_raw;
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&phase_raw));
  if (phase_raw < 1 || phase_raw > 3) {
    return Status::Corruption("HB state: bad phase");
  }
  s.phase_ = static_cast<SamplePhase>(phase_raw);
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&s.elements_seen_));
  SAMPWH_RETURN_IF_ERROR(reader->GetDouble(&s.q_));
  if (!(s.q_ > 0.0 && s.q_ <= 1.0)) {
    return Status::Corruption("HB state: bad sampling rate");
  }
  s.bernoulli_skip_ = GeometricSkip(s.q_);
  SAMPWH_ASSIGN_OR_RETURN(s.hist_, CompactHistogram::DeserializeFrom(reader));
  if (s.phase_ == SamplePhase::kExhaustive) {
    s.phase1_ = HistogramBuilder(s.hist_);
    s.hist_.Clear();
  }
  uint64_t expanded_raw;
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&expanded_raw));
  if (expanded_raw > 1) {
    return Status::Corruption("HB state: bad expanded flag");
  }
  s.expanded_ = expanded_raw != 0;
  if (s.expanded_ && s.phase_ == SamplePhase::kExhaustive) {
    return Status::Corruption("HB state: expanded exhaustive phase");
  }
  SAMPWH_RETURN_IF_ERROR(LoadValueBag(reader, &s.bag_));
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&s.bernoulli_gap_));
  SAMPWH_RETURN_IF_ERROR(LoadVitterState(reader, &s.reservoir_skip_));
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&s.next_reservoir_index_));
  if (s.phase_ == SamplePhase::kReservoir && !s.reservoir_skip_.has_value()) {
    return Status::Corruption("HB state: reservoir phase without skip");
  }
  if (s.expanded_ && s.bag_.empty() && s.phase_ == SamplePhase::kReservoir) {
    return Status::Corruption("HB state: empty expanded reservoir");
  }
  return s;
}

PartitionSample HybridBernoulliSampler::Finalize() {
  CompactHistogram hist =
      phase_ == SamplePhase::kExhaustive ? phase1_.Build()
      : expanded_ ? CompactHistogram::FromBag(std::move(bag_))
                  : std::move(hist_);
  phase1_.Clear();
  bag_.clear();
  hist_.Clear();
  const uint64_t parent = elements_seen_;
  const uint64_t bound = options_.footprint_bound_bytes;
  switch (phase_) {
    case SamplePhase::kExhaustive:
      return PartitionSample::MakeExhaustive(std::move(hist), parent, bound);
    case SamplePhase::kBernoulli:
      return PartitionSample::MakeBernoulli(std::move(hist), parent, q_,
                                            bound);
    case SamplePhase::kReservoir:
    default:
      return PartitionSample::MakeReservoir(std::move(hist), parent, bound);
  }
}

}  // namespace sampwh
