#include "src/core/bernoulli_sampler.h"

#include <algorithm>
#include <utility>

#include "src/core/sampler_state.h"
#include "src/util/logging.h"

namespace sampwh {

BernoulliSampler::BernoulliSampler(double q, Pcg64 rng, BernAcceptMode mode)
    : q_(q), skip_(q), rng_(std::move(rng)), mode_(mode) {
  // kAuto resolves before any RNG draw, so a sampler constructed with kAuto
  // is indistinguishable — including its RNG stream — from one constructed
  // with the concrete mode it resolves to, and SaveState() always records
  // the concrete mode.
  if (mode_ == BernAcceptMode::kAuto) {
    mode_ = q_ >= kAutoBitmaskRateThreshold ? BernAcceptMode::kBitmask
                                            : BernAcceptMode::kGeometricSkip;
  }
  // The bitmask mode draws once per element, so there is no pending skip to
  // pre-draw; keeping the constructor draw-free in that mode is what makes
  // its Add loop bit-identical to BernoulliAcceptMask lanes.
  if (mode_ == BernAcceptMode::kGeometricSkip) {
    gap_ = skip_.Sample(rng_);
  }
}

void BernoulliSampler::Add(Value v) {
  ++elements_seen_;
  if (mode_ == BernAcceptMode::kBitmask) {
    if (rng_.Bernoulli(q_)) hist_.Insert(v);
    return;
  }
  if (gap_ > 0) {
    --gap_;
    return;
  }
  hist_.Insert(v);
  gap_ = skip_.Sample(rng_);
}

void BernoulliSampler::AddBatch(std::span<const Value> values) {
  if (mode_ == BernAcceptMode::kBitmask) {
    Value accepted[64];
    for (size_t i = 0; i < values.size(); i += 64) {
      const size_t lanes = std::min<size_t>(64, values.size() - i);
      const uint64_t mask = BernoulliAcceptMask(rng_, q_, lanes);
      const size_t stored =
          CompressAccepted(values.subspan(i, lanes), mask, accepted);
      for (size_t j = 0; j < stored; ++j) hist_.Insert(accepted[j]);
    }
    elements_seen_ += values.size();
    return;
  }
  size_t i = 0;
  const size_t n = values.size();
  while (i < n) {
    const size_t remaining = n - i;
    if (gap_ >= remaining) {
      gap_ -= remaining;
      break;
    }
    i += gap_;
    hist_.Insert(values[i]);
    ++i;
    gap_ = skip_.Sample(rng_);
  }
  elements_seen_ += n;
}

void BernoulliSampler::SaveState(BinaryWriter* writer) const {
  writer->PutDouble(q_);
  SaveRngState(rng_, writer);
  writer->PutVarint64(elements_seen_);
  writer->PutVarint64(gap_);
  hist_.Build().SerializeTo(writer);
  writer->PutVarint64(static_cast<uint64_t>(mode_));
}

Result<BernoulliSampler> BernoulliSampler::LoadState(BinaryReader* reader) {
  double q;
  SAMPWH_RETURN_IF_ERROR(reader->GetDouble(&q));
  if (!(q > 0.0 && q <= 1.0)) {
    return Status::Corruption("SB state: bad sampling rate");
  }
  // The constructor draws the first geometric skip from the RNG it is
  // given; build with a throwaway engine, then restore every field from
  // the record (including the real engine state).
  BernoulliSampler s(q, Pcg64(0), BernAcceptMode::kGeometricSkip);
  SAMPWH_RETURN_IF_ERROR(LoadRngState(reader, &s.rng_));
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&s.elements_seen_));
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&s.gap_));
  SAMPWH_ASSIGN_OR_RETURN(const CompactHistogram hist,
                          CompactHistogram::DeserializeFrom(reader));
  s.hist_ = HistogramBuilder(hist);
  uint64_t mode;
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&mode));
  // Only concrete modes round-trip: the constructor resolves kAuto before
  // its first draw, so a serialized kAuto is corruption.
  if (mode > static_cast<uint64_t>(BernAcceptMode::kBitmask)) {
    return Status::Corruption("SB state: bad acceptance mode");
  }
  s.mode_ = static_cast<BernAcceptMode>(mode);
  return s;
}

PartitionSample BernoulliSampler::Finalize() {
  CompactHistogram hist = hist_.Build();
  hist_.Clear();
  return PartitionSample::MakeBernoulli(std::move(hist), elements_seen_, q_,
                                        /*footprint_bound_bytes=*/0);
}

}  // namespace sampwh
