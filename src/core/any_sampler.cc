#include "src/core/any_sampler.h"

#include <type_traits>
#include <utility>

#include "src/core/sampler_state.h"
#include "src/util/serialization.h"

namespace sampwh {

namespace {

// Kind tags in the serialized sampler-state record. Stable on-disk values —
// do not renumber.
constexpr uint64_t kStateTagHybridBernoulli = 1;
constexpr uint64_t kStateTagHybridReservoir = 2;
constexpr uint64_t kStateTagBernoulli = 3;

std::variant<HybridBernoulliSampler, HybridReservoirSampler, BernoulliSampler>
MakeImpl(const SamplerConfig& config, Pcg64 rng) {
  switch (config.kind) {
    case SamplerKind::kHybridBernoulli: {
      HybridBernoulliSampler::Options options;
      options.footprint_bound_bytes = config.footprint_bound_bytes;
      options.expected_population_size = config.expected_partition_size;
      options.exceedance_probability = config.exceedance_probability;
      options.use_exact_rate = config.use_exact_rate;
      return HybridBernoulliSampler(options, std::move(rng));
    }
    case SamplerKind::kStratifiedBernoulli:
      return BernoulliSampler(config.bernoulli_rate, std::move(rng));
    case SamplerKind::kHybridReservoir:
    default: {
      HybridReservoirSampler::Options options;
      options.footprint_bound_bytes = config.footprint_bound_bytes;
      return HybridReservoirSampler(options, std::move(rng));
    }
  }
}

}  // namespace

std::string_view SamplerKindToString(SamplerKind kind) {
  switch (kind) {
    case SamplerKind::kHybridBernoulli:
      return "HB";
    case SamplerKind::kHybridReservoir:
      return "HR";
    case SamplerKind::kStratifiedBernoulli:
      return "SB";
  }
  return "unknown";
}

AnySampler::AnySampler(const SamplerConfig& config, Pcg64 rng)
    : impl_(MakeImpl(config, std::move(rng))) {}

void AnySampler::Add(Value v) {
  std::visit([v](auto& sampler) { sampler.Add(v); }, impl_);
}

void AnySampler::AddBatch(std::span<const Value> values) {
  std::visit([values](auto& sampler) { sampler.AddBatch(values); }, impl_);
}

uint64_t AnySampler::elements_seen() const {
  return std::visit([](const auto& sampler) { return sampler.elements_seen(); },
                    impl_);
}

uint64_t AnySampler::sample_size() const {
  return std::visit([](const auto& sampler) { return sampler.sample_size(); },
                    impl_);
}

PartitionSample AnySampler::Finalize() {
  return std::visit([](auto& sampler) { return sampler.Finalize(); }, impl_);
}

std::string AnySampler::SaveState() const {
  BinaryWriter writer;
  writer.PutFixed32(kSamplerStateRecordMagic);
  writer.PutVarint64(kSamplerStateVersion);
  std::visit(
      [&writer](const auto& sampler) {
        using T = std::decay_t<decltype(sampler)>;
        if constexpr (std::is_same_v<T, HybridBernoulliSampler>) {
          writer.PutVarint64(kStateTagHybridBernoulli);
        } else if constexpr (std::is_same_v<T, HybridReservoirSampler>) {
          writer.PutVarint64(kStateTagHybridReservoir);
        } else {
          writer.PutVarint64(kStateTagBernoulli);
        }
        sampler.SaveState(&writer);
      },
      impl_);
  return std::move(writer).Release();
}

Result<AnySampler> AnySampler::LoadState(std::string_view bytes) {
  BinaryReader reader(bytes);
  uint32_t magic;
  SAMPWH_RETURN_IF_ERROR(reader.GetFixed32(&magic));
  if (magic != kSamplerStateRecordMagic) {
    return Status::Corruption("not a sampler-state record");
  }
  uint64_t version;
  SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&version));
  if (version != kSamplerStateVersion) {
    return Status::Corruption("unsupported sampler-state version");
  }
  uint64_t tag;
  SAMPWH_RETURN_IF_ERROR(reader.GetVarint64(&tag));
  Impl impl = BernoulliSampler(1.0, Pcg64(0));
  switch (tag) {
    case kStateTagHybridBernoulli: {
      SAMPWH_ASSIGN_OR_RETURN(auto sampler,
                              HybridBernoulliSampler::LoadState(&reader));
      impl = std::move(sampler);
      break;
    }
    case kStateTagHybridReservoir: {
      SAMPWH_ASSIGN_OR_RETURN(auto sampler,
                              HybridReservoirSampler::LoadState(&reader));
      impl = std::move(sampler);
      break;
    }
    case kStateTagBernoulli: {
      SAMPWH_ASSIGN_OR_RETURN(auto sampler,
                              BernoulliSampler::LoadState(&reader));
      impl = std::move(sampler);
      break;
    }
    default:
      return Status::Corruption("unknown sampler-state kind tag");
  }
  if (reader.remaining() != 0) {
    return Status::Corruption("trailing bytes after sampler state");
  }
  return AnySampler(std::move(impl));
}

}  // namespace sampwh
