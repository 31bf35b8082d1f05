// Shared encode/decode helpers for mid-stream sampler state: the RNG
// engine, Vitter skip generators, and expanded sample bags. Every sampler's
// SaveState()/LoadState() builds on these so the pieces common to HB, HR
// and SB have exactly one wire form.
//
// The expanded bag is serialized IN ELEMENT ORDER, not sorted: reservoir
// insertions overwrite uniformly random bag positions, so the bag's order
// is entangled with the RNG stream — a reordered bag would make the resumed
// sampler place future victims differently than the uninterrupted one.

#ifndef SAMPWH_CORE_SAMPLER_STATE_H_
#define SAMPWH_CORE_SAMPLER_STATE_H_

#include <optional>
#include <vector>

#include "src/core/compact_histogram.h"
#include "src/core/types.h"
#include "src/core/vitter.h"
#include "src/util/random.h"
#include "src/util/serialization.h"
#include "src/util/status.h"

namespace sampwh {

/// Version of the sampler-state records AnySampler::SaveState writes, and
/// the one LoadState reads: every embedded histogram is in the packed
/// layout, and the SB record ends with the Bern(q) acceptance mode.
inline constexpr uint64_t kSamplerStateVersion = 3;

/// The four state words of the PCG engine, fixed-width.
void SaveRngState(const Pcg64& rng, BinaryWriter* writer);
Status LoadRngState(BinaryReader* reader, Pcg64* rng);

/// Presence flag, then {k, mode, W} when engaged. Validates k >= 1 and the
/// mode range on load, so corrupt input fails cleanly instead of tripping
/// VitterSkip's constructor CHECK.
void SaveVitterState(const std::optional<VitterSkip>& skip,
                     BinaryWriter* writer);
Status LoadVitterState(BinaryReader* reader,
                       std::optional<VitterSkip>* skip);

/// Size-prefixed values, zig-zag varints, order preserved.
void SaveValueBag(const std::vector<Value>& bag, BinaryWriter* writer);
Status LoadValueBag(BinaryReader* reader, std::vector<Value>* bag);

}  // namespace sampwh

#endif  // SAMPWH_CORE_SAMPLER_STATE_H_
