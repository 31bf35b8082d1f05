#include "src/util/random.h"

namespace sampwh {

Pcg64::Pcg64(uint64_t seed, uint64_t stream) {
  SplitMix64 mix(seed);
  u128 init_state =
      (static_cast<u128>(mix.Next()) << 64) | mix.Next();
  SplitMix64 mix_stream(stream ^ 0xda3e39cb94b95bdbULL);
  u128 init_seq =
      (static_cast<u128>(mix_stream.Next()) << 64) | mix_stream.Next();
  inc_ = (init_seq << 1) | 1;  // must be odd
  state_ = 0;
  NextUint64();
  state_ += init_state;
  NextUint64();
}

Pcg64 Pcg64::Fork(uint64_t salt) {
  uint64_t child_seed = NextUint64();
  return Pcg64(child_seed, salt ^ 0x9e3779b97f4a7c15ULL);
}

Pcg64::State Pcg64::SaveState() const {
  State s;
  s.state_hi = static_cast<uint64_t>(state_ >> 64);
  s.state_lo = static_cast<uint64_t>(state_);
  s.inc_hi = static_cast<uint64_t>(inc_ >> 64);
  s.inc_lo = static_cast<uint64_t>(inc_);
  return s;
}

Pcg64 Pcg64::FromState(const State& state) {
  Pcg64 rng(0);
  rng.state_ =
      (static_cast<u128>(state.state_hi) << 64) | state.state_lo;
  rng.inc_ =
      ((static_cast<u128>(state.inc_hi) << 64) | state.inc_lo) | 1;
  return rng;
}

}  // namespace sampwh
