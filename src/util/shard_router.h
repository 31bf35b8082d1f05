// Stable hash-sharding: assigns a (dataset, id) pair to one of N shards by
// hash, so the assignment is a pure function of the inputs — every caller
// routes identically and a restarted process re-derives the same ownership
// map without coordination. The coordinator places partition ids on nodes
// through it.

#ifndef SAMPWH_UTIL_SHARD_ROUTER_H_
#define SAMPWH_UTIL_SHARD_ROUTER_H_

#include <cstdint>
#include <string_view>

namespace sampwh {

class ShardRouter {
 public:
  /// `num_shards` >= 1.
  ShardRouter(std::string_view dataset, size_t num_shards)
      : dataset_hash_(HashBytes(dataset)),
        num_shards_(num_shards == 0 ? 1 : num_shards) {}

  size_t num_shards() const { return num_shards_; }

  /// The shard owning `id` — stable for the router's lifetime and across
  /// routers built with the same (dataset, num_shards).
  size_t ShardFor(uint64_t id) const {
    return static_cast<size_t>(Mix64(dataset_hash_ ^ Mix64(id)) %
                               num_shards_);
  }

  /// FNV-1a over the dataset name, finalized through Mix64.
  static uint64_t HashBytes(std::string_view bytes) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
      h ^= static_cast<uint8_t>(c);
      h *= 0x100000001b3ULL;
    }
    return Mix64(h);
  }

  /// SplitMix64 finalizer: a full-avalanche 64-bit mix.
  static uint64_t Mix64(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t dataset_hash_;
  size_t num_shards_;
};

}  // namespace sampwh

#endif  // SAMPWH_UTIL_SHARD_ROUTER_H_
