#include "src/util/sharded_cache.h"

namespace sampwh {

CacheStats& CacheStats::operator+=(const CacheStats& other) {
  SumCounters(this, other, kCacheCounters);
  return *this;
}

namespace cache_internal {

size_t NormalizeShardCount(size_t requested) {
  if (requested == 0) requested = 1;
  if (requested > 256) requested = 256;
  size_t shards = 1;
  while (shards < requested) shards <<= 1;
  return shards;
}

uint64_t MixHash(uint64_t h) {
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace cache_internal

}  // namespace sampwh
