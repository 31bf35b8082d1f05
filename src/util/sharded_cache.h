// A generic sharded LRU cache: N independent shards, each with its own
// mutex, recency list and byte budget, so readers on different shards never
// contend. This is the building block behind the warehouse read path — the
// deserialized-sample cache and the memoized merge-tree node cache are both
// instances — but it knows nothing about samples: keys and values are
// template parameters and every entry carries an explicit byte charge.
//
// Concurrency model: all operations are safe to call from any thread.
// Values are handed out as shared_ptr<const V>, so a reader can keep using
// an entry after another thread evicts it. Eviction is per shard, strictly
// LRU, triggered when a shard exceeds its slice of the byte budget.

#ifndef SAMPWH_UTIL_SHARDED_CACHE_H_
#define SAMPWH_UTIL_SHARDED_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/util/counters.h"

namespace sampwh {

/// Counters of one cache (aggregated across shards by Stats()). hits /
/// misses / insertions / evictions / invalidations are cumulative since
/// construction; entries / bytes are the current residency.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  /// Entries removed to honor the byte budget (LRU pressure).
  uint64_t evictions = 0;
  /// Entries removed by Erase / EraseIf / Clear (explicit invalidation).
  uint64_t invalidations = 0;
  uint64_t entries = 0;
  uint64_t bytes = 0;

  CacheStats& operator+=(const CacheStats& other);
};

inline constexpr CounterField<CacheStats> kCacheCounters[] = {
    {"hits", &CacheStats::hits},
    {"misses", &CacheStats::misses},
    {"insertions", &CacheStats::insertions},
    {"evictions", &CacheStats::evictions},
    {"invalidations", &CacheStats::invalidations},
    {"entries", &CacheStats::entries},
    {"bytes", &CacheStats::bytes},
};

namespace cache_internal {

/// Rounds `requested` to a power of two in [1, 256] so shard selection is
/// a mask, not a modulo.
size_t NormalizeShardCount(size_t requested);

/// Finalizing mix (SplitMix64 tail) so shard selection uses high-quality
/// bits even when Hash is the identity on small integers.
uint64_t MixHash(uint64_t h);

}  // namespace cache_internal

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedLruCache {
 public:
  /// `num_shards` is rounded to a power of two in [1, 256]; `byte_budget`
  /// is split evenly across shards.
  ShardedLruCache(size_t num_shards, uint64_t byte_budget)
      : byte_budget_(byte_budget),
        shards_(cache_internal::NormalizeShardCount(num_shards)) {
    shard_budget_ = byte_budget_ / shards_.size();
  }

  uint64_t byte_budget() const { return byte_budget_; }

  /// The entry for `key`, freshened to most-recently-used; nullptr on miss.
  std::shared_ptr<const Value> Lookup(const Key& key) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.stats.misses;
      return nullptr;
    }
    ++shard.stats.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->value;
  }

  /// The entry for `key` WITHOUT touching recency order or hit/miss
  /// counters; nullptr on miss. For invariant checks that must observe the
  /// cache without perturbing it (e.g. the stress harness probing for stale
  /// entries mid-run).
  std::shared_ptr<const Value> Peek(const Key& key) const {
    const Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) return nullptr;
    return it->second->value;
  }

  /// Inserts (replacing) `key`, charging `charge` bytes against the shard
  /// budget, and evicts least-recently-used entries until the shard fits
  /// again. An entry larger than the whole shard budget is evicted
  /// immediately — the cache never grows past its budget for one caller.
  void Insert(const Key& key, std::shared_ptr<const Value> value,
              uint64_t charge) {
    InsertIf(key, std::move(value), charge, [] { return true; });
  }

  /// Insert, done only when `admit()` is true; false when refused. `admit`
  /// runs under the shard lock, so an invalidation that first makes it
  /// false and then sweeps with EraseIf or Erase either refuses this entry
  /// or erases it.
  template <typename Admit>
  bool InsertIf(const Key& key, std::shared_ptr<const Value> value,
                uint64_t charge, Admit&& admit) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!admit()) return false;
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.bytes -= it->second->charge;
      shard.lru.erase(it->second);
      shard.index.erase(it);
    }
    shard.lru.push_front(Entry{key, std::move(value), charge});
    shard.index[key] = shard.lru.begin();
    shard.bytes += charge;
    ++shard.stats.insertions;
    while (shard.bytes > shard_budget_ && !shard.lru.empty()) {
      const Entry& victim = shard.lru.back();
      shard.bytes -= victim.charge;
      shard.index.erase(victim.key);
      shard.lru.pop_back();
      ++shard.stats.evictions;
    }
    return true;
  }

  /// Removes `key`; false when absent.
  bool Erase(const Key& key) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) return false;
    shard.bytes -= it->second->charge;
    shard.lru.erase(it->second);
    shard.index.erase(it);
    ++shard.stats.invalidations;
    return true;
  }

  /// Removes every entry for which `pred(key, value)` is true; returns the
  /// number removed. Takes each shard lock in turn (never all at once).
  template <typename Pred>
  size_t EraseIf(Pred&& pred) {
    size_t erased = 0;
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (auto it = shard.lru.begin(); it != shard.lru.end();) {
        if (pred(it->key, *it->value)) {
          shard.bytes -= it->charge;
          shard.index.erase(it->key);
          it = shard.lru.erase(it);
          ++shard.stats.invalidations;
          ++erased;
        } else {
          ++it;
        }
      }
    }
    return erased;
  }

  /// Drops every entry. Cumulative counters are preserved.
  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.stats.invalidations += shard.lru.size();
      shard.lru.clear();
      shard.index.clear();
      shard.bytes = 0;
    }
  }

  CacheStats Stats() const {
    CacheStats total;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      CacheStats s = shard.stats;
      s.entries = shard.lru.size();
      s.bytes = shard.bytes;
      total += s;
    }
    return total;
  }

 private:
  struct Entry {
    Key key;
    std::shared_ptr<const Value> value;
    uint64_t charge = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> index;
    uint64_t bytes = 0;
    CacheStats stats;
  };

  Shard& ShardFor(const Key& key) {
    const uint64_t h = cache_internal::MixHash(Hash{}(key));
    return shards_[h & (shards_.size() - 1)];
  }
  const Shard& ShardFor(const Key& key) const {
    const uint64_t h = cache_internal::MixHash(Hash{}(key));
    return shards_[h & (shards_.size() - 1)];
  }

  uint64_t byte_budget_;
  uint64_t shard_budget_;
  std::vector<Shard> shards_;
};

}  // namespace sampwh

#endif  // SAMPWH_UTIL_SHARDED_CACHE_H_
