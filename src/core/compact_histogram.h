// The compact sample representation shared by every sampler in the library:
// a frequency histogram storing each distinct value once, as either a bare
// singleton (count 1) or a (value, count) pair, with incremental byte
// footprint accounting. This is the representation of §2 requirement 4 and
// of the concise-sampling data structure in [Gibbons & Matias 1998].
//
// CompactHistogram keeps its entries as one flat vector sorted by value.
// Every consumer — the codecs, purgeBernoulli / purgeReservoir, the merge
// replays — walks entries in ascending value order, so the sorted layout
// makes those walks linear and allocation-free, and joins become linear
// merges. Values that arrive in arbitrary order (a sampler's exhaustive
// phase) go into a HistogramBuilder instead, which hashes them and sorts
// once when the histogram is needed.

#ifndef SAMPWH_CORE_COMPACT_HISTOGRAM_H_
#define SAMPWH_CORE_COMPACT_HISTOGRAM_H_

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "src/core/types.h"
#include "src/util/serialization.h"
#include "src/util/status.h"

namespace sampwh {

/// Footprint of one histogram entry holding `count` copies of a value: 0
/// when absent, a bare singleton, or a (value, count) pair.
inline constexpr uint64_t EntryFootprintBytes(uint64_t count) {
  return count == 0   ? 0
         : count == 1 ? kSingletonFootprintBytes
                      : kPairFootprintBytes;
}

/// The wire layout of a histogram, frame-of-reference bit packing:
///
///   varint  n
///   varint  zig-zag(first value)                            (n >= 1)
///   ceil((n - 1) / 128) blocks of up to 128 gaps, each
///     byte  w in 0..64, the bit width of the block's largest gap
///     ceil(w * gaps / 8) bytes: the gaps, w bits each, LSB-first, the
///           last byte padded with zero bits
///   ceil(n / 8) bytes: bit i (LSB-first) set when entry i's count
///     exceeds 1, zero padding
///   varint(count - 2) for each set bit, in entry order
///
/// where gap i is value[i] - value[i-1] - 1 modulo 2^64. Counts of 1 cost
/// one bit, and no duplicate, descending value or zero count has an
/// encoding. SWS2 samples and sampler-state records embed it.

class CompactHistogram {
 public:
  using Entry = std::pair<Value, uint64_t>;

  CompactHistogram() = default;

  /// Adds `n` occurrences of `v` (insertValue in the paper's pseudocode,
  /// generalized to batch inserts for the join / merge paths). O(1) when
  /// `v` is at least the largest stored value (ascending construction),
  /// O(distinct) otherwise.
  void Insert(Value v, uint64_t n = 1);

  /// Removes `n` occurrences of `v`; the value disappears when its count
  /// reaches zero. `n` must not exceed the current count.
  void Remove(Value v, uint64_t n = 1);

  /// Current count of `v` (0 when absent). O(log distinct).
  uint64_t CountOf(Value v) const;

  /// Number of distinct values stored.
  uint64_t distinct_count() const { return entries_.size(); }

  /// Total number of data-element values represented, |S| = L + sum n_i.
  uint64_t total_count() const { return total_count_; }

  bool empty() const { return total_count_ == 0; }

  /// Current compact-representation footprint in bytes: singletons cost
  /// kSingletonFootprintBytes, pairs kPairFootprintBytes. Maintained
  /// incrementally, O(1) per update.
  uint64_t footprint_bytes() const { return footprint_bytes_; }

  /// All (value, count) entries, strictly ascending by value, counts >= 1.
  const std::vector<Entry>& entries() const { return entries_; }

  /// Applies fn(value, count) to every entry in ascending value order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [v, n] : entries_) fn(v, n);
  }

  /// expand(S): the sample as a bag of values (order: sorted by value,
  /// duplicates adjacent).
  std::vector<Value> ToBag() const;

  /// Builds a histogram from a bag of values: one sort, then run lengths.
  static CompactHistogram FromBag(std::vector<Value> bag);

  /// Adopts `entries`, which must be strictly ascending by value with every
  /// count >= 1 (DCHECKed), computing the totals in one pass.
  static CompactHistogram FromSortedEntries(std::vector<Entry> entries);

  /// Sums `other` into this histogram (the paper's join function: the
  /// compact representation of expand(S1) ∪ expand(S2) without expanding).
  /// A linear merge of the two sorted entry lists, with no data-dependent
  /// branch per entry.
  void Join(const CompactHistogram& other);

  /// Footprint in bytes that joining `other` into this histogram would
  /// produce, without materializing the join (Fig. 6 line 12).
  uint64_t JoinedFootprintBytes(const CompactHistogram& other) const;

  void Clear();

  /// Encodes the histogram in the packed layout (see above). Canonical —
  /// the tightest width per block, zero padding, minimal varints — so
  /// multiset-equal histograms always serialize to identical bytes. The
  /// output is sized exactly in a first pass and grown once.
  void SerializeTo(BinaryWriter* writer) const;

  /// Bounds-checked decode of one canonical packed encoding.
  /// Corruption on a zero count, on values that are not strictly
  /// ascending, on more than `max_entries` entries or an entry count the
  /// remaining bytes cannot hold (both checked before any allocation), on
  /// any non-canonical encoding, or on malformed input; OutOfRange when
  /// the input ends inside the encoding.
  static Result<CompactHistogram> DeserializeFrom(
      BinaryReader* reader,
      uint64_t max_entries = std::numeric_limits<uint64_t>::max());

  bool operator==(const CompactHistogram& other) const {
    return entries_ == other.entries_;
  }

 private:
  friend class HistogramBuilder;

  /// Recomputes total_count_ and footprint_bytes_ from entries_.
  void RecountTotals();

  std::vector<Entry> entries_;
  uint64_t total_count_ = 0;
  uint64_t footprint_bytes_ = 0;
};

/// Accumulates values that arrive in arbitrary order — the exhaustive
/// phase of HB and HR, and the Bernoulli, concise, counting, systematic and
/// multi-purge samplers — in an open-addressing hash table, with the same
/// incremental footprint accounting as CompactHistogram. Build() sorts once
/// and yields the equivalent CompactHistogram.
class HistogramBuilder {
 public:
  HistogramBuilder() = default;
  explicit HistogramBuilder(const CompactHistogram& hist);

  void Insert(Value v, uint64_t n = 1);

  /// Inserts one occurrence of `v` when the footprint stays within
  /// `footprint_bound`; otherwise changes nothing and returns false. One
  /// table probe for the check and the insert.
  bool InsertIfFits(Value v, uint64_t footprint_bound);

  /// Removes `n` occurrences of `v`; `n` must not exceed its count.
  void Remove(Value v, uint64_t n = 1);

  uint64_t CountOf(Value v) const;
  uint64_t distinct_count() const { return size_; }
  uint64_t total_count() const { return total_count_; }
  uint64_t footprint_bytes() const { return footprint_bytes_; }

  /// The histogram accumulated so far, sorted. The builder is unchanged.
  CompactHistogram Build() const;

  /// Empties the builder and releases its table.
  void Clear();

 private:
  // A slot is free when its count is 0; stored values always count >= 1.
  struct Slot {
    Value value = 0;
    uint64_t count = 0;
  };

  size_t Home(Value v) const;
  // Index of v's slot, or of the free slot where v would be placed.
  size_t Find(Value v) const;
  // Keeps the table at most half full once one more value is added.
  void ReserveOneMore();
  void Rehash(size_t capacity);

  std::vector<Slot> slots_;  // power-of-two size, or empty
  size_t size_ = 0;
  uint64_t total_count_ = 0;
  uint64_t footprint_bytes_ = 0;
};

}  // namespace sampwh

#endif  // SAMPWH_CORE_COMPACT_HISTOGRAM_H_
