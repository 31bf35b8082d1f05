#include "src/core/compact_histogram.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "src/util/logging.h"

namespace sampwh {

namespace {

bool ValueLess(const CompactHistogram::Entry& e, Value v) {
  return e.first < v;
}

Value KeyOf(Value v) { return v; }
Value KeyOf(const CompactHistogram::Entry& e) { return e.first; }

// Sorts `items` ascending by their Value key: an LSD radix sort with one
// counting pass per byte in which the keys differ. Histograms arrive here
// in hash-table or reservoir order, where a comparison sort mispredicts
// about every other branch; the radix passes have no data-dependent
// branches. Small inputs use std::sort.
template <typename T>
void SortByValue(std::vector<T>* items) {
  constexpr size_t kRadixMinItems = 256;
  if (items->size() < kRadixMinItems) {
    std::sort(items->begin(), items->end(),
              [](const T& a, const T& b) { return KeyOf(a) < KeyOf(b); });
    return;
  }
  // Flipping the sign bit maps signed order onto unsigned order.
  const auto key = [](const T& item) {
    return static_cast<uint64_t>(KeyOf(item)) ^ (uint64_t{1} << 63);
  };
  const uint64_t first = key(items->front());
  uint64_t varying = 0;
  for (const T& item : *items) varying |= key(item) ^ first;
  std::vector<T> scratch(items->size());
  for (int shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xFF) == 0) continue;
    size_t offsets[256] = {};
    for (const T& item : *items) ++offsets[(key(item) >> shift) & 0xFF];
    size_t sum = 0;
    for (size_t& offset : offsets) {
      const size_t count = offset;
      offset = sum;
      sum += count;
    }
    for (const T& item : *items) {
      scratch[offsets[(key(item) >> shift) & 0xFF]++] = item;
    }
    items->swap(scratch);
  }
}

}  // namespace

void CompactHistogram::Insert(Value v, uint64_t n) {
  if (n == 0) return;
  total_count_ += n;
  if (entries_.empty() || entries_.back().first < v) {
    entries_.emplace_back(v, n);
    footprint_bytes_ += EntryFootprintBytes(n);
    return;
  }
  auto it = entries_.back().first == v
                ? entries_.end() - 1
                : std::lower_bound(entries_.begin(), entries_.end(), v,
                                   ValueLess);
  if (it->first == v) {
    footprint_bytes_ += EntryFootprintBytes(it->second + n) -
                        EntryFootprintBytes(it->second);
    it->second += n;
  } else {
    entries_.insert(it, Entry{v, n});
    footprint_bytes_ += EntryFootprintBytes(n);
  }
}

void CompactHistogram::Remove(Value v, uint64_t n) {
  if (n == 0) return;
  auto it = std::lower_bound(entries_.begin(), entries_.end(), v, ValueLess);
  SAMPWH_CHECK(it != entries_.end() && it->first == v && it->second >= n);
  const uint64_t new_count = it->second - n;
  footprint_bytes_ -= EntryFootprintBytes(it->second);
  footprint_bytes_ += EntryFootprintBytes(new_count);
  total_count_ -= n;
  if (new_count == 0) {
    entries_.erase(it);
  } else {
    it->second = new_count;
  }
}

uint64_t CompactHistogram::CountOf(Value v) const {
  const auto it =
      std::lower_bound(entries_.begin(), entries_.end(), v, ValueLess);
  return it != entries_.end() && it->first == v ? it->second : 0;
}

std::vector<Value> CompactHistogram::ToBag() const {
  std::vector<Value> bag;
  bag.reserve(total_count_);
  for (const auto& [v, n] : entries_) bag.insert(bag.end(), n, v);
  return bag;
}

CompactHistogram CompactHistogram::FromBag(std::vector<Value> bag) {
  SortByValue(&bag);
  CompactHistogram hist;
  size_t distinct = bag.empty() ? 0 : 1;
  for (size_t i = 1; i < bag.size(); ++i) distinct += bag[i] != bag[i - 1];
  hist.entries_.reserve(distinct);
  for (size_t i = 0; i < bag.size();) {
    size_t j = i + 1;
    while (j < bag.size() && bag[j] == bag[i]) ++j;
    hist.Insert(bag[i], j - i);
    i = j;
  }
  return hist;
}

CompactHistogram CompactHistogram::FromSortedEntries(
    std::vector<Entry> entries) {
  CompactHistogram hist;
  hist.entries_ = std::move(entries);
  hist.RecountTotals();
  return hist;
}

void CompactHistogram::RecountTotals() {
  uint64_t total = 0;
  uint64_t singletons = 0;
  for (size_t i = 0; i < entries_.size(); ++i) {
    SAMPWH_DCHECK(entries_[i].second >= 1);
    SAMPWH_DCHECK(i == 0 || entries_[i - 1].first < entries_[i].first);
    total += entries_[i].second;
    singletons += entries_[i].second == 1;
  }
  total_count_ = total;
  footprint_bytes_ = singletons * EntryFootprintBytes(1) +
                     (entries_.size() - singletons) * EntryFootprintBytes(2);
}

void CompactHistogram::Join(const CompactHistogram& other) {
  if (other.empty()) return;
  if (empty()) {
    *this = other;
    return;
  }
  if (entries_.back().first < other.entries_.front().first) {
    entries_.insert(entries_.end(), other.entries_.begin(),
                    other.entries_.end());
    total_count_ += other.total_count_;
    footprint_bytes_ += other.footprint_bytes_;
    return;
  }
  // Each step emits the smaller head, or the sum of two equal heads, and
  // advances the side(s) it consumed by a 0/1 amount: the entry order of
  // two samples is random, so a branch on it mispredicts every other step.
  std::vector<Entry> merged(entries_.size() + other.entries_.size());
  const Entry* a = entries_.data();
  const Entry* const a_end = a + entries_.size();
  const Entry* b = other.entries_.data();
  const Entry* const b_end = b + other.entries_.size();
  Entry* out = merged.data();
  while (a != a_end && b != b_end) {
    const bool take_a = a->first <= b->first;
    const bool take_b = b->first <= a->first;
    const uint64_t mask_a = 0 - static_cast<uint64_t>(take_a);
    const uint64_t mask_b = 0 - static_cast<uint64_t>(take_b);
    out->first = static_cast<Value>(
        (static_cast<uint64_t>(a->first) & mask_a) |
        (static_cast<uint64_t>(b->first) & ~mask_a));
    out->second = (a->second & mask_a) + (b->second & mask_b);
    a += take_a;
    b += take_b;
    ++out;
  }
  out = std::copy(a, a_end, out);
  out = std::copy(b, b_end, out);
  merged.resize(static_cast<size_t>(out - merged.data()));
  entries_ = std::move(merged);
  RecountTotals();
}

uint64_t CompactHistogram::JoinedFootprintBytes(
    const CompactHistogram& other) const {
  uint64_t footprint = footprint_bytes_ + other.footprint_bytes_;
  auto a = entries_.begin();
  auto b = other.entries_.begin();
  while (a != entries_.end() && b != other.entries_.end()) {
    if (a->first < b->first) {
      ++a;
    } else if (b->first < a->first) {
      ++b;
    } else {
      // A value on both sides is stored once, as a pair.
      footprint -= EntryFootprintBytes(a->second) +
                   EntryFootprintBytes(b->second) - kPairFootprintBytes;
      ++a;
      ++b;
    }
  }
  return footprint;
}

Value CompactHistogram::RemoveRandomVictim(Pcg64& rng) {
  SAMPWH_CHECK(total_count_ > 0);
  uint64_t target = rng.UniformInt(total_count_);
  for (const auto& [v, n] : entries_) {
    if (target < n) {
      const Value victim = v;
      Remove(victim, 1);
      return victim;
    }
    target -= n;
  }
  // Unreachable: total_count_ equals the sum of all counts.
  SAMPWH_CHECK(false);
  return 0;
}

void CompactHistogram::Clear() {
  entries_.clear();
  total_count_ = 0;
  footprint_bytes_ = 0;
}

size_t CompactHistogram::EncodedBytesBound() const {
  // The entry count and the first delta take at most ten bytes each. Every
  // later delta lies in (0, max - min], so its zig-zag image is at most
  // twice the value range; every count is at most the largest count.
  if (entries_.empty()) return kMaxVarint64Bytes;
  const auto varint_bytes = [](uint64_t v) -> size_t {
    return (std::bit_width(v | 1) + 6) / 7;
  };
  const uint64_t range = static_cast<uint64_t>(entries_.back().first) -
                         static_cast<uint64_t>(entries_.front().first);
  const size_t delta_bytes = range >> 63 ? kMaxVarint64Bytes
                                         : varint_bytes(range << 1);
  uint64_t max_count = 0;
  for (const auto& [v, n] : entries_) max_count = std::max(max_count, n);
  return 2 * kMaxVarint64Bytes +
         entries_.size() * (delta_bytes + varint_bytes(max_count));
}

void CompactHistogram::SerializeTo(BinaryWriter* writer) const {
  // One growth to a bound on the encoding, one pointer walk, one trim: no
  // per-byte append and no regrowth.
  const size_t bound = EncodedBytesBound();
  char* const start = writer->GrowBy(bound);
  char* out = EncodeVarint64(start, entries_.size());
  uint64_t previous = 0;
  for (const auto& [v, n] : entries_) {
    const uint64_t bits = static_cast<uint64_t>(v);
    out = EncodeVarint64(
        out, ZigZagEncode64(static_cast<int64_t>(bits - previous)));
    out = EncodeVarint64(out, n);
    previous = bits;
  }
  SAMPWH_CHECK(static_cast<size_t>(out - start) <= bound);
  writer->TrimTo(out);
}

Result<CompactHistogram> CompactHistogram::DeserializeFrom(
    BinaryReader* reader) {
  uint64_t num_entries;
  SAMPWH_RETURN_IF_ERROR(reader->GetVarint64(&num_entries));
  // Every entry is two varints of at least one byte each: reject counts
  // the input cannot hold before reserving memory for them.
  if (num_entries > reader->remaining() / 2) {
    return Status::Corruption("histogram entry count exceeds input");
  }
  // Entries are written through a pointer into storage sized once, and
  // the running sums live in locals: with emplace_back and member sums the
  // loop spilled and reloaded them on every entry, and decoding took about
  // 1.6 times as long.
  CompactHistogram hist;
  hist.entries_.resize(num_entries);
  Entry* out = hist.entries_.data();
  const std::string_view input = reader->rest();
  const char* in = input.data();
  const char* const end = in + input.size();
  uint64_t total = 0;
  uint64_t singletons = 0;
  uint64_t previous = 0;
  for (uint64_t i = 0; i < num_entries; ++i) {
    uint64_t zigzag_delta;
    uint64_t count;
    VarintDecode result = DecodeVarint64(&in, end, &zigzag_delta);
    if (result == VarintDecode::kOk) result = DecodeVarint64(&in, end, &count);
    if (result != VarintDecode::kOk) return VarintDecodeStatus(result);
    if (count == 0) {
      return Status::Corruption("zero count in histogram entry");
    }
    if (count > std::numeric_limits<uint64_t>::max() - total) {
      return Status::Corruption("histogram total count overflows");
    }
    total += count;
    const uint64_t bits =
        previous + static_cast<uint64_t>(ZigZagDecode64(zigzag_delta));
    if (i > 0 && static_cast<Value>(bits) <= static_cast<Value>(previous)) {
      return Status::Corruption("histogram values not strictly ascending");
    }
    out[i] = Entry{static_cast<Value>(bits), count};
    singletons += count == 1;
    previous = bits;
  }
  hist.total_count_ = total;
  hist.footprint_bytes_ = singletons * EntryFootprintBytes(1) +
                          (num_entries - singletons) * EntryFootprintBytes(2);
  reader->Skip(in - input.data());
  return hist;
}

// --- HistogramBuilder -------------------------------------------------------

HistogramBuilder::HistogramBuilder(const CompactHistogram& hist) {
  size_t capacity = 16;
  while (capacity < 2 * hist.distinct_count()) capacity *= 2;
  Rehash(capacity);
  for (const auto& [v, n] : hist.entries()) {
    Slot& slot = slots_[Find(v)];
    slot.value = v;
    slot.count = n;
  }
  size_ = hist.distinct_count();
  total_count_ = hist.total_count();
  footprint_bytes_ = hist.footprint_bytes();
}

size_t HistogramBuilder::Home(Value v) const {
  // murmur3's 64-bit finalizer: sequential and strided value codes spread
  // over the whole table.
  uint64_t x = static_cast<uint64_t>(v);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return static_cast<size_t>(x) & (slots_.size() - 1);
}

size_t HistogramBuilder::Find(Value v) const {
  const size_t mask = slots_.size() - 1;
  size_t i = Home(v);
  while (slots_[i].count != 0 && slots_[i].value != v) i = (i + 1) & mask;
  return i;
}

void HistogramBuilder::ReserveOneMore() {
  if (2 * (size_ + 1) > slots_.size()) {
    Rehash(slots_.empty() ? 16 : 2 * slots_.size());
  }
}

void HistogramBuilder::Rehash(size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  for (const Slot& slot : old) {
    if (slot.count != 0) slots_[Find(slot.value)] = slot;
  }
}

void HistogramBuilder::Insert(Value v, uint64_t n) {
  if (n == 0) return;
  ReserveOneMore();
  Slot& slot = slots_[Find(v)];
  if (slot.count == 0) {
    slot.value = v;
    ++size_;
  }
  footprint_bytes_ +=
      EntryFootprintBytes(slot.count + n) - EntryFootprintBytes(slot.count);
  slot.count += n;
  total_count_ += n;
}

bool HistogramBuilder::InsertIfFits(Value v, uint64_t footprint_bound) {
  ReserveOneMore();
  Slot& slot = slots_[Find(v)];
  const uint64_t growth =
      EntryFootprintBytes(slot.count + 1) - EntryFootprintBytes(slot.count);
  if (footprint_bytes_ + growth > footprint_bound) return false;
  if (slot.count == 0) {
    slot.value = v;
    ++size_;
  }
  ++slot.count;
  footprint_bytes_ += growth;
  ++total_count_;
  return true;
}

void HistogramBuilder::Remove(Value v, uint64_t n) {
  if (n == 0) return;
  SAMPWH_CHECK(!slots_.empty());
  size_t hole = Find(v);
  Slot& slot = slots_[hole];
  SAMPWH_CHECK(slot.count >= n && slot.count != 0);
  footprint_bytes_ +=
      EntryFootprintBytes(slot.count - n) - EntryFootprintBytes(slot.count);
  total_count_ -= n;
  slot.count -= n;
  if (slot.count != 0) return;
  --size_;
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole when the hole lies on their probe path, so lookups never need
  // tombstones.
  const size_t mask = slots_.size() - 1;
  for (size_t j = (hole + 1) & mask; slots_[j].count != 0;
       j = (j + 1) & mask) {
    const size_t home = Home(slots_[j].value);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      slots_[j].count = 0;
      hole = j;
    }
  }
}

uint64_t HistogramBuilder::CountOf(Value v) const {
  if (slots_.empty()) return 0;
  return slots_[Find(v)].count;
}

CompactHistogram HistogramBuilder::Build() const {
  CompactHistogram hist;
  hist.entries_.reserve(size_);
  for (const Slot& slot : slots_) {
    if (slot.count != 0) hist.entries_.emplace_back(slot.value, slot.count);
  }
  SortByValue(&hist.entries_);
  hist.total_count_ = total_count_;
  hist.footprint_bytes_ = footprint_bytes_;
  return hist;
}

void HistogramBuilder::Clear() {
  slots_ = {};
  size_ = 0;
  total_count_ = 0;
  footprint_bytes_ = 0;
}

}  // namespace sampwh
