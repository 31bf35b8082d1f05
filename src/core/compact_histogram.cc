#include "src/core/compact_histogram.h"

#include <algorithm>
#include <bit>
#include <cstring>
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

void CompactHistogram::Clear() {
  entries_.clear();
  total_count_ = 0;
  footprint_bytes_ = 0;
}

// --- The codecs -------------------------------------------------------------

namespace {

// Gaps per frame-of-reference block of the packed layout.
constexpr size_t kGapsPerBlock = 128;
// Widths up to this take one unaligned 8-byte load per gap: a gap starts
// at most 7 bits into its first byte, so 7 + 56 bits fit in the load.
constexpr unsigned kMaxLoadWidth = 56;
// Flipping the sign bit maps int64 order onto uint64 order.
constexpr uint64_t kSignBit = uint64_t{1} << 63;

// Gap blocks of n entries (n - 1 gaps), and bytes of their count bitmap;
// neither overflows for any n.
uint64_t GapBlocks(uint64_t n) {
  return n < 2 ? 0 : (n - 2) / kGapsPerBlock + 1;
}
uint64_t BitmapBytes(uint64_t n) { return n / 8 + (n % 8 != 0); }

uint64_t Load64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

void Store64(unsigned char* p, uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, sizeof(v));
}

uint64_t LowBits(unsigned width) {
  return width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
}

uint64_t Gap(const CompactHistogram::Entry* entry) {
  return static_cast<uint64_t>(entry[0].first) -
         static_cast<uint64_t>(entry[-1].first) - 1;
}

// Packs the gaps of entries [first, first + count) — each against the entry
// before it — at `width` bits each, LSB-first, into exactly
// ceil(width * count / 8) bytes at `out`; returns one past the last.
unsigned char* PackGaps(const CompactHistogram::Entry* first, size_t count,
                        unsigned width, unsigned char* out) {
  if (width == 0) return out;
  uint64_t pending = 0;
  unsigned filled = 0;  // bits of `pending` in use, always < 64
  for (size_t i = 0; i < count; ++i) {
    const uint64_t gap = Gap(first + i);
    pending |= gap << filled;
    if (filled + width >= 64) {
      Store64(out, pending);
      out += 8;
      pending = filled == 0 ? 0 : gap >> (64 - filled);
      filled = filled + width - 64;
    } else {
      filled += width;
    }
  }
  for (; filled > 0; filled = filled > 8 ? filled - 8 : 0) {
    *out++ = static_cast<unsigned char>(pending);
    pending >>= 8;
  }
  return out;
}

}  // namespace

void CompactHistogram::SerializeTo(BinaryWriter* writer) const {
  const size_t n = entries_.size();
  const size_t num_blocks = GapBlocks(n);
  // Pass 1: every block's width and the exact encoded size, so the writer
  // grows once and nothing is trimmed.
  std::vector<uint8_t> widths(num_blocks);
  size_t size = VarintLength(n);
  if (n > 0) {
    size += VarintLength(ZigZagEncode64(entries_[0].first)) + BitmapBytes(n);
    if (entries_[0].second > 1) size += VarintLength(entries_[0].second - 2);
    for (size_t b = 0; b < num_blocks; ++b) {
      const size_t begin = 1 + b * kGapsPerBlock;
      const size_t end = std::min(begin + kGapsPerBlock, n);
      uint64_t any_bits = 0;
      for (size_t i = begin; i < end; ++i) {
        any_bits |= Gap(&entries_[i]);
        const uint64_t count = entries_[i].second;
        if (count > 1) size += VarintLength(count - 2);
      }
      widths[b] = static_cast<uint8_t>(std::bit_width(any_bits));
      size += 1 + (widths[b] * (end - begin) + 7) / 8;
    }
  }
  // Pass 2: write.
  char* const start = writer->GrowBy(size);
  char* out = EncodeVarint64(start, n);
  if (n > 0) {
    out = EncodeVarint64(out, ZigZagEncode64(entries_[0].first));
    auto* bytes = reinterpret_cast<unsigned char*>(out);
    for (size_t b = 0; b < num_blocks; ++b) {
      const size_t begin = 1 + b * kGapsPerBlock;
      const size_t count = std::min(kGapsPerBlock, n - begin);
      *bytes++ = widths[b];
      bytes = PackGaps(&entries_[begin], count, widths[b], bytes);
    }
    for (size_t i = 0; i < n; i += 8) {
      const size_t stop = std::min(n, i + 8);
      unsigned bits = 0;
      for (size_t j = i; j < stop; ++j) {
        bits |= static_cast<unsigned>(entries_[j].second > 1) << (j - i);
      }
      *bytes++ = static_cast<unsigned char>(bits);
    }
    out = reinterpret_cast<char*>(bytes);
    for (const auto& [v, count] : entries_) {
      if (count > 1) out = EncodeVarint64(out, count - 2);
    }
  }
  SAMPWH_CHECK(out == start + size);
}

Result<CompactHistogram> CompactHistogram::DeserializeFrom(
    BinaryReader* reader, uint64_t max_entries) {
  // Varints are read minimal-only, so every accepted input is the one
  // encoding of what it decodes to.
  uint64_t n;
  SAMPWH_RETURN_IF_ERROR(reader->GetMinimalVarint64(&n));
  CompactHistogram hist;
  if (n == 0) return hist;
  if (n > max_entries) {
    return Status::Corruption("histogram entry count exceeds its bound");
  }
  // The fewest bytes n entries take: a one-byte first value, a width byte
  // per block of zero-width gaps, the count bitmap. Reject counts the
  // input cannot hold before reserving memory for them.
  const uint64_t min_bytes = 1 + GapBlocks(n) + BitmapBytes(n);
  if (min_bytes > reader->remaining()) {
    return Status::Corruption("histogram entry count exceeds input");
  }
  uint64_t first;
  SAMPWH_RETURN_IF_ERROR(reader->GetMinimalVarint64(&first));

  // Values: u is the running value with its sign bit flipped, so int64
  // order is uint64 order and a step u + gap + 1 that does not land above
  // u is a duplicate or a descent — a carry past the top of the range.
  // The entries are reserved, never zero-filled, and appended in order.
  hist.entries_.reserve(n);
  uint64_t u = static_cast<uint64_t>(ZigZagDecode64(first)) ^ kSignBit;
  hist.entries_.emplace_back(static_cast<Value>(u ^ kSignBit), 1);
  const std::string_view input = reader->rest();
  const auto* bytes = reinterpret_cast<const unsigned char*>(input.data());
  const auto* const limit = bytes + input.size();
  for (uint64_t done = 1; done < n;) {
    const size_t count = std::min<uint64_t>(kGapsPerBlock, n - done);
    if (bytes == limit) return Status::OutOfRange("truncated histogram block");
    const unsigned width = *bytes++;
    if (width > 64) return Status::Corruption("histogram gap width over 64");
    const size_t block_bits = width * count;
    const size_t block_bytes = (block_bits + 7) / 8;
    if (block_bytes > static_cast<size_t>(limit - bytes)) {
      return Status::OutOfRange("truncated histogram block");
    }
    const uint64_t mask = LowBits(width);
    // Gaps whose 8-byte load stays inside the input take the fast path;
    // wider gaps and the input's last bytes assemble theirs byte by byte
    // from the block alone.
    size_t fast = 0;
    if (width <= kMaxLoadWidth && limit - bytes >= 8) {
      const size_t last_load = static_cast<size_t>(limit - bytes) - 8;
      fast = width == 0 ? count
                        : std::min<size_t>(count, (8 * last_load + 7) / width + 1);
    }
    uint64_t any_bits = 0;
    bool descends = false;
    const auto append = [&](uint64_t gap) {
      any_bits |= gap;
      const uint64_t next = u + gap + 1;
      descends |= next <= u;
      u = next;
      hist.entries_.emplace_back(static_cast<Value>(u ^ kSignBit), 1);
    };
    for (size_t i = 0; i < fast; ++i) {
      const size_t bit = i * width;
      append((Load64(bytes + bit / 8) >> (bit % 8)) & mask);
    }
    for (size_t i = fast; i < count; ++i) {
      const size_t bit = i * width;
      const size_t byte = bit / 8;
      const unsigned shift = bit % 8;
      uint64_t word = 0;
      for (size_t k = 0; k < 8 && byte + k < block_bytes; ++k) {
        word |= uint64_t{bytes[byte + k]} << (8 * k);
      }
      uint64_t gap = word >> shift;
      if (shift + width > 64) gap |= uint64_t{bytes[byte + 8]} << (64 - shift);
      append(gap & mask);
    }
    if (static_cast<unsigned>(std::bit_width(any_bits)) != width) {
      return Status::Corruption("histogram gap width not the tightest");
    }
    if (block_bits % 8 != 0 && bytes[block_bytes - 1] >> (block_bits % 8)) {
      return Status::Corruption("nonzero padding in histogram block");
    }
    if (descends) {
      return Status::Corruption("histogram values not strictly ascending");
    }
    bytes += block_bytes;
    done += count;
  }

  // Counts: the bitmap marks the entries whose count exceeds 1; a
  // varint(count - 2) follows for each, in entry order.
  const size_t bitmap_bytes = BitmapBytes(n);
  if (bitmap_bytes > static_cast<size_t>(limit - bytes)) {
    return Status::OutOfRange("truncated histogram count bitmap");
  }
  if (n % 8 != 0 && bytes[bitmap_bytes - 1] >> (n % 8)) {
    return Status::Corruption("nonzero padding in histogram count bitmap");
  }
  const auto* const bitmap = bytes;
  reader->Skip(reinterpret_cast<const char*>(bitmap + bitmap_bytes) -
               input.data());
  Entry* const entries = hist.entries_.data();
  uint64_t total = n;
  uint64_t pairs = 0;
  for (size_t byte = 0; byte < bitmap_bytes; ++byte) {
    for (unsigned bits = bitmap[byte]; bits != 0; bits &= bits - 1) {
      uint64_t extra;
      SAMPWH_RETURN_IF_ERROR(reader->GetMinimalVarint64(&extra));
      // The entry's 1 is already in `total` (so total >= 1); it gains
      // count - 1 = extra + 1. Neither that sum nor the count may overflow.
      if (extra >= std::numeric_limits<uint64_t>::max() - total) {
        return Status::Corruption("histogram total count overflows");
      }
      total += extra + 1;
      entries[8 * byte + std::countr_zero(bits)].second = extra + 2;
      ++pairs;
    }
  }
  hist.total_count_ = total;
  hist.footprint_bytes_ = (n - pairs) * EntryFootprintBytes(1) +
                          pairs * EntryFootprintBytes(2);
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
