// The LEB128 encodings the library reads but no longer writes, rebuilt
// here one push_back per byte: histograms in the varint-pairs layout
// (HistogramLayout::kVarintPairs) and whole samples under the SWS1 magic.
// Tests use them to make the stores, replicas and wire blobs that an
// older build left behind, and as the reference the legacy decoder is
// checked against.

#ifndef SAMPWH_TESTS_CORE_LEGACY_CODEC_H_
#define SAMPWH_TESTS_CORE_LEGACY_CODEC_H_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/compact_histogram.h"
#include "src/core/sample.h"

namespace sampwh::legacy {

inline void PutVarint64(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

/// varint(entry count), then per entry varint(zig-zag(value - previous
/// value)) and varint(count), deltas modulo 2^64.
inline std::string EncodeVarintPairs(
    const std::vector<CompactHistogram::Entry>& entries) {
  std::string out;
  PutVarint64(&out, entries.size());
  uint64_t previous = 0;
  for (const auto& [v, n] : entries) {
    const uint64_t bits = static_cast<uint64_t>(v);
    const uint64_t delta = bits - previous;
    // Zig-zag of the delta read as a signed integer.
    PutVarint64(&out, (delta << 1) ^ (0 - (delta >> 63)));
    PutVarint64(&out, n);
    previous = bits;
  }
  return out;
}

/// `sample` as an SWS1 payload: the magic "SWS1", the header fields, then
/// the histogram in varint pairs.
inline std::string EncodeSws1(const PartitionSample& sample) {
  std::string out;
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>(0x53575331u >> (8 * i)));
  }
  PutVarint64(&out, static_cast<uint64_t>(sample.phase()));
  PutVarint64(&out, sample.parent_size());
  const uint64_t q = std::bit_cast<uint64_t>(sample.sampling_rate());
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(q >> (8 * i)));
  PutVarint64(&out, sample.footprint_bound_bytes());
  out += EncodeVarintPairs(sample.histogram().entries());
  return out;
}

}  // namespace sampwh::legacy

#endif  // SAMPWH_TESTS_CORE_LEGACY_CODEC_H_
