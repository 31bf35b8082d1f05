// A bounded lock-free single-producer single-consumer ring buffer — the
// queue between an ingest thread and its background checkpoint writer.
// Neither side ever takes a mutex on the hot path:
// the producer owns the tail, the consumer owns the head, and each side
// keeps a cached copy of the other's index so the common case touches no
// cross-core cache line at all (the "fast SPSC" layout of Rigtorp /
// folly::ProducerConsumerQueue).
//
// Memory ordering: the producer publishes a slot with a release store of
// tail_, the consumer acquires it before reading the slot (and vice versa
// for reclamation through head_), which is the complete synchronization
// story — there are no other shared fields.

#ifndef SAMPWH_UTIL_SPSC_RING_H_
#define SAMPWH_UTIL_SPSC_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sampwh {

/// Exactly one thread may call the producer side (TryPush) and one thread
/// the consumer side (TryPop) at a time; the two may differ and may change
/// between externally synchronized phases (e.g. after a thread join).
template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two, minimum 2.
  explicit SpscRing(size_t capacity) {
    size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  size_t capacity() const { return slots_.size(); }

  /// Moves `item` into the ring and returns true; returns false (leaving
  /// `item` untouched) when the ring is full.
  bool TryPush(T& item) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ == slots_.size()) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ == slots_.size()) return false;
    }
    slots_[tail & mask_] = std::move(item);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Moves the oldest element into `*out` and returns true; false when the
  /// ring is empty.
  bool TryPop(T* out) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return false;
    }
    *out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// True when the ring held no elements at some instant during the call.
  /// Exact when the caller is the only active side; otherwise a snapshot.
  bool Empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  /// Elements resident at some instant during the call (same caveat).
  size_t SizeApprox() const {
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    const uint64_t head = head_.load(std::memory_order_acquire);
    return static_cast<size_t>(tail - head);
  }

 private:
  static constexpr size_t kCacheLine = 64;

  std::vector<T> slots_;
  size_t mask_ = 0;

  /// Consumer index: written by the consumer, acquired by the producer.
  alignas(kCacheLine) std::atomic<uint64_t> head_{0};
  /// Producer's cached view of head_ (producer-private).
  alignas(kCacheLine) uint64_t cached_head_ = 0;
  /// Producer index: written by the producer, acquired by the consumer.
  alignas(kCacheLine) std::atomic<uint64_t> tail_{0};
  /// Consumer's cached view of tail_ (consumer-private).
  alignas(kCacheLine) uint64_t cached_tail_ = 0;
};

}  // namespace sampwh

#endif  // SAMPWH_UTIL_SPSC_RING_H_
