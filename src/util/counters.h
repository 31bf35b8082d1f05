// Counter sets. A set is one struct of uint64_t fields plus one table next
// to it: each row names a field and its label, in the set's wire and print
// order. The struct is the live state — its owner bumps fields in place —
// and also the snapshot type readers get back. Encoders, decoders, printers
// and sums walk the table, so adding a counter is one field and one row
// appended at the end; no other code lists the fields.
//
// Live fields shared between threads are bumped and loaded through relaxed
// std::atomic_ref: counts are exact, but a snapshot is not a consistent cut
// across fields.

#ifndef SAMPWH_UTIL_COUNTERS_H_
#define SAMPWH_UTIL_COUNTERS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sampwh {

static_assert(alignof(uint64_t) >=
                  std::atomic_ref<uint64_t>::required_alignment,
              "counter fields must be usable through std::atomic_ref");

/// One row of a counter table: a field of `Set` and its label.
template <typename Set>
struct CounterField {
  std::string_view label;
  uint64_t Set::*field;
};

/// Adds `n` to a live counter with one relaxed atomic add.
inline void BumpCounter(uint64_t& counter, uint64_t n = 1) {
  std::atomic_ref<uint64_t>(counter).fetch_add(n, std::memory_order_relaxed);
}

/// A snapshot of live counters other threads may be bumping: every field
/// in `table`, read with a relaxed atomic load. The owner of `live` never
/// declares it const, so the load may go through a non-const reference
/// (std::atomic_ref<const T> arrives only in C++26).
template <typename Set, size_t N>
Set LoadCounters(const Set& live, const CounterField<Set> (&table)[N]) {
  Set snapshot{};
  for (const CounterField<Set>& row : table) {
    uint64_t& field = const_cast<uint64_t&>(live.*row.field);
    snapshot.*row.field =
        std::atomic_ref<uint64_t>(field).load(std::memory_order_relaxed);
  }
  return snapshot;
}

/// Adds every field of the snapshot `from` named in `table` into `*into`.
template <typename Set, size_t N>
void SumCounters(Set* into, const Set& from,
                 const CounterField<Set> (&table)[N]) {
  for (const CounterField<Set>& row : table) {
    into->*row.field += from.*row.field;
  }
}

}  // namespace sampwh

#endif  // SAMPWH_UTIL_COUNTERS_H_
