// Heap-allocation spy shared by the zero-allocation tests and benches.
//
// heap_spy.cpp replaces the global operator new/delete family for the
// whole program it is linked into (the cimnav_heap_spy OBJECT library,
// so the replacement always links). Every allocation — the library's,
// the standard library's, the test's own — is counted while the spy is
// armed; counting is off otherwise, so gtest and bench bookkeeping stay
// outside the window under test.
#pragma once

#include <cstdint>

namespace cimnav::heap_spy {

/// Zeroes the allocation count and starts counting.
void arm();

/// Stops counting; returns the allocations made since arm().
std::uint64_t disarm();

/// Heap allocations made while running `body`.
template <class F>
std::uint64_t allocations_during(F&& body) {
  arm();
  body();
  return disarm();
}

}  // namespace cimnav::heap_spy
