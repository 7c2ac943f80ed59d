//===- perfbench/AllocCount.h - Heap-allocation counter ---------*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The harness's view of the heap-allocation counter. perfbench_traced links
/// alloc_count.cpp, which replaces the global operator new for the whole
/// process (the statically linked library included), in the manner of
/// bench/AllocCounter.h. perfbench_harness links alloc_off.cpp, so the
/// end-to-end runs pay nothing per allocation.
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_PERFBENCH_ALLOCCOUNT_H
#define BAYONET_PERFBENCH_ALLOCCOUNT_H

#include <cstdint>

namespace perfbench {

/// True in the binary that counts allocations.
bool allocCounting();

/// Heap allocations (operator new calls) the process has made so far;
/// always 0 when allocCounting() is false.
uint64_t allocsNow();

} // namespace perfbench

#endif // BAYONET_PERFBENCH_ALLOCCOUNT_H
