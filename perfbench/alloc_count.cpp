//===- perfbench/alloc_count.cpp - Counting operator new ------------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replaces the global allocation functions of the traced binary. Every
/// operator new, in the harness and in the library, bumps one relaxed atomic
/// counter; at 1 lane the counts of a region repeat exactly from run to run.
///
//===----------------------------------------------------------------------===//

#include "AllocCount.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> Allocs{0};

void *countedAlloc(std::size_t Size) {
  Allocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *countedAlignedAlloc(std::size_t Size, std::align_val_t Align) {
  Allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t Al = static_cast<std::size_t>(Align);
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t Rounded = ((Size ? Size : 1) + Al - 1) / Al * Al;
  if (void *P = std::aligned_alloc(Al, Rounded))
    return P;
  throw std::bad_alloc();
}
} // namespace

bool perfbench::allocCounting() { return true; }
uint64_t perfbench::allocsNow() {
  return Allocs.load(std::memory_order_relaxed);
}

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void *operator new(std::size_t Size, std::align_val_t Align) {
  return countedAlignedAlloc(Size, Align);
}
void *operator new[](std::size_t Size, std::align_val_t Align) {
  return countedAlignedAlloc(Size, Align);
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
