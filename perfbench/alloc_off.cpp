//===- perfbench/alloc_off.cpp - No allocation counting -------------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "AllocCount.h"

bool perfbench::allocCounting() { return false; }
uint64_t perfbench::allocsNow() { return 0; }
