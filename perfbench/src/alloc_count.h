// Heap allocation counting for the benchmark driver: a replacement global
// operator new bumps a per-thread counter, so the allocations of one
// executor call are the counter's delta across the call on its thread.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations (operator new / new[]) made by the calling thread so far.
std::uint64_t thread_allocations();

}  // namespace perfbench
