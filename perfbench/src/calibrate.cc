#include "calibrate.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "trace.h"

namespace perfbench {

namespace {

constexpr std::size_t kOps = 1u << 15;    // bytecode, 32 KiB
constexpr std::size_t kData = 1u << 15;   // 8-byte words, 256 KiB
constexpr std::size_t kKeys = 1u << 13;   // sorted keys, 32 KiB
constexpr int kRounds = 2;                // passes over the bytecode

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

struct Buffers {
  std::vector<std::uint8_t> ops;
  std::vector<std::uint64_t> data;
  std::vector<std::uint32_t> keys;
  std::vector<std::uint32_t> sorted;

  Buffers() : ops(kOps), data(kData), keys(kKeys), sorted(kKeys) {
    std::uint64_t x = 88172645463325252ULL;
    for (std::uint8_t& op : ops) op = static_cast<std::uint8_t>(xorshift(x) % 8);
    for (std::uint64_t& word : data) word = xorshift(x);
    for (std::uint32_t& key : keys) key = static_cast<std::uint32_t>(xorshift(x));
  }
};

volatile std::uint64_t g_sink = 0;

}  // namespace

std::uint64_t calibration_ns() {
  static Buffers buffers;
  const std::uint64_t start = thread_cpu_ns();
  // Random opcodes: an indirect branch the predictor mostly misses, a
  // data-dependent branch, and loads from the table. Inputs are fixed and
  // the table is only read, so every call does the same work.
  std::uint64_t a = 1;
  std::uint64_t b = 2;
  std::uint64_t c = 3;
  for (int round = 0; round < kRounds; ++round) {
    for (const std::uint8_t op : buffers.ops) {
      switch (op) {
        case 0: a += b; break;
        case 1: b ^= a >> 3; break;
        case 2: c = c * 31 + a; break;
        case 3: a = (a << 5) | (a >> 59); break;
        case 4: b += buffers.data[c & (kData - 1)]; break;
        case 5: c ^= b; break;
        case 6:
          if (a & 1) {
            b -= c;
          } else {
            c -= b;
          }
          break;
        default: a ^= c + 7; break;
      }
    }
  }
  std::copy(buffers.keys.begin(), buffers.keys.end(), buffers.sorted.begin());
  std::sort(buffers.sorted.begin(), buffers.sorted.end());
  g_sink = a + b + c + buffers.sorted[kKeys / 2];
  return thread_cpu_ns() - start;
}

}  // namespace perfbench
