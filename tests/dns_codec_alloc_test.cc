// DNS decode allocation gate: decoding a wire costs O(wire bytes) in memory.
//
// A header's 16-bit section counts are untrusted input. Decoding must check
// them against the bytes that follow before sizing any section, or one
// corrupted 12-byte header default-constructs up to 4x65535 records (and the
// thread-local MessagePool keeps that capacity). Like cell_alloc_test, the
// gate counts global operator new calls rather than timing anything, so it is
// deterministic on any runner and under sanitizers.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dns/message.h"
#include "dns_wire_corpus.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lazyeye::dns {
namespace {

// Heap allocations one decode may make per wire byte. Every allocation is
// a section vector, a name's label vector, a label longer than the string's
// inline buffer, or rdata storage; compression pointers let a 2-byte name
// reference a long one, so the bound is a small constant rather than one.
// The corpus below peaks near 0.2 per byte.
constexpr std::uint64_t kAllocsPerWireByte = 2;

std::size_t section_capacity(const DnsMessage& msg) {
  return msg.questions.capacity() + msg.answers.capacity() +
         msg.authorities.capacity() + msg.additionals.capacity();
}

// Decodes into a fresh message; returns the allocations the decode made.
std::uint64_t counted_decode(std::span<const std::uint8_t> wire,
                             DnsMessage& out, bool& ok) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  ok = DnsMessage::decode_into(wire, out);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(DnsCodecAllocTest, MaximalHeaderCountsAllocateNothing) {
  // Section k's count and every later one are 0xFFFF, the earlier ones 0,
  // so decoding fails in section k. k = 0 is the all-0xFFFF header.
  const char* const kErrors[] = {"truncated question",
                                 "truncated answer section",
                                 "truncated authority section",
                                 "truncated additional section"};
  for (int section = 0; section < 4; ++section) {
    std::vector<std::uint8_t> header(12, 0);
    for (int k = section; k < 4; ++k) {
      header[4 + 2 * k] = 0xFF;
      header[5 + 2 * k] = 0xFF;
    }
    DnsMessage scratch;
    bool ok = true;
    EXPECT_EQ(counted_decode(header, scratch, ok), 0u) << kErrors[section];
    EXPECT_FALSE(ok);
    EXPECT_EQ(section_capacity(scratch), 0u) << kErrors[section];

    const auto decoded = DnsMessage::decode(header);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error(), kErrors[section]);
  }
}

TEST(DnsCodecAllocTest, MutatedWiresAllocateInProportionToTheirSize) {
  int decoded = 0;
  int checked = 0;
  std::uint64_t worst_allocs = 0;
  corpus::for_each_mutated_wire(0xA110C, 4000, [&](auto wire) {
    DnsMessage scratch;
    bool ok = false;
    const std::uint64_t allocs = counted_decode(wire, scratch, ok);
    ++checked;
    decoded += ok ? 1 : 0;
    worst_allocs = std::max(worst_allocs, allocs);
    EXPECT_LE(allocs, kAllocsPerWireByte * wire.size())
        << "corpus member " << checked << " (" << wire.size() << " bytes)";
    EXPECT_LE(section_capacity(scratch), wire.size() / 5)
        << "corpus member " << checked << " (" << wire.size() << " bytes)";
  });
  EXPECT_EQ(checked, 3 * 4000);
  // The corpus must still reach the section decoders, not just the header.
  EXPECT_GT(decoded, 100);
  EXPECT_GT(worst_allocs, 0u);
}

}  // namespace
}  // namespace lazyeye::dns
