// Seeded malformed-wire corpus shared by the DNS codec tests.
//
// Testbed-shaped A/AAAA responses (the answers the local testbed's
// authoritative server sends for "<nonce>.[<delay>.]cad.he-test.lab") are
// fed through the conformance layer's own wire mutators
// (conformance/fault.h), followed by garbage datagrams. Everything derives
// from one SplitMix64 stream, so a failing member replays from its seed and
// iteration.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "conformance/fault.h"
#include "dns/message.h"
#include "dns/test_params.h"
#include "simnet/ip.h"
#include "util/rng.h"
#include "util/time.h"

namespace lazyeye::dns::corpus {

/// A testbed answer: question `<nonce>.[d<ms>-aaaa.]cad.he-test.lab` of
/// `type`, answered with `count` addresses of that family.
inline DnsMessage testbed_response(std::uint64_t nonce, RrType type,
                                   int count, bool delayed) {
  static const DnsName stem = DnsName::must_parse("cad.he-test.lab");
  std::map<RrType, SimTime> delays;
  if (delayed) delays[RrType::kAaaa] = lazyeye::ms(50 * (1 + nonce % 8));
  const DnsName name = make_test_name(stem, std::to_string(nonce), delays);
  DnsMessage msg = DnsMessage::make_response(
      DnsMessage::make_query(static_cast<std::uint16_t>(nonce), name, type,
                             /*recursion_desired=*/true),
      Rcode::kNoError);
  msg.header.aa = true;
  for (int i = 0; i < count; ++i) {
    if (type == RrType::kA) {
      msg.answers.push_back(ResourceRecord::a(
          name, simnet::Ipv4Address{0x0A000050u + static_cast<std::uint32_t>(i)}));
    } else {
      simnet::Ipv6Address v6 = *simnet::Ipv6Address::parse("2001:db8::80");
      v6.bytes[15] = static_cast<std::uint8_t>(0x80 + i);
      msg.answers.push_back(ResourceRecord::aaaa(name, v6));
    }
  }
  return msg;
}

/// Calls `fn(std::span<const std::uint8_t>)` on `per_mutator` truncated,
/// then `per_mutator` corrupted testbed responses, then `per_mutator`
/// garbage datagrams. A pure function of `seed`.
template <typename Fn>
void for_each_mutated_wire(std::uint64_t seed, int per_mutator, Fn&& fn) {
  SplitMix64 rng{seed};
  const auto pristine = [&rng] {
    const std::uint64_t pick = rng.next();
    return testbed_response(pick % 100000,
                            (pick >> 20) % 2 == 0 ? RrType::kA : RrType::kAaaa,
                            1 + static_cast<int>((pick >> 24) % 3),
                            (pick >> 28) % 2 == 0)
        .encode();
  };
  for (int i = 0; i < per_mutator; ++i) {
    std::vector<std::uint8_t> wire = pristine();
    conformance::truncate_wire(wire, rng);
    fn(std::span<const std::uint8_t>{wire});
  }
  for (int i = 0; i < per_mutator; ++i) {
    std::vector<std::uint8_t> wire = pristine();
    conformance::corrupt_wire(wire, rng);
    fn(std::span<const std::uint8_t>{wire});
  }
  for (int i = 0; i < per_mutator; ++i) {
    const std::vector<std::uint8_t> wire = conformance::garbage_wire(rng);
    fn(std::span<const std::uint8_t>{wire});
  }
}

}  // namespace lazyeye::dns::corpus
