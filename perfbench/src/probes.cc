#include "probes.h"

#include <functional>

#include "alloc_count.h"
#include "conformance/fault.h"
#include "conformance/schedule.h"
#include "dns/message.h"
#include "dns/name.h"
#include "dns/rr.h"
#include "simnet/event_loop.h"
#include "simnet/ip.h"
#include "trace.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace perfbench {

namespace dns = lazyeye::dns;
namespace conf = lazyeye::conformance;
using lazyeye::SplitMix64;

namespace {

constexpr std::size_t kInputs = 256;

/// Repeats `body` (one round) until `budget_ns` has passed; returns the
/// elapsed time and the number of rounds.
std::pair<std::uint64_t, std::uint64_t> timed_rounds(
    std::uint64_t budget_ns, const std::function<void()>& body) {
  const std::uint64_t start = now_ns();
  std::uint64_t rounds = 0;
  std::uint64_t elapsed = 0;
  do {
    body();
    ++rounds;
    elapsed = now_ns() - start;
  } while (elapsed < budget_ns);
  return {elapsed, rounds};
}

/// A/AAAA responses shaped like the testbed's: the qname-encoded test name,
/// the real server address plus one decoy per family.
std::vector<dns::DnsMessage> testbed_responses() {
  const dns::DnsName name = dns::DnsName::must_parse("r17.cad.he-test.lab");
  std::vector<dns::DnsMessage> out;
  for (const auto type : {dns::RrType::kA, dns::RrType::kAaaa}) {
    dns::DnsMessage msg = dns::DnsMessage::make_response(
        dns::DnsMessage::make_query(0x4a11, name, type));
    msg.header.aa = true;
    for (const char* addr : type == dns::RrType::kA
                                ? std::vector<const char*>{"10.0.0.80", "10.0.0.81"}
                                : std::vector<const char*>{"2001:db8::80",
                                                           "2001:db8::81"}) {
      const auto ip = lazyeye::simnet::IpAddress::must_parse(addr);
      msg.answers.push_back(type == dns::RrType::kA
                                ? dns::ResourceRecord::a(name, ip.v4())
                                : dns::ResourceRecord::aaaa(name, ip.v6()));
    }
    out.push_back(std::move(msg));
  }
  return out;
}

struct DecodeInputs {
  const char* name;
  std::vector<std::vector<std::uint8_t>> wires;
};

std::vector<DecodeInputs> decode_inputs(std::uint64_t seed) {
  std::vector<std::vector<std::uint8_t>> clean;
  for (const dns::DnsMessage& msg : testbed_responses()) {
    clean.push_back(msg.encode());
  }
  std::vector<DecodeInputs> sets = {
      {"clean", {}}, {"truncated", {}}, {"corrupt", {}}, {"garbage", {}}};
  SplitMix64 rng{seed ^ 0xdec0de5eedULL};
  for (std::size_t i = 0; i < kInputs; ++i) {
    const std::vector<std::uint8_t>& base = clean[i % clean.size()];
    sets[0].wires.push_back(base);
    std::vector<std::uint8_t> truncated = base;
    conf::truncate_wire(truncated, rng);
    sets[1].wires.push_back(std::move(truncated));
    std::vector<std::uint8_t> corrupt = base;
    conf::corrupt_wire(corrupt, rng);
    sets[2].wires.push_back(std::move(corrupt));
    sets[3].wires.push_back(conf::garbage_wire(rng));
  }
  return sets;
}

void probe_decode(std::uint64_t seed, std::uint64_t budget_ns,
                  MetricValues& out) {
  for (const DecodeInputs& set : decode_inputs(seed)) {
    Span span{SpanName::kProbeDnsDecode, kNoCell};
    dns::DnsMessage msg;  // reused, as the stub resolver's pooled message is
    const auto pass = [&] {
      for (const auto& wire : set.wires) {
        (void)dns::DnsMessage::decode_into(wire, msg);
      }
    };
    pass();  // first-use growth of the reused message
    const std::uint64_t allocs = thread_allocations();
    pass();
    out[std::string{"dns.decode_allocs."} + set.name] =
        static_cast<double>(thread_allocations() - allocs) /
        static_cast<double>(set.wires.size());
    const auto [elapsed, rounds] = timed_rounds(budget_ns, pass);
    out[std::string{"dns.decode_ns."} + set.name] =
        static_cast<double>(elapsed) /
        static_cast<double>(rounds * set.wires.size());
  }
}

void probe_encode(std::uint64_t budget_ns, MetricValues& out) {
  Span span{SpanName::kProbeDnsEncode, kNoCell};
  // A referral-shaped response: answers, NS authority and glue, so name
  // compression has suffixes to share.
  std::vector<dns::DnsMessage> messages = testbed_responses();
  const dns::DnsName zone = dns::DnsName::must_parse("he-test.lab");
  const dns::DnsName ns = dns::DnsName::must_parse("ns1.he-test.lab");
  for (dns::DnsMessage& msg : messages) {
    msg.authorities.push_back(dns::ResourceRecord::ns(zone, ns));
    msg.additionals.push_back(dns::ResourceRecord::a(
        ns, lazyeye::simnet::IpAddress::must_parse("10.0.0.53").v4()));
    msg.additionals.push_back(dns::ResourceRecord::aaaa(
        ns, lazyeye::simnet::IpAddress::must_parse("2001:db8::53").v6()));
  }
  std::vector<std::uint8_t> wire;
  dns::NameCompressor compressor;
  const auto [elapsed, rounds] = timed_rounds(budget_ns, [&] {
    for (const dns::DnsMessage& msg : messages) {
      wire.clear();
      lazyeye::ByteWriter writer{wire};
      msg.encode_into(writer, compressor);
    }
  });
  out["dns.encode_ns"] = static_cast<double>(elapsed) /
                         static_cast<double>(rounds * messages.size());
}

/// Delays of one loop: `far_share` of them beyond the wheel's ~2.1 s
/// horizon (up to `far_ms`), the rest spread over [0, near_ms).
std::vector<lazyeye::SimTime> event_delays(std::uint64_t seed, int events,
                                           std::uint64_t near_ms,
                                           double far_share,
                                           std::uint64_t far_ms) {
  SplitMix64 rng{seed ^ (0xe7e47ULL * static_cast<std::uint64_t>(events))};
  std::vector<lazyeye::SimTime> delays;
  for (int i = 0; i < events; ++i) {
    const bool far = static_cast<double>(rng.next() % 1000) < far_share * 1000;
    const std::uint64_t us = far ? 2200000 + rng.next() % (far_ms * 1000 - 2200000)
                                 : rng.next() % (near_ms * 1000);
    delays.push_back(lazyeye::us(static_cast<std::int64_t>(us)));
  }
  return delays;
}

bool probe_events(std::uint64_t seed, std::uint64_t budget_ns,
                  MetricValues& out, std::string& error) {
  struct Shape {
    int events;
    std::uint64_t near_ms;
    double far_share;
    std::uint64_t far_ms;
  };
  // Assumed shapes, not measured ones: ~25 events within 400 ms for a
  // testbed cell; hundreds to thousands over seconds, some past the wheel's
  // horizon, for web-tool repetitions and resolver cells.
  for (const Shape& shape : {Shape{25, 400, 0.0, 0}, Shape{250, 2000, 0.3, 5000},
                             Shape{2500, 2000, 0.1, 30000}}) {
    Span span{SpanName::kProbeEventLoop, kNoCell};
    const auto delays = event_delays(seed, shape.events, shape.near_ms,
                                     shape.far_share, shape.far_ms);
    std::uint64_t fired = 0;
    const auto [elapsed, rounds] = timed_rounds(budget_ns, [&] {
      lazyeye::simnet::EventLoop loop;
      for (const lazyeye::SimTime when : delays) {
        loop.schedule_at(when, [&fired] { ++fired; });
      }
      loop.run();
    });
    if (fired != rounds * delays.size()) {
      error = "event loop probe lost events";
      return false;
    }
    out["simnet.event_ns." + std::to_string(shape.events)] =
        static_cast<double>(elapsed) /
        static_cast<double>(rounds * delays.size());
  }
  return true;
}

bool probe_schedule_codec(std::uint64_t seed,
                          const std::vector<std::string>& corpus_hex,
                          std::uint64_t budget_ns, MetricValues& out,
                          std::string& error) {
  Span span{SpanName::kProbeScheduleCodec, kNoCell};
  std::vector<conf::FaultSchedule> schedules;
  for (const std::string& hex : corpus_hex) {
    auto schedule = conf::schedule_from_hex(hex);
    if (!schedule) {
      error = "hunt corpus entry does not decode: " + hex;
      return false;
    }
    schedules.push_back(std::move(*schedule));
  }
  // An empty corpus still measures the codec, on generated schedules.
  for (std::uint32_t i = 0; schedules.size() < 8; ++i) {
    schedules.push_back(conf::FaultSchedule::generate(seed, 0xC0DE, i));
  }
  bool round_trips = true;
  const auto [elapsed, rounds] = timed_rounds(budget_ns, [&] {
    for (const conf::FaultSchedule& s : schedules) {
      const auto back = conf::schedule_from_hex(conf::schedule_to_hex(s));
      round_trips = round_trips && back && *back == s;
    }
  });
  if (!round_trips) {
    error = "schedule hex codec does not round-trip";
    return false;
  }
  out["conformance.schedule_codec_ns"] =
      static_cast<double>(elapsed) /
      static_cast<double>(rounds * schedules.size());
  return true;
}

}  // namespace

bool run_probes(std::uint64_t seed, const std::vector<std::string>& corpus_hex,
                std::uint64_t budget_ns, MetricValues& out, std::string& error) {
  probe_decode(seed, budget_ns, out);
  probe_encode(budget_ns, out);
  return probe_events(seed, budget_ns, out, error) &&
         probe_schedule_codec(seed, corpus_hex, budget_ns, out, error);
}

}  // namespace perfbench
