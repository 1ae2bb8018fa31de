// Layer probes of the traced run: direct calls into one layer's public
// functions on inputs shaped like the workloads' own traffic.
//
//   dns.decode_ns.*, dns.decode_allocs.*  DnsMessage::decode_into on A/AAAA
//       responses shaped like the testbed's, clean and mutated by the fault
//       layer's truncate_wire / corrupt_wire / garbage_wire.
//   dns.encode_ns                         encode_into with a NameCompressor.
//   simnet.event_ns.{25,250,2500}         EventLoop schedule_at + run, per
//       event, on synthetic loops: 25 near events, and 250 / 2500 with a
//       share of timers beyond the wheel's horizon. These sizes and shares
//       are assumptions, not measured from the workloads' cells (no public
//       function exposes a cell's EventLoop counters).
//   conformance.schedule_codec_ns         schedule_to_hex -> schedule_from_hex
//       over a hunt corpus.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.h"

namespace perfbench {

/// Runs every probe for about `budget_ns` each; inputs derive from `seed`.
/// Returns false (with `error` set) when a probe's own check fails.
bool run_probes(std::uint64_t seed, const std::vector<std::string>& corpus_hex,
                std::uint64_t budget_ns, MetricValues& out, std::string& error);

}  // namespace perfbench
