#include "conformance/checker.h"

#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "capture/analysis.h"
#include "clients/client.h"
#include "dns/auth_server.h"
#include "dns/test_params.h"
#include "simnet/network.h"
#include "transport/quic.h"
#include "transport/tcp.h"
#include "util/strings.h"

namespace lazyeye::conformance {

using simnet::Family;
using simnet::IpAddress;

int ConformanceRecord::violations() const {
  int n = 0;
  for (const Verdict& v : verdicts) {
    if (v.outcome == RuleOutcome::kViolate) ++n;
  }
  return n;
}

std::string ConformanceRecord::symbols() const {
  std::string out;
  out.reserve(verdicts.size());
  for (const Verdict& v : verdicts) out.push_back(rule_outcome_symbol(v.outcome));
  return out;
}

ConformanceHarness::ConformanceHarness(ConformanceOptions options)
    : options_{options} {
  for (int i = 1; i <= options_.decoys_per_family; ++i) {
    decoys_.emplace_back(
        *simnet::Ipv4Address::parse(lazyeye::str_format("10.99.0.%d", i)),
        *simnet::Ipv6Address::parse(
            lazyeye::str_format("2001:db8:dead::%d", i)));
  }
}

campaign::ScenarioSpec ConformanceHarness::case_spec(
    const clients::ClientProfile& profile, const FaultPlan& plan,
    int fetches) const {
  campaign::ScenarioSpec spec;
  // The plan IS the replay handle: deriving the cell seed from it (and
  // nothing else) is what makes `example_conformance_probe` reproduce a
  // campaign cell bit-for-bit from the one-line repro.
  spec.seed = plan.rng_seed();
  spec.id = plan.index;
  spec.repetition = 0;
  spec.grid_index = static_cast<int>(plan.kind);
  spec.client = profile.display_name();
  spec.payload = campaign::ConformanceCase{plan, fetches};
  spec.label = lazyeye::str_format("conf %s %s", spec.client.c_str(),
                                   fault_kind_name(plan.kind));
  return spec;
}

campaign::ScenarioSpec ConformanceHarness::schedule_spec(
    const clients::ClientProfile& profile, const FaultSchedule& schedule,
    int fetches) const {
  campaign::ScenarioSpec spec;
  // Like case_spec: the schedule is the whole replay handle. rng_seed()
  // folds the entry content, so a mutated schedule runs a distinct world
  // while equal schedules always collide onto the same one.
  spec.seed = schedule.rng_seed();
  spec.id = schedule.index;
  spec.repetition = 0;
  spec.grid_index = static_cast<int>(schedule.entries.size());
  spec.client = profile.display_name();
  spec.payload = campaign::ScheduleCase{schedule, fetches};
  spec.label = lazyeye::str_format("sched %s n=%zu", spec.client.c_str(),
                                   schedule.entries.size());
  return spec;
}

std::vector<campaign::ScenarioSpec> ConformanceHarness::differential_specs(
    const std::vector<clients::ClientProfile>& profiles,
    int repetitions) const {
  std::vector<campaign::ScenarioSpec> specs;
  specs.reserve(all_fault_kinds().size() * profiles.size() *
                static_cast<std::size_t>(repetitions));
  std::uint64_t id = 0;
  for (const FaultKind kind : all_fault_kinds()) {
    std::uint32_t index = 0;
    for (const clients::ClientProfile& profile : profiles) {
      for (int rep = 0; rep < repetitions; ++rep) {
        FaultPlan plan;
        plan.kind = kind;
        plan.seed = options_.seed;
        plan.stream = static_cast<std::uint32_t>(kind);
        plan.index = index++;
        campaign::ScenarioSpec spec = case_spec(profile, plan, /*fetches=*/2);
        spec.id = id++;
        spec.repetition = rep;
        specs.push_back(std::move(spec));
      }
    }
  }
  return specs;
}

namespace {

/// The cell's isolated world: two dual-stack nodes, echo web server, auth
/// DNS, the schedule injector attached to the server's stacks, capture on
/// the client node. Mirrors testbed::build_scenario, plus the injector.
struct World {
  // Lease first: released (arena reset) after every raw pointer below is
  // dead. The arena destroys capture, client, injector, servers, then the
  // Network — the same reverse-creation order the old unique_ptr members
  // produced.
  simnet::WorldLease lease;
  simnet::Network* net = nullptr;
  simnet::Host* client_host = nullptr;
  simnet::Host* server_host = nullptr;
  transport::TcpStack* server_tcp = nullptr;
  transport::QuicStack* server_quic = nullptr;
  dns::AuthServer* auth = nullptr;
  ScheduleInjector* injector = nullptr;
  clients::SimulatedClient* client = nullptr;
  capture::PacketCapture* capture = nullptr;
  dns::DnsName name;
};

std::unique_ptr<World> build_world(
    const clients::ClientProfile& profile, const ConformanceOptions& options,
    const std::vector<std::pair<simnet::Ipv4Address, simnet::Ipv6Address>>&
        decoys,
    std::span<const TimedFault> faults, std::uint64_t cell_seed) {
  // Fixed world literals parsed once per process, not once per cell.
  static const IpAddress server_v4 = IpAddress::must_parse("10.0.0.80");
  static const IpAddress server_v6 = IpAddress::must_parse("2001:db8::80");
  static const IpAddress client_v4 = IpAddress::must_parse("10.0.0.2");
  static const IpAddress client_v6 = IpAddress::must_parse("2001:db8::2");
  static const dns::DnsName zone_origin = dns::DnsName::must_parse("conf.lab");
  static const dns::DnsName name_stem =
      dns::DnsName::must_parse("run.conf.lab");

  auto w = std::make_unique<World>();
  simnet::Arena& arena = w->lease.arena();
  w->net = arena.create<simnet::Network>(w->lease.memory(),
                                         options.seed * 7919 + cell_seed);

  w->server_host = &w->net->add_host("server");
  w->server_host->add_address(server_v4);
  w->server_host->add_address(server_v6);
  w->client_host = &w->net->add_host("client");
  w->client_host->add_address(client_v4);
  w->client_host->add_address(client_v6);

  w->server_tcp = arena.create<transport::TcpStack>(*w->server_host);
  w->server_tcp->listen(443, [](std::uint64_t, const simnet::Endpoint&) {});
  w->server_tcp->set_data_handler(
      [wp = w.get()](std::uint64_t conn_id, std::span<const std::uint8_t>) {
        const std::string body = "ok";
        wp->server_tcp->send_data(
            conn_id, std::vector<std::uint8_t>{body.begin(), body.end()});
      });
  w->server_quic = arena.create<transport::QuicStack>(*w->server_host);
  w->server_quic->listen(443);
  w->server_quic->set_data_handler(
      [wp = w.get()](std::uint64_t conn_id, std::span<const std::uint8_t>) {
        const std::string body = "ok";
        wp->server_quic->send_data(
            conn_id, std::vector<std::uint8_t>{body.begin(), body.end()});
      });

  w->auth = arena.create<dns::AuthServer>(*w->server_host);
  dns::Zone& zone = w->auth->add_zone(zone_origin);

  const auto nonce =
      lazyeye::str_format("%llu", static_cast<unsigned long long>(cell_seed));
  w->name = dns::make_test_name(name_stem, nonce, {});
  // Real server first (clients that honour record order try it first), then
  // unresponsive decoys so interleaving/abandonment have observable choices.
  zone.add_a(w->name, server_v4.v4());
  zone.add_aaaa(w->name, server_v6.v6());
  for (const auto& [v4, v6] : decoys) {
    zone.add_a(w->name, v4);
    zone.add_aaaa(w->name, v6);
  }

  w->injector = arena.create<ScheduleInjector>(faults, w->net->loop(), &arena);
  w->injector->attach(*w->auth);
  w->injector->attach(*w->server_tcp);
  w->injector->attach(*w->server_quic);

  static const std::vector<simnet::Endpoint> dns_servers{{server_v4, 53}};
  dns::StubOptions stub_options;
  stub_options.servers = dns_servers;
  w->client = arena.create<clients::SimulatedClient>(
      *w->client_host, profile, stub_options, options.seed * 31 + cell_seed);
  w->client->reset_state();  // fresh container per cell

  w->capture = arena.create<capture::PacketCapture>(*w->client_host);
  return w;
}

}  // namespace

ConformanceRecord ConformanceHarness::run_spec(
    const clients::ClientProfile& profile,
    const campaign::ScenarioSpec& spec) const {
  const auto* cell = spec.get_if<campaign::ScheduleCase>();
  if (cell == nullptr) return run_cell(profile, spec);
  std::optional<ConformanceRecord> shared;
  {
    util::MutexLock lock{shared_mutex_};
    for (const SharedCell& c : shared_) {
      if (c.seed == spec.seed && c.record.fetches == cell->fetches &&
          *c.record.schedule == cell->schedule &&
          c.profile.same_behaviour(profile)) {
        shared = c.record;
        break;
      }
    }
  }
  if (shared) {
    shared->client = profile.display_name();
    return std::move(*shared);
  }
  ConformanceRecord record = run_cell(profile, spec);
  SharedCell kept{spec.seed, profile, record};
  util::MutexLock lock{shared_mutex_};
  if (shared_.size() < kSharedCells) {
    shared_.push_back(std::move(kept));
  } else {
    shared_[shared_next_] = std::move(kept);
    shared_next_ = (shared_next_ + 1) % kSharedCells;
  }
  return record;
}

ConformanceRecord ConformanceHarness::run_cell(
    const clients::ClientProfile& profile,
    const campaign::ScenarioSpec& spec) const {
  ConformanceRecord record;
  // A single fault is a one-entry schedule: trigger kNone, start 0, open
  // window — active for the whole run, seeded from the plan's rng_seed().
  TimedFault single;
  std::span<const TimedFault> faults;
  int fetches = 1;
  if (const auto* cell = spec.get_if<campaign::ConformanceCase>()) {
    record.fault = cell->fault;
    single.plan = cell->fault;
    faults = {&single, 1};
    fetches = cell->fetches;
  } else if (const auto* cell2 = spec.get_if<campaign::ScheduleCase>()) {
    record.schedule = cell2->schedule;
    faults = cell2->schedule.entries;
    fetches = cell2->fetches;
  } else {
    throw std::invalid_argument(
        lazyeye::str_format("ConformanceHarness::run_cell: unsupported case %s",
                            campaign::case_name(spec.payload)));
  }
  auto w = build_world(profile, options_, decoys_, faults, spec.seed);

  clients::FetchResult first_fetch;
  clients::FetchResult last_fetch;
  bool first_done = false;
  SimTime first_completed{0};
  // The restart (second fetch) runs in the same client session — no
  // reset_state() — so the engine's RFC 6555 §4.1 winner cache applies and
  // the restart-cache rule can observe whether DNS is re-queried.
  w->client->fetch(w->name, 443, [&](clients::FetchResult r) {
    first_fetch = r;
    last_fetch = std::move(r);
    first_done = true;
    first_completed = w->net->loop().now();
    if (fetches >= 2) {
      w->client->fetch(w->name, 443, [&](clients::FetchResult r2) {
        last_fetch = std::move(r2);
      });
    }
  });
  w->net->loop().run();

  RuleContext ctx;
  ctx.fetches = fetches;
  ctx.first_fetch_ok =
      first_done && first_fetch.connection.ok && first_fetch.response_received;
  ctx.first_fetch_completed = first_completed;
  ctx.v4_candidates = 1 + options_.decoys_per_family;
  ctx.v6_candidates = 1 + options_.decoys_per_family;

  const capture::PacketCapture& cap = *w->capture;
  ctx.dns = capture::dns_exchanges(cap);
  ctx.attempts = capture::connection_attempts(cap);
  ctx.established = capture::established_family(cap);
  ctx.established_time = capture::first_established_time(cap);
  // ctx.dns already decoded every DNS packet once; reuse it.
  ctx.first_a_response = capture::first_response_time(ctx.dns, dns::RrType::kA);
  ctx.first_aaaa_response =
      capture::first_response_time(ctx.dns, dns::RrType::kAaaa);
  ctx.first_v4_syn = capture::first_syn_time(cap, Family::kIpv4);
  ctx.first_v6_syn = capture::first_syn_time(cap, Family::kIpv6);

  record.client = profile.display_name();
  record.fetches = fetches;
  record.fetch_ok = last_fetch.connection.ok && last_fetch.response_received;
  record.first_fetch_ok = ctx.first_fetch_ok;
  record.verdicts = evaluate_rules(ctx);
  return record;
}

ConformanceRecord ConformanceHarness::replay(
    const clients::ClientProfile& profile, const FaultPlan& plan,
    int fetches) const {
  return run_spec(profile, case_spec(profile, plan, fetches));
}

ConformanceRecord ConformanceHarness::replay_schedule(
    const clients::ClientProfile& profile, const FaultSchedule& schedule,
    int fetches) const {
  return run_spec(profile, schedule_spec(profile, schedule, fetches));
}

// ---- VerdictTableSink ------------------------------------------------------

void VerdictTableSink::begin(std::size_t cells_total) {
  text_.clear();
  total_violations_ = 0;
  cells_ = 0;
  text_ += "conformance verdict table (";
  for (std::size_t i = 0; i < rfc8305_rules().size(); ++i) {
    if (i > 0) text_ += ", ";
    text_ += rfc8305_rules()[i].name;
  }
  text_ += lazyeye::str_format(") — %zu cells\n", cells_total);
  text_ += lazyeye::str_format("%-28s %-18s %-7s %s\n", "client", "fault",
                               "rules", "fetch");
}

void VerdictTableSink::cell(const campaign::ScenarioSpec& spec,
                            ConformanceRecord record) {
  (void)spec;
  ++cells_;
  const std::string fault_column =
      record.schedule
          ? lazyeye::str_format("schedule[%zu]", record.schedule->entries.size())
          : std::string{fault_kind_name(record.fault.kind)};
  text_ += lazyeye::str_format(
      "%-28s %-18s %-7s %s\n", record.client.c_str(), fault_column.c_str(),
      record.symbols().c_str(), record.fetch_ok ? "ok" : "fail");
  for (const Verdict& v : record.verdicts) {
    if (v.outcome != RuleOutcome::kViolate) continue;
    ++total_violations_;
    text_ += lazyeye::str_format("    V %s: %s\n", v.rule.c_str(),
                                 v.evidence.c_str());
    if (record.schedule) {
      const FaultSchedule& s = *record.schedule;
      // Triple form when the schedule is its triple's generate() output;
      // hex form (always exact) for mutated/minimized schedules.
      if (s == FaultSchedule::generate(s.seed, s.stream, s.index)) {
        text_ += lazyeye::str_format(
            "      repro: ./build/example_conformance_probe \"%s\" "
            "--schedule %llu %u %u\n",
            record.client.c_str(), static_cast<unsigned long long>(s.seed),
            static_cast<unsigned>(s.stream), static_cast<unsigned>(s.index));
      } else {
        text_ += lazyeye::str_format(
            "      repro: ./build/example_conformance_probe \"%s\" "
            "--schedule-hex %s\n",
            record.client.c_str(), schedule_to_hex(s).c_str());
      }
      continue;
    }
    text_ += lazyeye::str_format(
        "      repro: ./build/example_conformance_probe \"%s\" %s %llu %u %u\n",
        record.client.c_str(), fault_kind_name(record.fault.kind),
        static_cast<unsigned long long>(record.fault.seed),
        static_cast<unsigned>(record.fault.stream),
        static_cast<unsigned>(record.fault.index));
  }
}

void VerdictTableSink::end() {
  text_ += lazyeye::str_format("total violations: %d across %zu cells\n",
                               total_violations_, cells_);
}

}  // namespace lazyeye::conformance
