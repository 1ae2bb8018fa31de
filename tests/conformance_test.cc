// Conformance layer tests: seeded fault plans, the interposing hooks on the
// transport/DNS stacks, the RFC 8305 rule evaluations, and the differential
// harness (worker-count determinism + one-line replay).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>

#include "campaign/registry.h"
#include "campaign/runner.h"
#include "clients/profiles.h"
#include "conformance/checker.h"
#include "conformance/fault.h"
#include "conformance/rules.h"
#include "dns/auth_server.h"
#include "dns/client.h"
#include "simnet/network.h"
#include "simnet/scenario_pool.h"
#include "transport/quic.h"
#include "transport/tcp.h"

namespace lazyeye::conformance {
namespace {

using simnet::Family;
using simnet::IpAddress;

// ------------------------------------------------------------ fault plans ----

TEST(FaultPlanTest, SeedIsDeterministicAndSensitiveToEveryTripleField) {
  const FaultPlan base{FaultKind::kTcpReset, 5, 2, 9};
  EXPECT_EQ(base.rng_seed(), FaultPlan(base).rng_seed());

  std::set<std::uint64_t> seeds;
  seeds.insert(base.rng_seed());
  for (FaultPlan p : {FaultPlan{FaultKind::kTcpBlackhole, 5, 2, 9},
                      FaultPlan{FaultKind::kTcpReset, 6, 2, 9},
                      FaultPlan{FaultKind::kTcpReset, 5, 3, 9},
                      FaultPlan{FaultKind::kTcpReset, 5, 2, 10}}) {
    EXPECT_TRUE(seeds.insert(p.rng_seed()).second) << p.repro();
  }
}

TEST(FaultPlanTest, ReproLineAndNameRoundTrip) {
  const FaultPlan plan{FaultKind::kDnsSpoof, 42, 3, 17};
  EXPECT_EQ(plan.repro(), "fault=dns-spoof seed=42 stream=3 index=17");
  for (const FaultKind kind : all_fault_kinds()) {
    EXPECT_EQ(fault_kind_from_name(fault_kind_name(kind)), kind);
  }
  EXPECT_FALSE(fault_kind_from_name("no-such-fault"));
}

// ------------------------------------------------- transport interposers ----

struct TransportHookFixture : ::testing::Test {
  TransportHookFixture()
      : net{3}, client_host{net.add_host("client")},
        server_host{net.add_host("server")} {
    client_host.add_address(IpAddress::must_parse("10.0.0.1"));
    client_host.add_address(IpAddress::must_parse("2001:db8::1"));
    server_host.add_address(IpAddress::must_parse("10.0.0.2"));
    server_host.add_address(IpAddress::must_parse("2001:db8::2"));
  }

  simnet::Network net;
  simnet::Host& client_host;
  simnet::Host& server_host;
};

TEST_F(TransportHookFixture, TcpResetActionRefusesHandshake) {
  transport::TcpStack client{client_host};
  transport::TcpStack server{server_host};
  server.listen(443);
  server.set_accept_interposer([](const simnet::Endpoint&, std::uint16_t) {
    return transport::AcceptAction::kReset;
  });
  transport::ConnectResult result;
  client.connect({IpAddress::must_parse("10.0.0.2"), 443}, {},
                 [&](const transport::ConnectResult& r) { result = r; });
  net.loop().run();
  EXPECT_FALSE(result.ok);
  // The RST answer makes this a fast refusal, not a retry-until-timeout.
  EXPECT_EQ(net.loop().now(), 2 * net.base_delay());
}

TEST_F(TransportHookFixture, TcpDropActionBlackholesTheSyn) {
  transport::TcpStack client{client_host};
  transport::TcpStack server{server_host};
  server.listen(443);
  int calls = 0;
  server.set_accept_interposer([&](const simnet::Endpoint&, std::uint16_t) {
    ++calls;
    return transport::AcceptAction::kDrop;
  });
  transport::ConnectResult result;
  client.connect({IpAddress::must_parse("10.0.0.2"), 443}, {},
                 [&](const transport::ConnectResult& r) { result = r; });
  net.loop().run();
  EXPECT_FALSE(result.ok);
  // Every SYN retransmission hit the interposer and was swallowed.
  EXPECT_GT(calls, 1);
}

TEST_F(TransportHookFixture, TcpAcceptThenResetCompletesThenKills) {
  transport::TcpStack client{client_host};
  transport::TcpStack server{server_host};
  server.listen(443);
  server.set_accept_interposer([](const simnet::Endpoint&, std::uint16_t) {
    return transport::AcceptAction::kAcceptThenReset;
  });
  transport::ConnectResult result;
  bool data_delivered = false;
  client.set_data_handler(
      [&](std::uint64_t, std::span<const std::uint8_t>) {
        data_delivered = true;
      });
  client.connect({IpAddress::must_parse("10.0.0.2"), 443}, {},
                 [&](const transport::ConnectResult& r) {
                   result = r;
                   // The handshake looked fine from the client; data sent
                   // into the chasing RST must go nowhere (conn torn down).
                   client.send_data(r.connection_id, {1, 2, 3});
                 });
  net.loop().run();
  EXPECT_TRUE(result.ok);
  EXPECT_FALSE(data_delivered);
}

TEST_F(TransportHookFixture, QuicDropAndResetActions) {
  for (const auto action : {transport::AcceptAction::kDrop,
                            transport::AcceptAction::kReset}) {
    transport::QuicStack client{client_host};
    transport::QuicStack server{server_host};
    server.listen(443);
    server.set_accept_interposer(
        [action](const simnet::Endpoint&, std::uint16_t) { return action; });
    transport::ConnectResult result;
    bool done = false;
    client.connect({IpAddress::must_parse("10.0.0.2"), 443}, {},
                   [&](const transport::ConnectResult& r) {
                     result = r;
                     done = true;
                   });
    net.loop().run();
    EXPECT_TRUE(done);
    EXPECT_FALSE(result.ok);
  }
}

TEST_F(TransportHookFixture, InterposerReturningAcceptIsTransparent) {
  transport::TcpStack client{client_host};
  transport::TcpStack server{server_host};
  server.listen(443);
  server.set_accept_interposer([](const simnet::Endpoint&, std::uint16_t) {
    return transport::AcceptAction::kAccept;
  });
  transport::ConnectResult result;
  client.connect({IpAddress::must_parse("10.0.0.2"), 443}, {},
                 [&](const transport::ConnectResult& r) { result = r; });
  net.loop().run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.handshake_time(), 2 * net.base_delay());
}

// ------------------------------------------------------ DNS interposer ----

struct DnsHookFixture : ::testing::Test {
  DnsHookFixture()
      : net{7}, client_host{net.add_host("client")},
        server_host{net.add_host("server")} {
    client_host.add_address(IpAddress::must_parse("10.0.0.1"));
    server_host.add_address(IpAddress::must_parse("10.0.0.2"));
    auth = std::make_unique<dns::AuthServer>(server_host);
    dns::Zone& zone = auth->add_zone(dns::DnsName::must_parse("conf.lab"));
    name = dns::DnsName::must_parse("www.conf.lab");
    zone.add_a(name, *simnet::Ipv4Address::parse("10.0.0.2"));
    client = std::make_unique<dns::DnsClient>(client_host);
  }

  dns::QueryOutcome ask(SimTime timeout = sec(2)) {
    dns::QueryOutcome out;
    dns::DnsClientOptions options;
    options.timeout = timeout;
    client->query({IpAddress::must_parse("10.0.0.2"), 53}, name,
                  dns::RrType::kA, options,
                  [&](const dns::QueryOutcome& o) { out = o; });
    net.loop().run();
    return out;
  }

  simnet::Network net;
  simnet::Host& client_host;
  simnet::Host& server_host;
  std::unique_ptr<dns::AuthServer> auth;
  std::unique_ptr<dns::DnsClient> client;
  dns::DnsName name;
};

TEST_F(DnsHookFixture, DropDirectiveSuppressesTheResponse) {
  auth->set_response_interposer([](const dns::DnsMessage&, dns::DnsMessage&,
                                   SimTime&, dns::ResponseDirectives& out) {
    out.drop = true;
  });
  const auto outcome = ask();
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error, "timeout");
}

TEST_F(DnsHookFixture, MutateWireTruncationIsIgnoredByTheClient) {
  FaultPlan plan{FaultKind::kDnsTruncate};
  auto rng = std::make_shared<SplitMix64>(plan.rng_seed());
  auth->set_response_interposer(
      [rng](const dns::DnsMessage&, dns::DnsMessage&, SimTime&,
            dns::ResponseDirectives& out) {
        out.mutate_wire = [rng](std::vector<std::uint8_t>& wire) {
          truncate_wire(wire, *rng);
        };
      });
  const auto outcome = ask();
  // The truncated datagram fails to decode (or decodes to a non-matching
  // message); either way the client never treats it as the answer.
  EXPECT_FALSE(outcome.ok);
}

TEST_F(DnsHookFixture, SpoofedExtraDatagramLosesToTheRealAnswer) {
  bool spoofed = false;
  auth->set_response_interposer(
      [&](const dns::DnsMessage& query, dns::DnsMessage& response, SimTime&,
          dns::ResponseDirectives& out) {
        dns::DnsMessage spoof = response;
        spoof.header.id = static_cast<std::uint16_t>(query.header.id ^ 0x5a5a);
        spoof.answers.clear();
        spoof.answers.push_back(dns::ResourceRecord::a(
            query.questions.front().name,
            *simnet::Ipv4Address::parse("192.0.2.66")));
        out.extra.push_back({spoof.encode(), SimTime{0}});
        spoofed = true;
      });
  const auto outcome = ask();
  ASSERT_TRUE(spoofed);
  ASSERT_TRUE(outcome.ok);
  // The wrong-id spoof was ignored; the genuine answer won.
  const auto addrs = outcome.response.addresses_for(name, dns::RrType::kA);
  ASSERT_EQ(addrs.size(), 1u);
  EXPECT_EQ(addrs[0].to_string(), "10.0.0.2");
}

TEST_F(DnsHookFixture, DelayDirectivePostponesTheAnswer) {
  auth->set_response_interposer([](const dns::DnsMessage&, dns::DnsMessage&,
                                   SimTime& delay,
                                   dns::ResponseDirectives&) {
    delay = delay + ms(150);
  });
  const auto outcome = ask();
  ASSERT_TRUE(outcome.ok);
  EXPECT_GE(outcome.rtt, ms(150));
}

TEST_F(DnsHookFixture, InjectorLeavesHooksUnsetForTransportKinds) {
  FaultSchedule schedule;
  schedule.entries.push_back(TimedFault{FaultPlan{FaultKind::kTcpReset}});
  ScheduleInjector injector{schedule.entries, net.loop()};
  injector.attach(*auth);  // TCP kind: the DNS fast path must stay hook-free
  const auto outcome = ask();
  EXPECT_TRUE(outcome.ok);
}

// ------------------------------------------------------------ rule units ----

capture::ConnectionAttempt attempt(SimTime at, const char* addr,
                                   bool refused = false) {
  capture::ConnectionAttempt a;
  a.first_syn = at;
  a.last_syn = at;
  a.remote = {IpAddress::must_parse(addr), 443};
  a.refused = refused;
  return a;
}

capture::DnsExchange exchange(SimTime at, dns::RrType qtype,
                              std::optional<SimTime> response,
                              std::size_t answers = 1) {
  capture::DnsExchange ex;
  ex.query_time = at;
  ex.qtype = qtype;
  ex.response_time = response;
  ex.answer_count = answers;
  return ex;
}

Verdict verdict_for(const RuleContext& ctx, const std::string& rule) {
  for (const Verdict& v : evaluate_rules(ctx)) {
    if (v.rule == rule) return v;
  }
  ADD_FAILURE() << "no rule named " << rule;
  return {};
}

RuleOutcome verdict_for_record(const ConformanceRecord& record,
                               const std::string& rule) {
  for (const Verdict& v : record.verdicts) {
    if (v.rule == rule) return v.outcome;
  }
  ADD_FAILURE() << "no rule named " << rule;
  return RuleOutcome::kInapplicable;
}

TEST(RuleTest, ResolutionDelayViolatedWhenV4RacesAheadOfAaaa) {
  RuleContext ctx;
  ctx.first_a_response = ms(10);
  ctx.first_v4_syn = ms(20);  // only 10 ms after A, AAAA still outstanding
  EXPECT_EQ(verdict_for(ctx, "resolution-delay").outcome,
            RuleOutcome::kViolate);

  ctx.first_v4_syn = ms(70);  // waited the full 50 ms reference RD
  EXPECT_EQ(verdict_for(ctx, "resolution-delay").outcome, RuleOutcome::kPass);

  ctx.first_aaaa_response = ms(5);  // AAAA answered first: nothing to wait for
  EXPECT_EQ(verdict_for(ctx, "resolution-delay").outcome,
            RuleOutcome::kInapplicable);
}

TEST(RuleTest, AttemptSpacingSkipsGapsAfterRefusedAttempts) {
  RuleContext ctx;
  // 2 ms gap, but the first attempt was refused — RFC 8305 allows moving on
  // immediately, so the gap is exempt and the rule is inapplicable (no
  // racing gap remains to judge).
  ctx.attempts.push_back(attempt(ms(0), "2001:db8::10", /*refused=*/true));
  ctx.attempts.push_back(attempt(ms(2), "10.0.0.10"));
  EXPECT_EQ(verdict_for(ctx, "attempt-spacing").outcome,
            RuleOutcome::kInapplicable);

  // The same 2 ms gap while the first attempt is still pending: violation.
  ctx.attempts[0].refused = false;
  EXPECT_EQ(verdict_for(ctx, "attempt-spacing").outcome,
            RuleOutcome::kViolate);

  // 100 ms gap within [10ms, 2s]: pass.
  ctx.attempts[1].first_syn = ms(100);
  EXPECT_EQ(verdict_for(ctx, "attempt-spacing").outcome, RuleOutcome::kPass);

  // 15 s gap (wget-style serial retry): violation on the maximum bound.
  ctx.attempts[1].first_syn = sec(15);
  EXPECT_EQ(verdict_for(ctx, "attempt-spacing").outcome,
            RuleOutcome::kViolate);
}

TEST(RuleTest, FamilyInterleaveFlagsSameFamilyRuns) {
  RuleContext ctx;
  ctx.v4_candidates = 2;
  ctx.v6_candidates = 2;
  ctx.attempts.push_back(attempt(ms(0), "2001:db8::10"));
  ctx.attempts.push_back(attempt(ms(50), "2001:db8::11"));  // v6 again
  EXPECT_EQ(verdict_for(ctx, "family-interleave").outcome,
            RuleOutcome::kViolate);

  // Alternating families passes.
  ctx.attempts[1] = attempt(ms(50), "10.0.0.10");
  EXPECT_EQ(verdict_for(ctx, "family-interleave").outcome, RuleOutcome::kPass);

  // A same-family run is fine once the other family is exhausted.
  ctx.v4_candidates = 1;
  ctx.attempts.push_back(attempt(ms(100), "2001:db8::11"));
  ctx.attempts.push_back(attempt(ms(150), "2001:db8::12"));
  EXPECT_EQ(verdict_for(ctx, "family-interleave").outcome, RuleOutcome::kPass);
}

TEST(RuleTest, LosingFamilyRequiresBothFamiliesTriedBeforeGivingUp) {
  RuleContext ctx;
  ctx.dns.push_back(exchange(ms(0), dns::RrType::kA, ms(5)));
  ctx.dns.push_back(exchange(ms(0), dns::RrType::kAaaa, ms(5)));
  ctx.attempts.push_back(attempt(ms(10), "2001:db8::10"));
  // Failed overall, only v6 ever tried: premature abandonment of v4.
  EXPECT_EQ(verdict_for(ctx, "losing-family").outcome, RuleOutcome::kViolate);

  ctx.attempts.push_back(attempt(ms(260), "10.0.0.10"));
  EXPECT_EQ(verdict_for(ctx, "losing-family").outcome, RuleOutcome::kPass);

  // An established connection ends the situation.
  ctx.established = Family::kIpv6;
  EXPECT_EQ(verdict_for(ctx, "losing-family").outcome,
            RuleOutcome::kInapplicable);
}

TEST(RuleTest, RestartCacheFlagsRequeriesAfterTheFirstFetch) {
  RuleContext ctx;
  ctx.fetches = 2;
  ctx.first_fetch_ok = true;
  ctx.first_fetch_completed = ms(100);
  ctx.dns.push_back(exchange(ms(0), dns::RrType::kA, ms(5)));
  ctx.dns.push_back(exchange(ms(0), dns::RrType::kAaaa, ms(5)));
  EXPECT_EQ(verdict_for(ctx, "restart-cache").outcome, RuleOutcome::kPass);

  ctx.dns.push_back(exchange(ms(120), dns::RrType::kA, ms(125)));
  EXPECT_EQ(verdict_for(ctx, "restart-cache").outcome, RuleOutcome::kViolate);

  ctx.fetches = 1;
  EXPECT_EQ(verdict_for(ctx, "restart-cache").outcome,
            RuleOutcome::kInapplicable);
}

TEST(RuleTest, AbortOnWinnerFlagsRetransmitsAfterEstablishment) {
  RuleContext ctx;
  ctx.established = Family::kIpv6;
  ctx.established_time = ms(100);
  ctx.attempts.push_back(attempt(ms(0), "2001:db8::10"));
  ctx.attempts[0].established = true;
  ctx.attempts.push_back(attempt(ms(50), "10.0.0.10"));
  // Loser went silent before the winner established: pass.
  EXPECT_EQ(verdict_for(ctx, "abort-on-winner").outcome, RuleOutcome::kPass);

  // Loser retransmitted its SYN 400 ms after the winner completed: the
  // attempt was never aborted.
  ctx.attempts[1].last_syn = ms(500);
  ctx.attempts[1].syn_count = 2;
  EXPECT_EQ(verdict_for(ctx, "abort-on-winner").outcome,
            RuleOutcome::kViolate);
}

TEST(RuleTest, AbortOnWinnerFlagsAttemptsStartedAfterEstablishment) {
  RuleContext ctx;
  ctx.established = Family::kIpv4;
  ctx.established_time = ms(60);
  ctx.attempts.push_back(attempt(ms(0), "10.0.0.10"));
  ctx.attempts[0].established = true;
  // A brand-new attempt opened after the winner: violation.
  ctx.attempts.push_back(attempt(ms(90), "2001:db8::10"));
  EXPECT_EQ(verdict_for(ctx, "abort-on-winner").outcome,
            RuleOutcome::kViolate);
}

TEST(RuleTest, AbortOnWinnerInapplicableWithoutWinnerOrRivals) {
  RuleContext ctx;
  // Never established: the clause never triggers.
  ctx.attempts.push_back(attempt(ms(0), "2001:db8::10"));
  ctx.attempts.push_back(attempt(ms(50), "10.0.0.10"));
  EXPECT_EQ(verdict_for(ctx, "abort-on-winner").outcome,
            RuleOutcome::kInapplicable);

  // Single attempt that won: nothing pending to abort.
  ctx.attempts.clear();
  ctx.attempts.push_back(attempt(ms(0), "2001:db8::10"));
  ctx.attempts[0].established = true;
  ctx.established = Family::kIpv6;
  ctx.established_time = ms(30);
  EXPECT_EQ(verdict_for(ctx, "abort-on-winner").outcome,
            RuleOutcome::kInapplicable);
}

// ------------------------------------------------------------- harness ----

clients::ClientProfile profile_named(const std::string& display) {
  const auto p = clients::find_client_profile(display);
  EXPECT_TRUE(p) << display;
  return *p;
}

TEST(HarnessTest, ControlCellIsCleanForAnHappyEyeballsClient) {
  const ConformanceHarness harness;
  const auto record = harness.replay(profile_named("Chrome 130.0"),
                                     FaultPlan{FaultKind::kNone});
  EXPECT_TRUE(record.fetch_ok);
  EXPECT_EQ(record.violations(), 0) << record.symbols();
  ASSERT_EQ(record.verdicts.size(), rfc8305_rules().size());
}

TEST(HarnessTest, WgetViolatesRestartCacheAndLosingFamily) {
  const ConformanceHarness harness;
  const auto profile = profile_named("wget 1.21.3");

  // No-fault restart: wget re-resolves on the second fetch (no HE winner
  // cache), so the restart-cache rule flags it even in the control cell.
  const auto control = harness.replay(profile, FaultPlan{FaultKind::kNone});
  EXPECT_TRUE(control.fetch_ok);
  EXPECT_EQ(verdict_for_record(control, "restart-cache"),
            RuleOutcome::kViolate);

  // v6 SYNs answered with RSTs: wget retries serially and gives up without
  // ever touching its resolved v4 addresses.
  const auto reset = harness.replay(profile, FaultPlan{FaultKind::kTcpReset});
  EXPECT_FALSE(reset.fetch_ok);
  EXPECT_EQ(verdict_for_record(reset, "losing-family"), RuleOutcome::kViolate);
}

TEST(HarnessTest, ReplayReproducesTheCampaignCell) {
  const ConformanceHarness harness{{.seed = 1}};
  const std::vector<clients::ClientProfile> profiles{
      profile_named("Chrome 130.0"), profile_named("wget 1.21.3")};
  const auto specs = harness.differential_specs(profiles);

  campaign::Registry<ConformanceRecord> registry;
  register_conformance_executor(registry, harness, profiles);
  const auto result =
      registry.run_collect(campaign::CampaignRunner{{.workers = 1}}, specs);

  // Every campaign cell replays bit-for-bit from its (seed, stream, index)
  // triple — the property the verdict table's repro lines rely on.
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    const ConformanceRecord& cell = result.outcomes[i];
    const auto replayed = harness.replay(profile_named(cell.client),
                                         cell.fault, cell.fetches);
    EXPECT_EQ(replayed.symbols(), cell.symbols()) << cell.fault.repro();
    EXPECT_EQ(replayed.fetch_ok, cell.fetch_ok) << cell.fault.repro();
    for (std::size_t r = 0; r < cell.verdicts.size(); ++r) {
      EXPECT_EQ(replayed.verdicts[r].evidence, cell.verdicts[r].evidence)
          << cell.fault.repro();
    }
  }
}

TEST(HarnessTest, RegisteredExecutorResolvesClientsByDisplayName) {
  const ConformanceHarness harness{{.seed = 1}};
  const clients::ClientProfile chrome = profile_named("Chrome 130.0");
  const clients::ClientProfile wget = profile_named("wget 1.21.3");
  campaign::Registry<ConformanceRecord> registry;
  register_conformance_executor(registry, harness, {chrome, wget});

  FaultPlan plan;
  plan.kind = FaultKind::kTcpReset;
  const ConformanceRecord record =
      registry.execute(harness.case_spec(wget, plan, 2));
  EXPECT_EQ(record.client, "wget 1.21.3");
  EXPECT_TRUE(record == harness.replay(wget, plan, 2));

  const auto unknown = harness.case_spec(profile_named("Firefox 132.0"), plan);
  try {
    registry.execute(unknown);
    ADD_FAILURE() << "an unregistered client must be refused";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "conformance executor: 'Firefox 132.0' is not in the "
                 "registered pool");
  }
}

TEST(HarnessTest, VerdictTableIsByteIdenticalAcrossWorkerCounts) {
  const ConformanceHarness harness{{.seed = 1}};
  const std::vector<clients::ClientProfile> profiles{
      profile_named("Chrome 130.0"), profile_named("Firefox 132.0"),
      profile_named("wget 1.21.3")};
  const auto specs = harness.differential_specs(profiles);

  campaign::Registry<ConformanceRecord> registry;
  register_conformance_executor(registry, harness, profiles);

  std::string baseline;
  for (const int workers : {1, 2, 4, 8}) {
    VerdictTableSink sink;
    registry.run(campaign::CampaignRunner{{.workers = workers}}, specs, sink);
    EXPECT_EQ(sink.cells(), specs.size());
    if (workers == 1) {
      baseline = sink.text();
      EXPECT_GT(sink.total_violations(), 0);  // wget guarantees material
    } else {
      EXPECT_EQ(sink.text(), baseline) << "workers=" << workers;
    }
  }
}

// -------------------------------------------------- behaviour-class share ----

/// Worlds the calling thread built while `run` ran: 1 for a simulated cell,
/// 0 for a record the harness served from its share.
template <typename Run>
std::uint64_t worlds_built(Run&& run) {
  const std::uint64_t before = simnet::ScenarioPool::local().leases();
  run();
  return simnet::ScenarioPool::local().leases() - before;
}

const FaultSchedule& share_schedule() {
  static const FaultSchedule schedule = FaultSchedule::generate(1, 0xFA, 3);
  return schedule;
}

// The performance matrix's schedule half: 18 clients (five behaviour
// classes) x 24 generated schedules. Shared or not, every record, `client`
// included, must be the one a harness of its own would produce.
TEST(ScheduleShareTest, SharedMatrixEqualsAFreshHarnessPerCell) {
  const ConformanceOptions options{.seed = 1};
  std::vector<clients::ClientProfile> profiles =
      clients::local_testbed_profiles();
  profiles.push_back(clients::safari_profile("17.6"));

  const ConformanceHarness harness{options};
  std::vector<campaign::ScenarioSpec> specs;
  std::vector<ConformanceRecord> fresh;
  for (std::uint32_t index = 0; index < 24; ++index) {
    const FaultSchedule schedule = FaultSchedule::generate(1, 0xFA, index);
    for (const clients::ClientProfile& profile : profiles) {
      specs.push_back(harness.schedule_spec(profile, schedule, 2));
      specs.back().id = specs.size() - 1;
      fresh.push_back(
          ConformanceHarness{options}.run_spec(profile, specs.back()));
    }
  }

  campaign::Registry<ConformanceRecord> registry;
  register_conformance_executor(registry, harness, profiles);
  for (const int workers : {1, 8}) {
    const auto result = registry.run_collect(
        campaign::CampaignRunner{{.workers = workers}}, specs);
    ASSERT_EQ(result.outcomes.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_TRUE(result.outcomes[i] == fresh[i])
          << "workers=" << workers << " " << specs[i].label << " "
          << result.outcomes[i].symbols() << " vs " << fresh[i].symbols();
    }
  }
}

TEST(ScheduleShareTest, AClassMemberIsServedACopy) {
  const ConformanceHarness harness;
  const clients::ClientProfile chrome = profile_named("Chrome 130.0");
  const clients::ClientProfile chrome_120 = profile_named("Chrome 120.0");
  EXPECT_EQ(worlds_built(
                [&] { harness.replay_schedule(chrome, share_schedule()); }),
            1u);
  ConformanceRecord record;
  EXPECT_EQ(worlds_built([&] {
              record = harness.replay_schedule(chrome_120, share_schedule());
            }),
            0u);
  EXPECT_EQ(record.client, "Chrome 120.0");
  EXPECT_TRUE(record == ConformanceHarness{}.replay_schedule(chrome_120,
                                                             share_schedule()));
}

TEST(ScheduleShareTest, SingleFaultCellsAlwaysSimulate) {
  const ConformanceHarness harness;
  const clients::ClientProfile chrome = profile_named("Chrome 130.0");
  const FaultPlan plan{FaultKind::kDnsDelaySpike};
  harness.replay(chrome, plan);
  EXPECT_EQ(worlds_built([&] { harness.replay(chrome, plan); }), 1u);
}

TEST(ScheduleShareTest, NoShareAcrossFetches) {
  const ConformanceHarness harness;
  const clients::ClientProfile chrome = profile_named("Chrome 130.0");
  harness.replay_schedule(chrome, share_schedule(), 2);
  ConformanceRecord record;
  EXPECT_EQ(worlds_built([&] {
              record = harness.replay_schedule(chrome, share_schedule(), 1);
            }),
            1u);
  EXPECT_TRUE(record == ConformanceHarness{}.replay_schedule(
                            chrome, share_schedule(), 1));
}

TEST(ScheduleShareTest, NoShareAcrossABehaviourChange) {
  const ConformanceHarness harness;
  const clients::ClientProfile chrome = profile_named("Chrome 130.0");
  clients::ClientProfile slow_chrome = chrome;
  slow_chrome.options.connection_attempt_delay = ms(301);
  harness.replay_schedule(chrome, share_schedule());
  ConformanceRecord record;
  EXPECT_EQ(worlds_built([&] {
              record = harness.replay_schedule(slow_chrome, share_schedule());
            }),
            1u);
  EXPECT_TRUE(record == ConformanceHarness{}.replay_schedule(
                            slow_chrome, share_schedule()));
}

TEST(ScheduleShareTest, NoShareAcrossHarnesses) {
  const ConformanceHarness first{{.seed = 1}};
  const ConformanceHarness second{{.seed = 2}};
  const clients::ClientProfile chrome = profile_named("Chrome 130.0");
  first.replay_schedule(chrome, share_schedule());
  ConformanceRecord record;
  EXPECT_EQ(worlds_built([&] {
              record = second.replay_schedule(chrome, share_schedule());
            }),
            1u);
  EXPECT_TRUE(record == ConformanceHarness{{.seed = 2}}.replay_schedule(
                            chrome, share_schedule()));
}

// The share keeps the last 32 records: a schedule 32 inserts back is gone,
// the newest is still there.
TEST(ScheduleShareTest, OnlyTheMostRecentRecordsAreKept) {
  const ConformanceHarness harness;
  const clients::ClientProfile chrome = profile_named("Chrome 130.0");
  for (std::uint32_t index = 0; index <= 32; ++index) {
    harness.replay_schedule(chrome, FaultSchedule::generate(1, 0xFA, index));
  }
  EXPECT_EQ(worlds_built([&] {
              harness.replay_schedule(chrome,
                                      FaultSchedule::generate(1, 0xFA, 32));
            }),
            0u);
  EXPECT_EQ(worlds_built([&] {
              harness.replay_schedule(chrome,
                                      FaultSchedule::generate(1, 0xFA, 0));
            }),
            1u);
}

}  // namespace
}  // namespace lazyeye::conformance
