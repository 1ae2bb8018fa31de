// ConformanceHarness: differential RFC 8305 conformance campaigns.
//
// Each cell builds an isolated two-node world (like testbed::LocalTestbed),
// attaches a ScheduleInjector for the cell's seeded FaultPlan (run as a
// one-entry schedule) or FaultSchedule to the server's DNS and transport
// stacks, runs the client's fetch(es), and evaluates the RFC 8305 rule set
// over the client-side capture. Cells ride the campaign API v2 as
// ConformanceCase payloads, so a differential matrix — the same fault
// against every client profile — shards across the CampaignRunner worker
// pool with byte-identical verdict tables at any worker count.
//
// Every cell replays from its plan's (seed, stream, index) triple:
//
//   ./build/example_conformance_probe "<client>" <fault> <seed> <stream> <index>
//
// Behaviour-class share. A schedule cell's world is a function of the
// harness options, the spec seed, `fetches`, the schedule and the profile's
// behaviour, never of its display name, so profiles of one behaviour class
// (ClientProfile::same_behaviour) produce equal records. run_spec therefore
// keeps the most recent schedule-cell records in the harness instance and
// serves a later cell of the same class from a copy, with only `client`
// rewritten. Single-fault cells are never shared: each profile's plan has
// its own index and so its own world seed.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "campaign/registry.h"
#include "campaign/runner.h"
#include "campaign/scenario.h"
#include "campaign/sink.h"
#include "clients/profiles.h"
#include "conformance/fault.h"
#include "conformance/rules.h"
#include "conformance/schedule.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace lazyeye::conformance {

/// One cell's outcome: the fault it ran, whether the fetches succeeded, and
/// the verdict of every rule (rule-table order).
struct ConformanceRecord {
  std::string client;
  FaultPlan fault;
  /// Set for compound-schedule cells (ScheduleCase); `fault` stays at its
  /// default then and the schedule is the replay handle instead.
  std::optional<FaultSchedule> schedule;
  int fetches = 1;
  bool fetch_ok = false;        // the cell's final fetch
  bool first_fetch_ok = false;  // the first fetch (== fetch_ok when fetches=1)
  std::vector<Verdict> verdicts;

  int violations() const;
  /// One symbol per rule, e.g. "P-PV-" (rule-table order).
  std::string symbols() const;

  bool operator==(const ConformanceRecord&) const = default;
};

struct ConformanceOptions {
  /// Campaign seed — becomes FaultPlan::seed for every generated cell.
  std::uint64_t seed = 1;
  /// Unresponsive decoy addresses per family next to the real server, so
  /// the interleaving/abandonment rules have material to judge.
  int decoys_per_family = 1;
};

class ConformanceHarness {
 public:
  explicit ConformanceHarness(ConformanceOptions options = {});

  const ConformanceOptions& options() const { return options_; }

  /// One cell: `plan` against `profile`. The spec's seed is the plan's
  /// rng_seed(), so the cell's whole world derives from the replay triple.
  campaign::ScenarioSpec case_spec(const clients::ClientProfile& profile,
                                   const FaultPlan& plan,
                                   int fetches = 1) const;

  /// One compound-schedule cell: the spec's seed is the schedule's
  /// rng_seed() (triple + entry content), so campaign, hunt, and both probe
  /// replay paths build byte-identical worlds for equal schedules.
  campaign::ScenarioSpec schedule_spec(const clients::ClientProfile& profile,
                                       const FaultSchedule& schedule,
                                       int fetches = 1) const;

  /// The differential matrix: every fault kind (kNone control first) against
  /// every profile. Fault-kind-major; stream = kind id, index = cell index
  /// within the kind (profile-major, repetition-minor). All cells use
  /// fetches = 2 so the restart-cache rule is exercised.
  std::vector<campaign::ScenarioSpec> differential_specs(
      const std::vector<clients::ClientProfile>& profiles,
      int repetitions = 1) const;

  /// Executor: the record of `spec` against `profile`, equal to what
  /// run_cell returns. Thread-safe. A schedule cell first looks for an
  /// earlier record of this harness with the same spec seed, `fetches` and
  /// schedule from a profile that same_behaviour() matches (exact fields,
  /// cheap ones first, no hashes) and copies it with `client` set to this
  /// profile's display name; on a miss it simulates and keeps the record.
  /// Only the last kSharedCells records are kept, which covers a
  /// schedule-major matrix (one schedule's cells adjacent). The lock is
  /// held for the lookup and the insert, never across a simulation: two
  /// workers that miss the same key both simulate it and keep equal
  /// records. Single-fault cells always simulate (each profile's plan index
  /// gives it its own world seed).
  ConformanceRecord run_spec(const clients::ClientProfile& profile,
                             const campaign::ScenarioSpec& spec) const;

  /// The unshared cell: builds the cell's faulted world, runs it, and
  /// evaluates the rules. Stateless and thread-safe. For callers that
  /// already run one cell per behaviour class (FaultHunt::evaluate), so
  /// they do not pay for the share's lookup and insert.
  ConformanceRecord run_cell(const clients::ClientProfile& profile,
                             const campaign::ScenarioSpec& spec) const;

  /// Replays one cell from its plan — the probe example's entry point.
  ConformanceRecord replay(const clients::ClientProfile& profile,
                           const FaultPlan& plan, int fetches = 2) const;

  /// Replays one compound-schedule cell (probe --schedule/--schedule-hex,
  /// hunt evaluation, corpus reproduction).
  ConformanceRecord replay_schedule(const clients::ClientProfile& profile,
                                    const FaultSchedule& schedule,
                                    int fetches = 2) const;

 private:
  /// A simulated schedule cell; the schedule and `fetches` are the record's.
  struct SharedCell {
    std::uint64_t seed = 0;
    clients::ClientProfile profile;
    ConformanceRecord record;
  };
  static constexpr std::size_t kSharedCells = 32;

  ConformanceOptions options_;
  /// decoys_per_family (IPv4, IPv6) decoy address pairs, parsed once.
  std::vector<std::pair<simnet::Ipv4Address, simnet::Ipv6Address>> decoys_;

  mutable util::Mutex shared_mutex_;
  /// Ring of the last kSharedCells schedule-cell records; shared_next_ is
  /// the oldest once the ring is full.
  mutable std::vector<SharedCell> shared_ GUARDED_BY(shared_mutex_);
  mutable std::size_t shared_next_ GUARDED_BY(shared_mutex_) = 0;
};

/// Plugs ConformanceCase AND ScheduleCase into a campaign registry (both
/// dispatch to run_spec, which switches on the payload); `harness` must
/// outlive the registry, the profile pool is copied into the executor with
/// each profile's display name computed once.
template <typename Outcome>
void register_conformance_executor(
    campaign::Registry<Outcome>& registry, const ConformanceHarness& harness,
    std::vector<clients::ClientProfile> profiles) {
  using Named = std::pair<std::string, clients::ClientProfile>;
  std::vector<Named> named;
  named.reserve(profiles.size());
  for (clients::ClientProfile& profile : profiles) {
    named.emplace_back(profile.display_name(), std::move(profile));
  }
  auto pool = std::make_shared<const std::vector<Named>>(std::move(named));
  const auto run = [&harness, pool](const campaign::ScenarioSpec& spec) {
    const Named& entry = campaign::find_registered(
        *pool, spec.client,
        [](const Named& n) -> const std::string& { return n.first; },
        "conformance");
    return harness.run_spec(entry.second, spec);
  };
  registry.template add<campaign::ConformanceCase>(
      [run](const campaign::ScenarioSpec& spec,
            const campaign::ConformanceCase&) { return run(spec); });
  registry.template add<campaign::ScheduleCase>(
      [run](const campaign::ScenarioSpec& spec,
            const campaign::ScheduleCase&) { return run(spec); });
}

/// Streams a verdict table: one fixed-width row per cell plus, for each
/// violation, an evidence line and the single-command repro line. The text
/// is byte-stable for a given matrix (cells arrive in spec order regardless
/// of worker count — the bench asserts this at 1/2/4/8 workers).
class VerdictTableSink final : public campaign::ResultSink<ConformanceRecord> {
 public:
  void begin(std::size_t cells_total) override;
  void cell(const campaign::ScenarioSpec& spec,
            ConformanceRecord record) override;
  void end() override;

  const std::string& text() const { return text_; }
  int total_violations() const { return total_violations_; }
  std::size_t cells() const { return cells_; }

 private:
  std::string text_;
  int total_violations_ = 0;
  std::size_t cells_ = 0;
};

}  // namespace lazyeye::conformance
