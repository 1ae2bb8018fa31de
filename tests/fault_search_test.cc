// Coverage-guided fault hunt: crash safety, determinism, and the schedule
// codec.
//
// The kill(SIGKILL) tests run FIRST in this binary: they fork, and fork()
// is only safe while no WorkerPool threads exist yet (hunts in both the
// child and the parent reference run use workers=1, which executes inline).
// The multi-worker determinism tests at the bottom are what spin up pool
// threads, after all forking is done.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "campaign/journal.h"
#include "campaign/runner.h"
#include "campaign/scenario.h"
#include "clients/profiles.h"
#include "conformance/checker.h"
#include "conformance/schedule.h"
#include "conformance/search.h"
#include "util/time.h"

namespace lazyeye::conformance {
namespace {

std::string tmp_path(const std::string& name) {
  std::string path = ::testing::TempDir();
  if (!path.empty() && path.back() != '/') path.push_back('/');
  path.append("lazyeye_");
  path.append(name);
  std::remove(path.c_str());
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Three behaviour classes, interleaved (Chrome, Firefox, Chrome, wget), so
/// hunts exercise the class-to-profile record expansion.
std::vector<clients::ClientProfile> hunt_profiles() {
  std::vector<clients::ClientProfile> profiles;
  for (const char* name :
       {"Chrome 130.0", "Firefox 132.0", "Chrome 120.0", "wget 1.21.3"}) {
    profiles.push_back(clients::find_client_profile(name).value());
  }
  return profiles;
}

HuntOptions hunt_options(const std::string& journal_path) {
  HuntOptions options;
  options.seed = 11;
  options.budget = 16;
  options.snapshot_every = 4;
  options.workers = 1;
  options.journal_path = journal_path;
  return options;
}

// ----------------------------------------------------- kill -9 + resume ----
// Must stay the first tests in this file (see the header comment).

#if defined(__unix__) || defined(__APPLE__)

/// Forks a child that runs a journaled hunt and SIGKILLs itself right after
/// candidate `kill_after`'s cell record is appended — BEFORE any snapshot
/// due at that index, so kill points on a snapshot boundary land in the
/// cell/snapshot gap the resume path must repair. The parent then resumes
/// the journal to completion and byte-compares journal and corpus against
/// `reference` (an uninterrupted run of the same options).
void kill_resume_round(int kill_after, const std::string& reference_journal,
                       const std::string& reference_corpus) {
  const std::string path =
      tmp_path("hunt_kill" + std::to_string(kill_after) + ".journal");

  std::fflush(nullptr);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    HuntOptions options = hunt_options(path);
    options.after_cell = [kill_after](int index) {
      if (index == kill_after) {
        std::fflush(nullptr);
        raise(SIGKILL);
      }
    };
    FaultHunt hunt{options, hunt_profiles()};
    hunt.run();
    _exit(7);  // not reached: the hunt must die before finishing
  }

  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Partial journal: exactly the candidates up to the kill point.
  const campaign::JournalLoad load = campaign::load_journal(path);
  ASSERT_TRUE(load.exists);
  EXPECT_EQ(load.cells.size(), static_cast<std::size_t>(kill_after) + 1);
  EXPECT_FALSE(load.complete);

  // Resume: snapshot restore + tail replay + the remaining candidates.
  FaultHunt resumed{hunt_options(path), hunt_profiles()};
  const HuntResult result = resumed.run();
  EXPECT_TRUE(result.resumed);
  EXPECT_EQ(result.candidates, 16);

  EXPECT_EQ(read_file(path), reference_journal)
      << "journal after kill at candidate " << kill_after
      << " + resume is not byte-identical to the uninterrupted run";
  EXPECT_EQ(FaultHunt::corpus_text(result.corpus), reference_corpus)
      << "corpus after kill at candidate " << kill_after
      << " diverged from the uninterrupted run";
}

TEST(FaultSearchCrashTest, KillNineMidHuntThenResumeIsByteIdentical) {
  // Uninterrupted reference (workers=1: inline, still fork-safe after).
  const std::string reference_path = tmp_path("hunt_reference.journal");
  FaultHunt reference{hunt_options(reference_path), hunt_profiles()};
  const HuntResult expected = reference.run();
  EXPECT_FALSE(expected.resumed);
  EXPECT_EQ(expected.candidates, 16);
  EXPECT_FALSE(expected.corpus.empty());
  const std::string reference_journal = read_file(reference_path);
  const std::string reference_corpus = FaultHunt::corpus_text(expected.corpus);
  ASSERT_FALSE(reference_journal.empty());

  // Kill points: mid-cadence (5), and on a snapshot boundary (7, 11) where
  // the cell record lands but its snapshot does not — resume must re-emit
  // the missing snapshot for the journals to stay byte-identical.
  kill_resume_round(5, reference_journal, reference_corpus);
  kill_resume_round(7, reference_journal, reference_corpus);
  kill_resume_round(11, reference_journal, reference_corpus);
}

TEST(FaultSearchCrashTest, CompletedJournalReloadsWithoutRerun) {
  const std::string path = tmp_path("hunt_complete.journal");
  FaultHunt first{hunt_options(path), hunt_profiles()};
  const HuntResult fresh = first.run();
  EXPECT_FALSE(fresh.resumed);

  // Second run with equal options: pure journal replay, identical corpus.
  FaultHunt second{hunt_options(path), hunt_profiles()};
  const HuntResult replayed = second.run();
  EXPECT_TRUE(replayed.resumed);
  EXPECT_EQ(replayed.corpus, fresh.corpus);
  EXPECT_EQ(replayed.coverage, fresh.coverage);
  EXPECT_EQ(replayed.violating_candidates, fresh.violating_candidates);
}

TEST(FaultSearchCrashTest, JournalIdentityMismatchRefused) {
  const std::string path = tmp_path("hunt_identity.journal");
  FaultHunt first{hunt_options(path), hunt_profiles()};
  first.run();

  HuntOptions different = hunt_options(path);
  different.budget = 32;  // different identity: refuse, never mix corpora
  FaultHunt second{different, hunt_profiles()};
  EXPECT_THROW(second.run(), campaign::JournalError);
}

#endif  // unix

// ------------------------------------------------------ golden hunt ----

// All 17 local-testbed profiles (four behaviour classes), the options
// `lazyeye_hunt hunt --budget 64 --seed 7` uses (the CI fault-hunt job pins
// the same file). The golden corpus was recorded by simulating every profile
// separately, so any drift in how class records expand to profiles shows
// here.
TEST(FaultSearchGoldenTest, FullProfileHuntMatchesTheGoldenCorpus) {
  HuntOptions options;
  options.seed = 7;
  options.budget = 64;
  options.conformance.seed = 7;
  FaultHunt hunt{options, clients::local_testbed_profiles()};
  const HuntResult result = hunt.run();
  EXPECT_EQ(result.coverage.size(), 342u);
  EXPECT_EQ(FaultHunt::corpus_text(result.corpus),
            read_file(std::string{LAZYEYE_TEST_DATA_DIR} +
                      "/hunt_full_seed7_budget64.corpus"));
}

// -------------------------------------------------------- schedule codec ----

TEST(ScheduleCodecTest, GeneratedSchedulesRoundTrip) {
  for (std::uint32_t index = 0; index < 24; ++index) {
    const FaultSchedule schedule = FaultSchedule::generate(11, 3, index);
    ASSERT_FALSE(schedule.entries.empty());
    ASSERT_LE(schedule.entries.size(), 3u);

    const auto decoded = decode_schedule(encode_schedule(schedule));
    ASSERT_TRUE(decoded.has_value()) << "index " << index;
    EXPECT_EQ(*decoded, schedule);

    const auto from_hex = schedule_from_hex(schedule_to_hex(schedule));
    ASSERT_TRUE(from_hex.has_value()) << "index " << index;
    EXPECT_EQ(*from_hex, schedule);
  }
}

TEST(ScheduleCodecTest, MutatedScheduleRoundTripsAndRunsDistinctWorld) {
  const FaultSchedule parent = FaultSchedule::generate(11, 3, 0);
  FaultSchedule mutant = parent;
  mutant.entries[0].start = lazyeye::ms(5);
  mutant.entries[0].duration = lazyeye::ms(90);
  mutant.entries[0].trigger = TriggerKind::kAfterFirstDnsResponse;

  // Content is folded into the world seed: a retimed mutant runs a
  // different world than its parent even though the triple is unchanged.
  EXPECT_NE(mutant.rng_seed(), parent.rng_seed());

  const auto decoded = schedule_from_hex(schedule_to_hex(mutant));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, mutant);
  EXPECT_EQ(decoded->rng_seed(), mutant.rng_seed());
}

TEST(ScheduleCodecTest, MalformedBytesRejected) {
  const FaultSchedule schedule = FaultSchedule::generate(11, 3, 1);
  const std::string bytes = encode_schedule(schedule);

  EXPECT_FALSE(decode_schedule("").has_value());
  EXPECT_FALSE(decode_schedule(bytes.substr(0, bytes.size() - 1)).has_value());
  EXPECT_FALSE(decode_schedule(bytes + "x").has_value());

  std::string bad_kind = bytes;
  bad_kind[20] = static_cast<char>(0x7F);  // entry 0 kind out of range
  EXPECT_FALSE(decode_schedule(bad_kind).has_value());

  EXPECT_FALSE(schedule_from_hex("0123zz").has_value());
  EXPECT_FALSE(schedule_from_hex("abc").has_value());  // odd length
}

// Seeded fuzz check: byte flips and truncations of generated schedules'
// hex and binary forms never crash the decoders, never yield more than
// kMaxScheduleEntries entries, and whatever is accepted re-encodes to a
// fixed point.
TEST(ScheduleCodecTest, MutatedEncodingsDecodeBoundedToAFixedPoint) {
  SplitMix64 rng{0x5C4ED};
  int accepted = 0;
  const auto check = [&](const std::optional<FaultSchedule>& decoded) {
    if (!decoded) return;
    ++accepted;
    EXPECT_LE(decoded->entries.size(), kMaxScheduleEntries);
    const std::string hex = schedule_to_hex(*decoded);
    const auto again = schedule_from_hex(hex);
    ASSERT_TRUE(again.has_value()) << hex;
    EXPECT_EQ(*again, *decoded) << hex;
    EXPECT_EQ(schedule_to_hex(*again), hex);
  };
  for (std::uint32_t i = 0; i < 6000; ++i) {
    const FaultSchedule schedule = FaultSchedule::generate(17, 2, i % 97);
    const std::string hex = schedule_to_hex(schedule);
    const std::string raw = encode_schedule(schedule);
    std::vector<std::uint8_t> hex_bytes(hex.begin(), hex.end());
    std::vector<std::uint8_t> raw_bytes(raw.begin(), raw.end());
    if (i % 3 == 0) {
      truncate_wire(hex_bytes, rng);
      truncate_wire(raw_bytes, rng);
    } else {
      corrupt_wire(hex_bytes, rng);
      corrupt_wire(raw_bytes, rng);
    }
    check(schedule_from_hex(
        std::string_view{reinterpret_cast<const char*>(hex_bytes.data()),
                         hex_bytes.size()}));
    check(decode_schedule(
        std::string_view{reinterpret_cast<const char*>(raw_bytes.data()),
                         raw_bytes.size()}));
  }
  // Flips inside seeds, indices and times keep a schedule well formed, so
  // many mutants are accepted and the fixed point is really exercised.
  EXPECT_GT(accepted, 1000);
}

TEST(ScheduleCodecTest, CorpusFileRoundTripsAndRefusesDamage) {
  std::vector<CorpusEntry> corpus;
  for (std::uint32_t i = 0; i < 3; ++i) {
    CorpusEntry entry;
    entry.schedule = FaultSchedule::generate(11, 3, i);
    entry.violations = static_cast<int>(i);
    entry.minimized = i == 2;
    corpus.push_back(entry);
  }
  const std::string path = tmp_path("corpus.txt");
  FaultHunt::write_corpus(path, corpus);

  const std::vector<CorpusEntry> loaded = FaultHunt::load_corpus(path);
  ASSERT_EQ(loaded.size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(loaded[i].schedule, corpus[i].schedule);
    EXPECT_EQ(loaded[i].violations, corpus[i].violations);
    EXPECT_EQ(loaded[i].minimized, corpus[i].minimized);
  }

  std::ofstream out{path, std::ios::app};
  out << "entry violations=1 minimized=0 nothex!!\n";
  out.close();
  EXPECT_THROW(FaultHunt::load_corpus(path), std::runtime_error);
}

// ----------------------------------------------- coverage signature units ----

TEST(CoverageSignatureTest, EvidenceBucketCollapsesDigitRuns) {
  EXPECT_EQ(evidence_bucket("waited 43 ms (< 250 ms)"),
            evidence_bucket("waited 187 ms (< 250 ms)"));
  EXPECT_EQ(evidence_bucket("waited 43 ms"), "waited # ms");
  EXPECT_NE(evidence_bucket("attempt 2 aborted"), evidence_bucket("no winner"));
  EXPECT_EQ(evidence_bucket(""), "");
}

TEST(CoverageSignatureTest, SignatureSeparatesVerdictChangesAndClientSplits) {
  ConformanceRecord a;
  a.client = "A";
  a.verdicts = {{"rule-x", RuleOutcome::kPass, "ok 1"}};
  ConformanceRecord b = a;
  b.client = "B";

  const auto agree = coverage_signature({a, b});
  b.verdicts[0].outcome = RuleOutcome::kViolate;
  const auto split = coverage_signature({a, b});

  // The per-rule diff element changes when clients stop agreeing.
  EXPECT_NE(agree, split);
  bool found_diff = false;
  for (const std::string& element : split) {
    if (element == "diff|rule-x|PV") found_diff = true;
  }
  EXPECT_TRUE(found_diff);
}

// ------------------------------------------------------ behaviour classes ----

TEST(BehaviourClassTest, LocalTestbedProfilesFormFourClasses) {
  const auto profiles = clients::local_testbed_profiles();
  const std::vector<std::size_t> classes = behaviour_classes(profiles);
  ASSERT_EQ(classes.size(), profiles.size());

  std::vector<std::vector<std::string>> members;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    if (classes[i] == members.size()) members.emplace_back();
    ASSERT_LT(classes[i], members.size());
    members[classes[i]].push_back(profiles[i].name);
  }
  ASSERT_EQ(members.size(), 4u);
  ASSERT_EQ(members[0].size(), 11u);
  for (const std::string& name : members[0]) {
    EXPECT_TRUE(name == "Chrome" || name == "Chromium" || name == "Edge")
        << name;
  }
  EXPECT_EQ(members[1], std::vector<std::string>(4, "Firefox"));
  EXPECT_EQ(members[2], std::vector<std::string>{"curl"});
  EXPECT_EQ(members[3], std::vector<std::string>{"wget"});
}

TEST(BehaviourClassTest, ABehaviourFieldChangeLeavesTheFamily) {
  const clients::ClientProfile chrome =
      clients::chromium_profile("Chrome", "130.0", "10-2024");
  const clients::ClientProfile chrome_120 =
      clients::chromium_profile("Chrome", "120.0", "11-2023");
  clients::ClientProfile slow_chrome = chrome;
  slow_chrome.options.connection_attempt_delay = lazyeye::ms(301);

  const clients::ClientProfile firefox =
      clients::firefox_profile("132.0", "10-2024");
  clients::ClientProfile steady_firefox =
      clients::firefox_profile("122.0", "01-2024");
  steady_firefox.cad_outlier_prob = 0.0;

  EXPECT_TRUE(chrome.same_behaviour(chrome_120));
  EXPECT_FALSE(chrome.same_behaviour(slow_chrome));
  EXPECT_FALSE(firefox.same_behaviour(steady_firefox));
  EXPECT_EQ(behaviour_classes({chrome, chrome_120, slow_chrome}),
            (std::vector<std::size_t>{0, 0, 1}));
  EXPECT_EQ(behaviour_classes({firefox, steady_firefox, firefox}),
            (std::vector<std::size_t>{0, 1, 0}));
}

// The hunt runs one profile per class and copies its record to the rest;
// that holds only while a schedule cell never depends on the display
// identity. A User-Agent that reached the wire, say, would break it here.
TEST(BehaviourClassTest, ClassMembersReplayToTheRepresentativesRecord) {
  const auto profiles = clients::local_testbed_profiles();
  const std::vector<std::size_t> classes = behaviour_classes(profiles);
  ConformanceOptions options;
  options.seed = 1;
  const ConformanceHarness harness{options};

  for (std::uint32_t index = 0; index < 24; ++index) {
    const FaultSchedule schedule = FaultSchedule::generate(1, 0xFA, index);
    std::vector<ConformanceRecord> representative;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      ConformanceRecord record = harness.replay_schedule(profiles[i], schedule);
      if (classes[i] == representative.size()) {
        representative.push_back(std::move(record));
        continue;
      }
      const ConformanceRecord& expected = representative[classes[i]];
      record.client = expected.client;
      EXPECT_TRUE(record == expected)
          << profiles[i].display_name() << " vs " << expected.client
          << " on schedule " << index << ": " << record.symbols() << " vs "
          << expected.symbols();
    }
  }
}

// ------------------------------------------- schedule cells & determinism ----

TEST(ScheduleCellTest, WindowGatingControlsInjection) {
  const auto profiles = hunt_profiles();
  ConformanceOptions options;
  options.seed = 11;
  const ConformanceHarness harness{options};

  // One DNS-starving entry, open window from t=0: the fault must bite.
  FaultSchedule active;
  active.seed = 11;
  active.entries.resize(1);
  active.entries[0].plan.kind = FaultKind::kDnsStarveFamily;
  active.entries[0].plan.seed = 11;
  active.entries[0].plan.target_family = simnet::Family::kIpv6;

  // Same entry, window opening minutes after the session is over: inert.
  FaultSchedule inert = active;
  inert.entries[0].start = lazyeye::ms(600000);
  inert.entries[0].duration = lazyeye::ms(50);

  const ConformanceRecord hit =
      harness.replay_schedule(profiles[0], active, 2);
  const ConformanceRecord miss =
      harness.replay_schedule(profiles[0], inert, 2);
  ASSERT_FALSE(hit.verdicts.empty());
  ASSERT_TRUE(hit.schedule.has_value());

  // The starved world loses its AAAA answers; the inert window leaves the
  // dual-stack session intact, so the two records cannot agree.
  EXPECT_NE(coverage_signature({hit}), coverage_signature({miss}));
  bool starved_evidence = false;
  for (const Verdict& v : hit.verdicts) {
    if (v.evidence.find("both families") != std::string::npos) {
      starved_evidence = true;
    }
  }
  EXPECT_TRUE(starved_evidence);
}

TEST(ScheduleCellTest, CampaignVerdictsAreWorkerCountInvariant) {
  const auto profiles = hunt_profiles();
  ConformanceOptions conformance_options;
  conformance_options.seed = 11;
  const ConformanceHarness harness{conformance_options};

  std::vector<campaign::ScenarioSpec> specs;
  for (std::uint32_t index = 0; index < 6; ++index) {
    const FaultSchedule schedule = FaultSchedule::generate(11, 9, index);
    for (const auto& profile : profiles) {
      specs.push_back(harness.schedule_spec(profile, schedule, 2));
      specs.back().id = specs.size() - 1;
    }
  }
  const std::function<ConformanceRecord(const campaign::ScenarioSpec&)>
      executor = [&](const campaign::ScenarioSpec& spec) {
        for (const auto& profile : profiles) {
          if (profile.display_name() == spec.client) {
            return harness.run_spec(profile, spec);
          }
        }
        throw std::runtime_error("unknown client " + spec.client);
      };

  std::string reference;
  for (const int workers : {1, 2, 4, 8}) {
    campaign::RunnerOptions runner_options;
    runner_options.workers = workers;
    const campaign::CampaignRunner runner{runner_options};
    VerdictTableSink sink;
    runner.run_streaming<ConformanceRecord>(specs, executor, sink);
    if (reference.empty()) {
      reference = sink.text();
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(sink.text(), reference) << "workers=" << workers;
    }
  }
}

TEST(ScheduleCellTest, HuntIsWorkerCountInvariant) {
  std::string reference;
  for (const int workers : {1, 4}) {
    HuntOptions options = hunt_options("");
    options.workers = workers;
    FaultHunt hunt{options, hunt_profiles()};
    const HuntResult result = hunt.run();
    const std::string corpus = FaultHunt::corpus_text(result.corpus);
    if (reference.empty()) {
      reference = corpus;
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(corpus, reference) << "workers=" << workers;
    }
  }
}

}  // namespace
}  // namespace lazyeye::conformance
