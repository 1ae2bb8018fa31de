// Coverage-guided fault hunt over compound schedules (ROADMAP "coverage-
// guided fault search").
//
// The hunt is a seeded, deterministic loop: each candidate FaultSchedule is
// either freshly generated from the hunt triple or a mutation (add / drop /
// retime / retarget an entry) of a corpus member; it runs differentially
// against the client profiles; its fitness is *novelty* — the coverage
// signature (client, rule, verdict symbol, digit-stripped evidence bucket)
// plus per-rule cross-client verdict diffs — and novel candidates enter the
// corpus. Candidates that violate a rule are first delta-minimized (drop
// entries, zero/shrink windows) while the exact set of (client, rule)
// violations is preserved, so every corpus violation is a smallest-found
// replayable reproducer.
//
// Behaviour classes: profiles equal in everything but their display identity
// (ClientProfile::same_behaviour) produce identical schedule cells — the
// world and client seeds derive from the schedule alone and no rule reads
// the client's name. The hunt therefore runs each candidate once per class,
// on the class's first profile, and copies that record to every member
// under the member's own name. The 17 local-testbed profiles form four
// classes (Chromium family x11, Firefox x4, curl, wget); the per-profile
// records, and so the journal and corpus, are what running all 17 gives.
//
// Crash safety: with journal_path set the hunt is a journaled campaign over
// its candidate indices (campaign/journal.h). One kCell record per
// candidate carries the proposed schedule, every per-profile record, and
// the minimized schedule — enough to replay the hunt's state transitions
// WITHOUT re-running any world. Periodic kSnapshot records checkpoint the
// whole search state (mutation RNG state, coverage set, corpus), so resume
// is snapshot + short tail replay. A SIGKILL at any instant resumes to a
// byte-identical journal and corpus (tests/fault_search_test.cc).
//
// Everything the hunt derives — proposals, worlds, verdicts, minimization —
// is a pure function of (seed, budget, profiles), so two hunts with equal
// options produce equal corpora on any worker count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "clients/profiles.h"
#include "conformance/checker.h"
#include "conformance/schedule.h"

namespace lazyeye::conformance {

struct HuntOptions {
  /// Hunt seed: roots the proposal stream and every candidate world.
  std::uint64_t seed = 1;
  /// Candidate schedules to evaluate.
  int budget = 64;
  /// kSnapshot cadence, in candidates (journaled hunts only).
  int snapshot_every = 16;
  /// Fetches per cell (2 exercises the restart-cache rule, like the
  /// differential matrix).
  int fetches = 2;
  /// Worker threads for each candidate's per-class cells. 1 runs inline
  /// (fork-safe); results are byte-identical at any width.
  int workers = 1;
  /// Journal file ("" = in-memory hunt, no crash safety).
  std::string journal_path;
  /// Progress hook: called after candidate `index` is folded into the state
  /// (and its cell record journaled) but BEFORE any snapshot it is due —
  /// the kill-9 harness uses it to die at deterministic spots, including
  /// the gap between a cell and its cadence snapshot.
  std::function<void(int index)> after_cell;
  /// World options for every candidate cell.
  ConformanceOptions conformance;
};

/// One corpus member: a schedule the hunt kept because it covered something
/// new. Violating members are stored delta-minimized.
struct CorpusEntry {
  FaultSchedule schedule;
  /// Rule violations across the candidate's per-profile records.
  int violations = 0;
  bool minimized = false;
  /// The first novel signature element that admitted it (diagnostic).
  std::string novelty;

  bool operator==(const CorpusEntry&) const = default;
};

struct HuntResult {
  std::vector<CorpusEntry> corpus;
  /// Every coverage-signature element ever observed (std::set: iteration
  /// order is deterministic, per repo lint rules).
  std::set<std::string> coverage;
  int candidates = 0;             // evaluated (or replayed) this run
  int violating_candidates = 0;   // candidates with >= 1 rule violation
  bool resumed = false;           // a journal with prior progress was loaded
};

// ---- Coverage signature (unit-tested building blocks) ---------------------

/// Digit runs collapsed to '#': "waited 43 ms (< 250 ms)" and
/// "waited 57 ms (< 250 ms)" bucket identically.
std::string evidence_bucket(std::string_view evidence);

/// The candidate's full coverage signature over its per-profile records
/// (profile order): per-verdict elements plus per-rule cross-client diff
/// strings. Pure function of the records.
std::vector<std::string> coverage_signature(
    const std::vector<ConformanceRecord>& records);

/// Behaviour class of each profile (ClientProfile::same_behaviour): classes
/// are numbered in order of their first member, so result[i] <= i and a
/// class's first member is its representative.
std::vector<std::size_t> behaviour_classes(
    const std::vector<clients::ClientProfile>& profiles);

class FaultHunt {
 public:
  FaultHunt(HuntOptions options, std::vector<clients::ClientProfile> profiles);

  const HuntOptions& options() const { return options_; }

  /// Runs (or resumes) the hunt. Journaled hunts refuse a journal written
  /// by different options (identity mismatch) or one that diverges from the
  /// deterministic proposal stream — both throw campaign::JournalError.
  HuntResult run();

  /// Deterministic text form of a corpus ("# lazyeye-hunt corpus v1" header
  /// plus one hex entry line per schedule).
  static std::string corpus_text(const std::vector<CorpusEntry>& corpus);

  /// Writes corpus_text() to `path` (truncating). Throws std::runtime_error
  /// when the file cannot be written.
  static void write_corpus(const std::string& path,
                           const std::vector<CorpusEntry>& corpus);

  /// Parses a corpus file back. Throws std::runtime_error on unreadable
  /// files or malformed lines — a corpus that cannot be trusted to replay
  /// is refused loudly, never silently truncated.
  static std::vector<CorpusEntry> load_corpus(const std::string& path);

 private:
  struct State;
  struct Candidate;

  FaultSchedule propose(State& state, std::uint32_t index) const;
  std::vector<ConformanceRecord> evaluate(const FaultSchedule& schedule) const;
  FaultSchedule minimize(const FaultSchedule& schedule,
                         const std::vector<ConformanceRecord>& baseline) const;
  void apply(State& state, const Candidate& candidate) const;

  std::string encode_state(const State& state) const;
  State decode_state(std::string_view bytes) const;
  std::string encode_candidate(const Candidate& candidate) const;
  Candidate decode_candidate(std::string_view bytes) const;

  HuntOptions options_;
  std::vector<clients::ClientProfile> profiles_;
  /// profiles_[i].display_name(), computed once.
  std::vector<std::string> names_;
  /// behaviour_classes(profiles_): an index into representatives_.
  std::vector<std::size_t> class_of_;
  /// First profile of each class, in profile order.
  std::vector<std::size_t> representatives_;
  ConformanceHarness harness_;
};

}  // namespace lazyeye::conformance
