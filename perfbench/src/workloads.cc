#include "workloads.h"

#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <variant>

#include "alloc_count.h"
#include "campaign/registry.h"
#include "campaign/runner.h"
#include "campaign/sink.h"
#include "campaign/spec_stream.h"
#include "clients/profiles.h"
#include "conformance/checker.h"
#include "conformance/fault.h"
#include "conformance/schedule.h"
#include "conformance/search.h"
#include "metrics.h"
#include "resolverlab/lab.h"
#include "resolvers/service_profiles.h"
#include "simnet/scenario_pool.h"
#include "testbed/testbed.h"
#include "trace.h"
#include "util/rng.h"
#include "util/strings.h"
#include "webtool/webtool.h"

namespace perfbench {

namespace cp = lazyeye::campaign;
namespace conf = lazyeye::conformance;
using lazyeye::SimTime;
using lazyeye::clients::ClientProfile;

std::uint64_t start_index(std::uint64_t seed) {
  lazyeye::SplitMix64 mix{seed};
  return mix.next() % kReferenceSeeds;
}

const char* family_name(int family) {
  static constexpr const char* kNames[kFamilyCount] = {
      "chromium", "firefox", "safari", "curl", "wget", "other"};
  return family >= 0 && family < kFamilyCount ? kNames[family] : "other";
}

int family_of(std::string_view client) {
  const auto starts = [&](std::string_view prefix) {
    return client.substr(0, prefix.size()) == prefix;
  };
  if (starts("Chrome") || starts("Chromium") || starts("Edge")) return 0;
  if (starts("Firefox")) return 1;
  if (client.find("Safari") != std::string_view::npos) return 2;
  if (starts("curl")) return 3;
  if (starts("wget")) return 4;
  return 5;
}

// ---- Per-thread sample buffers ---------------------------------------------

namespace {

// Each thread keeps at most kSamplesPerThread samples; past that a sample
// replaces a uniformly chosen one (reservoir sampling). The buffer's pages
// are touched up front, so the driver's own memory is the same in every run
// however many cells it measures, and peak RSS differences are the
// program's.
constexpr std::size_t kSamplesPerThread = std::size_t{1} << 15;

struct SampleBuffer {
  SampleBuffer() {
    kept.resize(kSamplesPerThread);
    kept.clear();
  }

  std::vector<CellSample> kept;
  std::uint64_t seen = 0;
  lazyeye::SplitMix64 rng{0x5a3b1e5ULL};

  void add(const CellSample& sample) {
    ++seen;
    if (kept.size() < kSamplesPerThread) {
      kept.push_back(sample);
      return;
    }
    const std::uint64_t slot = rng.next() % seen;
    if (slot < kSamplesPerThread) kept[slot] = sample;
  }
};

/// Every thread's buffer, and the buffers of threads that have ended (for
/// the next new thread; their samples stay until take_samples() collects
/// them). Never destroyed: pool threads end after static destruction.
struct SampleBuffers {
  std::mutex mutex;
  std::vector<std::unique_ptr<SampleBuffer>> all;
  std::vector<SampleBuffer*> free;
};

SampleBuffers& sample_buffers() {
  static SampleBuffers* buffers = new SampleBuffers;
  return *buffers;
}

/// A thread's hold on its buffer; hands it back when the thread ends, so a
/// thread per repetition does not add a buffer per repetition.
struct BufferLease {
  SampleBuffer* buffer = nullptr;
  ~BufferLease() {
    if (buffer == nullptr) return;
    SampleBuffers& buffers = sample_buffers();
    std::lock_guard<std::mutex> lock{buffers.mutex};
    buffers.free.push_back(buffer);
  }
};

SampleBuffer& local_samples() {
  thread_local BufferLease lease;
  if (lease.buffer == nullptr) {
    SampleBuffers& buffers = sample_buffers();
    std::lock_guard<std::mutex> lock{buffers.mutex};
    if (buffers.free.empty()) {
      buffers.all.push_back(std::make_unique<SampleBuffer>());
      lease.buffer = buffers.all.back().get();
    } else {
      lease.buffer = buffers.free.back();
      buffers.free.pop_back();
    }
  }
  return *lease.buffer;
}

/// Runs one repetition's `body` on a thread of its own, as each campaign or
/// `lazyeye_hunt` run is a process of its own: the thread-local world and
/// message pools start cold and die with the repetition, so what one
/// repetition leaves in them (a message a dns-corrupt cell inflated, say)
/// never carries into the next, and neither the times nor peak RSS depend
/// on the order in which a run visits the reference seeds. An exception
/// becomes an error of the repetition.
template <typename Body>
void run_isolated(RepStats& stats, Body&& body) {
  std::thread runner{[&] {
    try {
      body();
    } catch (const std::exception& e) {
      stats.errors.push_back(std::string{"repetition threw: "} + e.what());
    } catch (...) {
      stats.errors.push_back("repetition threw a non-standard exception");
    }
  }};
  runner.join();
#ifdef __GLIBC__
  // Hand the dead thread's freed memory back as its process exit would.
  ::malloc_trim(0);
#endif
}

}  // namespace

std::vector<CellSample> take_samples() {
  std::vector<CellSample> all;
  SampleBuffers& buffers = sample_buffers();
  std::lock_guard<std::mutex> lock{buffers.mutex};
  for (const auto& buffer : buffers.all) {
    all.insert(all.end(), buffer->kept.begin(), buffer->kept.end());
    buffer->kept.clear();
    buffer->seen = 0;
  }
  return all;
}

bool Digests::parse(std::string_view text, std::string& error) {
  std::size_t line_no = 0;
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    std::string line{text.substr(0, eol)};
    text = eol == std::string_view::npos ? std::string_view{}
                                         : text.substr(eol + 1);
    ++line_no;
    if (const std::size_t hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    char workload[64];
    unsigned long long index = 0;
    char hex[64];
    if (std::sscanf(line.c_str(), "%63s %llu %63s", workload, &index, hex) !=
            3 ||
        std::string_view{hex}.size() != 16) {
      error = "digests line " + std::to_string(line_no) + " is malformed";
      return false;
    }
    digests_[{workload, index}] = hex;
  }
  return true;
}

const std::string* Digests::find(const std::string& workload,
                                 std::uint64_t index) const {
  const auto it = digests_.find({workload, index});
  return it == digests_.end() ? nullptr : &it->second;
}

namespace {

// ---- Campaign plumbing shared by the three campaign workloads --------------

/// Times one layer executor call on its worker thread (its CPU time) and
/// records a sample.
/// The span encloses the measured window, so span bookkeeping never counts
/// as cell time or cell allocations.
template <typename Fn>
auto timed_call(SpanName span_name_id, const cp::ScenarioSpec& spec,
                std::uint16_t cls, std::uint32_t rep, Fn&& fn) {
  Span span{span_name_id, spec.id};
  const lazyeye::simnet::ScenarioPool& pool =
      lazyeye::simnet::ScenarioPool::local();
  const std::uint64_t leases = pool.leases();
  const std::uint64_t reuses = pool.reuses();
  const std::uint64_t allocs = thread_allocations();
  const std::uint64_t start = thread_cpu_ns();
  auto outcome = fn();
  const std::uint64_t end = thread_cpu_ns();
  CellSample sample;
  sample.dur_ns = end - start;
  sample.allocs = thread_allocations() - allocs;
  sample.cell = spec.id;
  sample.leases = static_cast<std::uint32_t>(pool.leases() - leases);
  sample.reuses = static_cast<std::uint32_t>(pool.reuses() - reuses);
  sample.rep = rep;
  sample.cls = cls;
  sample.family = static_cast<std::uint8_t>(family_of(spec.client));
  local_samples().add(sample);
  return outcome;
}

/// A matrix concatenated from several layer streams; cell ids are rewritten
/// to the dense position in the whole matrix.
class Matrix {
 public:
  void add(cp::SpecStream part) {
    offsets_.push_back(total_);
    total_ += part.size();
    parts_.push_back(std::move(part));
  }

  std::size_t size() const { return total_; }

  std::size_t part_of(std::size_t i) const {
    return static_cast<std::size_t>(
               std::upper_bound(offsets_.begin(), offsets_.end(), i) -
               offsets_.begin()) -
           1;
  }

  cp::ScenarioSpec at(std::size_t i) const {
    const std::size_t p = part_of(i);
    cp::ScenarioSpec spec = parts_[p].at(i - offsets_[p]);
    spec.id = i;
    return spec;
  }

  /// Every `stride`-th cell, ids dense: the worker-count invariance slice.
  Matrix slice(std::size_t stride) const {
    std::vector<cp::ScenarioSpec> specs;
    for (std::size_t i = 0; i < total_; i += stride) {
      specs.push_back(at(i));
      specs.back().id = specs.size() - 1;
    }
    Matrix out;
    out.add(cp::SpecStream::of(std::move(specs)));
    return out;
  }

 private:
  std::vector<cp::SpecStream> parts_;
  std::vector<std::size_t> offsets_;
  std::size_t total_ = 0;
};

/// When a repetition's first cell was claimed: wall clock, and the
/// process's CPU time so far.
struct FirstClaim {
  std::atomic<std::uint64_t> wall{0};
  std::atomic<std::uint64_t> cpu{0};
};

/// The driver's spec stream: spans at() and notes the first claim.
cp::SpecStream traced_stream(std::shared_ptr<const Matrix> matrix,
                             FirstClaim* first_claim) {
  const std::size_t n = matrix->size();
  return cp::SpecStream{n, [matrix = std::move(matrix),
                            first_claim](std::size_t i) {
    Span span{SpanName::kSpecAt, i};
    if (first_claim->wall.load(std::memory_order_relaxed) == 0) {
      std::uint64_t expected = 0;
      if (first_claim->wall.compare_exchange_strong(expected, now_ns())) {
        first_claim->cpu.store(process_cpu_ns());
      }
    }
    return matrix->at(i);
  }};
}

/// Forwards to the workload's sink, spanning and counting cell().
template <typename R>
class CountingSink final : public cp::ResultSink<R> {
 public:
  explicit CountingSink(cp::ResultSink<R>& inner) : inner_{inner} {}

  void begin(std::size_t cells_total) override { inner_.begin(cells_total); }
  void cell(const cp::ScenarioSpec& spec, R outcome) override {
    Span span{SpanName::kSinkCell, spec.id};
    inner_.cell(spec, std::move(outcome));
    ++cells_;
  }
  void cell_failed(const cp::ScenarioSpec& spec,
                   const cp::FailureReport& report) override {
    inner_.cell_failed(spec, report);
  }
  void end() override { inner_.end(); }

  std::size_t cells() const { return cells_; }

 private:
  cp::ResultSink<R>& inner_;
  std::size_t cells_ = 0;
};

/// Streams `matrix` through `registry` into `sink`, fault-isolated so a
/// throwing cell is counted instead of aborting the repetition.
template <typename R>
RepStats run_matrix(const cp::Registry<R>& registry,
                    std::shared_ptr<const Matrix> matrix,
                    cp::ResultSink<R>& sink, int workers, std::uint64_t start,
                    std::uint64_t cpu_start, std::uint64_t reference,
                    std::uint32_t rep) {
  RepStats stats;
  stats.reference = reference;
  FirstClaim first_claim;
  const std::size_t total = matrix->size();
  const cp::SpecStream stream = traced_stream(std::move(matrix), &first_claim);
  CountingSink<R> counting{sink};
  cp::RunnerOptions options;
  options.workers = workers;
  options.quarantine_failures = true;
  const cp::CampaignRunner runner{options};
  try {
    registry.run(runner, stream, counting);
  } catch (const std::exception& e) {
    stats.errors.push_back(std::string{"campaign threw: "} + e.what());
  }
  const std::uint64_t end = now_ns();
  stats.cpu_ns = process_cpu_ns() - cpu_start;
  std::uint64_t claimed = first_claim.wall.load();
  if (claimed == 0) claimed = end;
  stats.claim_cpu_ns = first_claim.cpu.load();
  Tracer::instance().record(SpanName::kSetup, rep, start, claimed);
  const cp::CampaignRunner::RunStats run_stats = runner.last_run_stats();
  stats.cells = counting.cells();
  stats.failed = total - std::min(total, stats.cells);
  stats.setup_ns = claimed - start;
  stats.run_ns = end - claimed;
  stats.reorder_high_water = run_stats.reorder_high_water;
  stats.workers = run_stats.workers_used;
  return stats;
}

/// Runs `matrix` into `sink` for its output only (worker-invariance slice).
template <typename R>
void run_slice(const cp::Registry<R>& registry, const Matrix& matrix,
               cp::ResultSink<R>& sink, int workers) {
  cp::RunnerOptions options;
  options.workers = workers;
  const cp::CampaignRunner runner{options};
  std::vector<cp::ScenarioSpec> specs;
  for (std::size_t i = 0; i < matrix.size(); ++i) specs.push_back(matrix.at(i));
  registry.run(runner, specs, sink);
}

template <typename Pool>
const typename Pool::value_type& resolve_client(const Pool& pool,
                                                const std::string& client,
                                                const char* what) {
  return cp::find_registered(
      pool, client, [](const ClientProfile& p) { return p.display_name(); },
      what);
}

std::string time_or_dash(const std::optional<SimTime>& t) {
  return t ? std::to_string(t->count()) : std::string{"-"};
}

char family_char(const std::optional<lazyeye::simnet::Family>& f) {
  if (!f) return 'x';
  return *f == lazyeye::simnet::Family::kIpv6 ? '6' : '4';
}

// ---- testbed_sweep ----------------------------------------------------------

constexpr std::int64_t kRdDelaysMs[] = {0, 25, 50, 100, 200, 400};
constexpr int kAddressesPerFamily = 10;

enum TestbedClass : std::uint16_t { kCad = 0, kRd = 1, kAddrSel = 2 };

struct TestbedSetup {
  std::vector<ClientProfile> profiles;
  std::unique_ptr<lazyeye::testbed::LocalTestbed> bed;
  std::shared_ptr<Matrix> matrix;
};

TestbedSetup make_testbed(std::uint64_t reference) {
  TestbedSetup s;
  s.profiles = lazyeye::clients::local_testbed_profiles();
  s.profiles.push_back(lazyeye::clients::safari_profile("17.6"));
  s.bed = std::make_unique<lazyeye::testbed::LocalTestbed>(
      lazyeye::testbed::TestbedOptions{.seed = reference_seed(reference),
                                       .dns_timeout_override = std::nullopt});
  s.matrix = std::make_shared<Matrix>();
  s.matrix->add(s.bed->multi_client_cad_stream(
      s.profiles, lazyeye::testbed::SweepSpec::fine_cad()));
  std::vector<cp::ScenarioSpec> extra;
  // Safari's 2 s CAD lies outside the fine sweep: one cell either side.
  const ClientProfile& safari = s.profiles.back();
  extra.push_back(s.bed->cad_spec(safari, lazyeye::ms(1800)));
  extra.push_back(s.bed->cad_spec(safari, lazyeye::ms(2300)));
  for (const ClientProfile& profile : s.profiles) {
    for (const auto type : {lazyeye::dns::RrType::kA,
                            lazyeye::dns::RrType::kAaaa}) {
      for (const std::int64_t delay : kRdDelaysMs) {
        extra.push_back(s.bed->rd_spec(profile, type, lazyeye::ms(delay)));
      }
    }
  }
  for (const ClientProfile& profile : s.profiles) {
    extra.push_back(s.bed->address_selection_spec(profile, kAddressesPerFamily));
  }
  s.matrix->add(cp::SpecStream::of(std::move(extra)));
  return s;
}

void register_testbed(cp::Registry<lazyeye::testbed::RunRecord>& registry,
                      const TestbedSetup& setup, std::uint32_t rep) {
  const auto& bed = *setup.bed;
  const auto& profiles = setup.profiles;
  auto execute = [&bed, &profiles, rep](const cp::ScenarioSpec& spec,
                                        std::uint16_t cls) {
    const ClientProfile& profile = resolve_client(profiles, spec.client, "testbed");
    return timed_call(SpanName::kTestbedRunSpec, spec, cls, rep,
                      [&] { return bed.run_spec(profile, spec); });
  };
  registry.add<cp::CadCase>(
      [execute](const cp::ScenarioSpec& spec, const cp::CadCase&) {
        return execute(spec, kCad);
      });
  registry.add<cp::ResolutionDelayCase>(
      [execute](const cp::ScenarioSpec& spec, const cp::ResolutionDelayCase&) {
        return execute(spec, kRd);
      });
  registry.add<cp::AddressSelectionCase>(
      [execute](const cp::ScenarioSpec& spec, const cp::AddressSelectionCase&) {
        return execute(spec, kAddrSel);
      });
}

/// The per-client CAD/RD/address-selection table, one line per cell, plus
/// the observations the paper anchors are checked on.
class TestbedTable final : public cp::ResultSink<lazyeye::testbed::RunRecord> {
 public:
  void cell(const cp::ScenarioSpec& spec,
            lazyeye::testbed::RunRecord rec) override {
    std::string kind = "sel";
    if (spec.get_if<cp::CadCase>() != nullptr) {
      kind = "cad";
      cads_.push_back({rec.client, rec.configured_delay, rec.observed_cad,
                       rec.established_family});
    } else if (const auto* rd = spec.get_if<cp::ResolutionDelayCase>()) {
      kind = rd->delayed_type == lazyeye::dns::RrType::kA ? "rd-A" : "rd-AAAA";
    }
    std::string attempts;
    for (const auto f : rec.attempt_sequence) {
      attempts.push_back(f == lazyeye::simnet::Family::kIpv6 ? '6' : '4');
    }
    text_ += lazyeye::str_format(
        "%s\t%s\t%lld\t%c\t%s\t%s\t%s\t%d\t%d\t%d\t%d\t%s\t%lld\n",
        rec.client.c_str(), kind.c_str(),
        static_cast<long long>(rec.configured_delay.count()),
        family_char(rec.established_family),
        time_or_dash(rec.observed_cad).c_str(),
        time_or_dash(rec.observed_rd).c_str(),
        time_or_dash(rec.a_wait_gap).c_str(), rec.aaaa_query_first ? 1 : 0,
        rec.v6_addresses_used, rec.v4_addresses_used, rec.fetch_ok ? 1 : 0,
        attempts.c_str(), static_cast<long long>(rec.completion_time.count()));
  }

  const std::string& text() const { return text_; }

  /// Figure 2 ground truth: Chromium family 300 ms, Firefox 250 ms, curl
  /// 200 ms (each the most frequent CAD a client showed), wget never falls
  /// back, Safari falls back at 2 s (IPv6 at 1800 ms, CAD 2 s at 2300 ms).
  std::vector<std::string> anchor_errors() const {
    std::vector<std::string> errors;
    std::map<std::string, std::map<std::int64_t, int>> cad_counts;
    std::map<std::string, int> family_of_client;
    for (const Cad& c : cads_) {
      family_of_client[c.client] = family_of(c.client);
      if (c.observed) ++cad_counts[c.client][c.observed->count()];
    }
    for (const auto& [client, family] : family_of_client) {
      const auto& counts = cad_counts[client];
      std::int64_t mode = -1;
      int best = 0;
      for (const auto& [cad, n] : counts) {
        if (n > best) {
          best = n;
          mode = cad;
        }
      }
      const auto expect = [&](std::int64_t want_ms) {
        if (mode != lazyeye::ms(want_ms).count()) {
          errors.push_back(lazyeye::str_format(
              "%s: CAD %lld ns, paper %lld ms", client.c_str(),
              static_cast<long long>(mode), static_cast<long long>(want_ms)));
        }
      };
      if (family == 0) expect(300);
      if (family == 1) expect(250);
      if (family == 3) expect(200);
      if (family == 4 && !counts.empty()) {
        errors.push_back(client + ": fell back to IPv4, paper: never");
      }
    }
    for (const Cad& c : cads_) {
      if (family_of(c.client) == 4 &&
          c.family != lazyeye::simnet::Family::kIpv6) {
        errors.push_back(c.client + ": left IPv6, paper: never falls back");
        break;
      }
    }
    bool safari_below = false;
    bool safari_above = false;
    for (const Cad& c : cads_) {
      if (family_of(c.client) != 2) continue;
      if (c.delay == lazyeye::ms(1800)) {
        safari_below = c.family == lazyeye::simnet::Family::kIpv6;
      }
      if (c.delay == lazyeye::ms(2300)) {
        safari_above = c.family == lazyeye::simnet::Family::kIpv4 &&
                       c.observed == lazyeye::sec(2);
      }
    }
    if (!safari_below || !safari_above) {
      errors.push_back("Safari: no 2 s CAD between 1800 and 2300 ms");
    }
    return errors;
  }

 private:
  struct Cad {
    std::string client;
    SimTime delay{0};
    std::optional<SimTime> observed;
    std::optional<lazyeye::simnet::Family> family;
  };
  std::string text_;
  std::vector<Cad> cads_;
};

class TestbedSweep final : public Workload {
 public:
  std::string_view name() const override { return "testbed_sweep"; }

  RepStats run(std::uint64_t reference, int workers,
               std::uint32_t rep) override {
    const std::uint64_t start = now_ns();
    const std::uint64_t cpu_start = process_cpu_ns();
    RepStats stats;
    run_isolated(stats, [&] {
      const TestbedSetup setup = make_testbed(reference);
      cp::Registry<lazyeye::testbed::RunRecord> registry;
      register_testbed(registry, setup, rep);
      TestbedTable table;
      stats = run_matrix(registry, setup.matrix, table, workers, start,
                         cpu_start, reference, rep);
      stats.digest = digest_hex(table.text());
      for (std::string& e : table.anchor_errors()) {
        stats.errors.push_back(std::move(e));
      }
    });
    return stats;
  }

  std::string slice_output(std::uint64_t reference, int workers) override {
    const TestbedSetup setup = make_testbed(reference);
    cp::Registry<lazyeye::testbed::RunRecord> registry;
    register_testbed(registry, setup, 0);
    TestbedTable table;
    run_slice(registry, setup.matrix->slice(29), table, workers);
    return table.text();
  }

  std::string replay(std::uint64_t reference,
                     std::uint64_t cell) const override {
    const TestbedSetup setup = make_testbed(reference);
    const cp::ScenarioSpec spec = setup.matrix->at(cell);
    return lazyeye::str_format(
        "testbed seed=%llu run_id=%llu \"%s\"",
        static_cast<unsigned long long>(reference_seed(reference)),
        static_cast<unsigned long long>(spec.seed), spec.label.c_str());
  }

  std::string class_name(std::uint16_t cls) const override {
    switch (cls) {
      case kCad: return "cad";
      case kRd: return "rd";
      default: return "addrsel";
    }
  }
};

// ---- long_worlds -------------------------------------------------------------

using LongOutcome =
    std::variant<lazyeye::webtool::RepetitionOutcome,
                 lazyeye::resolverlab::RunObservation>;

enum LongClass : std::uint16_t { kWebRepetition = 0, kResolverCell = 1 };

struct WebPart {
  ClientProfile profile;
  bool rd_mode = false;
};

struct LongSetup {
  std::vector<ClientProfile> web_profiles;
  std::vector<WebPart> web_parts;  // matrix parts 0..n-1, in order
  std::vector<lazyeye::resolvers::ServiceProfile> services;
  std::unique_ptr<lazyeye::webtool::WebTool> tool;
  lazyeye::resolverlab::LabConfig lab;
  std::shared_ptr<Matrix> matrix;
};

LongSetup make_long(std::uint64_t reference) {
  namespace cl = lazyeye::clients;
  LongSetup s;
  const ClientProfile chrome = cl::chromium_profile("Chrome", "130.0", "10-2024");
  const ClientProfile firefox = cl::firefox_profile("132.0", "10-2024");
  const ClientProfile safari = cl::safari_profile("17.6");
  const ClientProfile mobile = cl::mobile_safari_profile("17.6");
  const ClientProfile akamai = cl::icpr_egress_profile("Akamai");
  const ClientProfile cloudflare = cl::icpr_egress_profile("Cloudflare");
  s.web_profiles = {chrome, firefox, safari, mobile, akamai, cloudflare};

  auto config = lazyeye::webtool::WebToolConfig::paper_default();
  config.seed = reference_seed(reference);
  s.tool = std::make_unique<lazyeye::webtool::WebTool>(config);
  s.matrix = std::make_shared<Matrix>();
  // Figure 4a CAD rows, then the Figure 4b RD (AAAA delayed) rows.
  for (const ClientProfile& p : s.web_profiles) {
    s.matrix->add(
        s.tool->campaign_spec_stream(p, false, lazyeye::dns::RrType::kAaaa));
    s.web_parts.push_back({p, false});
  }
  for (const ClientProfile& p : {safari, chrome, akamai, cloudflare}) {
    s.matrix->add(
        s.tool->campaign_spec_stream(p, true, lazyeye::dns::RrType::kAaaa));
    s.web_parts.push_back({p, true});
  }
  for (const auto& service : lazyeye::resolvers::all_service_profiles()) {
    if (service.ipv6_resolution_capable) s.services.push_back(service);
  }
  s.lab = lazyeye::resolverlab::LabConfig::paper_grid();
  s.lab.seed = reference_seed(reference);
  s.matrix->add(
      lazyeye::resolverlab::cross_service_cell_spec_stream(s.services, s.lab));
  return s;
}

void register_long(cp::Registry<LongOutcome>& registry, const LongSetup& setup,
                   std::uint32_t rep) {
  const auto& tool = *setup.tool;
  const auto& profiles = setup.web_profiles;
  const auto& services = setup.services;
  registry.add<cp::WebRepetitionCase>(
      [&tool, &profiles, rep](const cp::ScenarioSpec& spec,
                              const cp::WebRepetitionCase&) -> LongOutcome {
        const ClientProfile& profile =
            resolve_client(profiles, spec.client, "webtool");
        return timed_call(SpanName::kWebtoolRepetition, spec, kWebRepetition,
                          rep, [&] { return tool.run_repetition(profile, spec); });
      });
  registry.add<cp::ResolverCellCase>(
      [&services, rep](const cp::ScenarioSpec& spec,
                       const cp::ResolverCellCase& cell) -> LongOutcome {
        const auto& service = cp::find_registered(
            services, cell.service,
            [](const lazyeye::resolvers::ServiceProfile& p) { return p.service; },
            "resolverlab");
        return timed_call(SpanName::kResolverlabCell, spec, kResolverCell, rep,
                          [&] {
                            return lazyeye::resolverlab::run_cell(service, spec);
                          });
      });
}

/// Table 3 rows (one per service) and the web tool's per-bucket tallies (one
/// per client and test), folded as cells stream in.
class LongTable final : public cp::ResultSink<LongOutcome> {
 public:
  LongTable(const LongSetup& setup, const Matrix& matrix)
      : setup_{setup}, matrix_{matrix}, web_(setup.web_parts.size()),
        observations_(setup.services.size()) {
    const std::size_t buckets = setup.tool->config().delays.size();
    for (WebTally& t : web_) t.per_bucket.assign(buckets, {0, 0, 0});
  }

  void cell(const cp::ScenarioSpec& spec, LongOutcome outcome) override {
    if (const auto* rep =
            std::get_if<lazyeye::webtool::RepetitionOutcome>(&outcome)) {
      WebTally& t = web_[matrix_.part_of(spec.id)];
      for (std::size_t i = 0; i < rep->families.size() && i < t.per_bucket.size();
           ++i) {
        const auto& f = rep->families[i];
        const int slot = !f ? 2 : *f == lazyeye::simnet::Family::kIpv6 ? 0 : 1;
        ++t.per_bucket[i][slot];
      }
      if (rep->inconsistent) ++t.inconsistent;
      return;
    }
    const auto& cell = std::get<cp::ResolverCellCase>(spec.payload);
    for (std::size_t s = 0; s < setup_.services.size(); ++s) {
      if (setup_.services[s].service == cell.service) {
        observations_[s].push_back(
            std::get<lazyeye::resolverlab::RunObservation>(outcome));
        return;
      }
    }
  }

  std::string text() const {
    std::string out;
    for (std::size_t p = 0; p < web_.size(); ++p) {
      const WebTally& t = web_[p];
      out += lazyeye::str_format(
          "webtool\t%s\t%s\t", setup_.web_parts[p].profile.display_name().c_str(),
          setup_.web_parts[p].rd_mode ? "rd" : "cad");
      for (const auto& b : t.per_bucket) {
        out += lazyeye::str_format("%d/%d/%d ", b[0], b[1], b[2]);
      }
      out += lazyeye::str_format("\tinconsistent=%d\n", t.inconsistent);
    }
    for (std::size_t s = 0; s < setup_.services.size(); ++s) {
      const auto row = lazyeye::resolverlab::aggregate_service(
          setup_.services[s], observations_[s]);
      out += lazyeye::str_format(
          "resolver\t%s\t%s\t%d\t%.9f\t%s\t%d\t%d\t%zu\n", row.service.c_str(),
          lazyeye::resolvers::aaaa_order_symbol(row.aaaa_order),
          row.aaaa_order_known ? 1 : 0, row.ipv6_share,
          time_or_dash(row.max_ipv6_delay).c_str(), row.max_ipv6_packets,
          row.delay_unmeasurable ? 1 : 0, row.runs.size());
    }
    return out;
  }

 private:
  struct WebTally {
    std::vector<std::array<int, 3>> per_bucket;  // v6, v4, failed
    int inconsistent = 0;
  };
  const LongSetup& setup_;
  const Matrix& matrix_;
  std::vector<WebTally> web_;
  std::vector<std::vector<lazyeye::resolverlab::RunObservation>> observations_;
};

class LongWorlds final : public Workload {
 public:
  std::string_view name() const override { return "long_worlds"; }

  RepStats run(std::uint64_t reference, int workers,
               std::uint32_t rep) override {
    const std::uint64_t start = now_ns();
    const std::uint64_t cpu_start = process_cpu_ns();
    RepStats stats;
    run_isolated(stats, [&] {
      const LongSetup setup = make_long(reference);
      cp::Registry<LongOutcome> registry;
      register_long(registry, setup, rep);
      LongTable table{setup, *setup.matrix};
      stats = run_matrix(registry, setup.matrix, table, workers, start,
                         cpu_start, reference, rep);
      stats.digest = digest_hex(table.text() + web_reports(setup, reference));
    });
    return stats;
  }

  std::string slice_output(std::uint64_t reference, int workers) override {
    // One line per cell: LongTable's web-tool tallies need whole matrix
    // parts, which a slice does not have.
    const LongSetup setup = make_long(reference);
    cp::Registry<LongOutcome> registry;
    register_long(registry, setup, 0);
    const Matrix slice = setup.matrix->slice(53);
    std::string out;
    cp::CallbackSink<LongOutcome> sink{
        [&out](const cp::ScenarioSpec& spec, LongOutcome outcome) {
          if (const auto* rep =
                  std::get_if<lazyeye::webtool::RepetitionOutcome>(&outcome)) {
            out += spec.label + ":";
            for (const auto& f : rep->families) out.push_back(family_char(f));
            out += rep->inconsistent ? " inconsistent\n" : "\n";
            return;
          }
          const auto& o = std::get<lazyeye::resolverlab::RunObservation>(outcome);
          out += lazyeye::str_format(
              "%s: %d %lld %d %d %d %d\n", spec.label.c_str(), o.resolved ? 1 : 0,
              static_cast<long long>(o.completed.count()), o.v6_main_queries,
              o.v4_main_queries, o.first_query_v6 ? 1 : 0,
              o.answer_via_v6 ? 1 : 0);
        }};
    run_slice(registry, slice, sink, workers);
    return out;
  }

  std::string replay(std::uint64_t reference,
                     std::uint64_t cell) const override {
    const LongSetup setup = make_long(reference);
    const cp::ScenarioSpec spec = setup.matrix->at(cell);
    if (const auto* web = spec.get_if<cp::WebRepetitionCase>()) {
      return lazyeye::str_format(
          "webtool seed=%llu %s cell_seed=%llu \"%s\"",
          static_cast<unsigned long long>(reference_seed(reference)),
          web->rd_mode ? "rd" : "cad",
          static_cast<unsigned long long>(spec.seed), spec.label.c_str());
    }
    return lazyeye::str_format(
        "resolverlab seed=%llu cell_seed=%llu \"%s\"",
        static_cast<unsigned long long>(setup.lab.seed),
        static_cast<unsigned long long>(spec.seed), spec.label.c_str());
  }

  std::string class_name(std::uint16_t cls) const override {
    return cls == kWebRepetition ? "webtool-rep" : "resolver-cell";
  }

 private:
  /// The web tool's own reports for the matrix's web-tool rows: per-bucket
  /// tallies and the CAD interval WebTool estimates from them. Computed once
  /// per reference seed, outside the timed repetition (the report runs the
  /// same repetitions again, through WebTool::run_cad_test / run_rd_test).
  const std::string& web_reports(const LongSetup& setup,
                                 std::uint64_t reference) {
    auto [it, fresh] = reports_.try_emplace(reference);
    if (!fresh) return it->second;
    lazyeye::webtool::WebTool tool{setup.tool->config()};
    for (const WebPart& part : setup.web_parts) {
      const lazyeye::webtool::WebToolReport report =
          part.rd_mode ? tool.run_rd_test(part.profile)
                       : tool.run_cad_test(part.profile);
      std::string& out = it->second;
      out += lazyeye::str_format("webtool-report\t%s\t%s\t",
                                 report.client.c_str(),
                                 part.rd_mode ? "rd" : "cad");
      for (const auto& d : report.per_delay) {
        out += lazyeye::str_format("%d/%d/%d ", d.v6_used, d.v4_used,
                                   d.failures);
      }
      out += lazyeye::str_format(
          "\tinconsistent=%d/%d\tinterval=(%s,%s]\n",
          report.inconsistent_repetitions, report.total_repetitions,
          time_or_dash(report.interval_low).c_str(),
          time_or_dash(report.interval_high).c_str());
    }
    return it->second;
  }

  std::map<std::uint64_t, std::string> reports_;
};

// ---- conformance_matrix ---------------------------------------------------

constexpr std::uint32_t kScheduleStream = 0xFA;
constexpr std::uint32_t kSchedules = 24;
constexpr std::uint16_t kScheduleClass = conf::kFaultKindCount;

struct ConformanceSetup {
  std::vector<ClientProfile> profiles;
  std::unique_ptr<conf::ConformanceHarness> harness;
  std::shared_ptr<Matrix> matrix;
};

ConformanceSetup make_conformance(std::uint64_t reference) {
  ConformanceSetup s;
  s.profiles = lazyeye::clients::local_testbed_profiles();
  s.profiles.push_back(lazyeye::clients::safari_profile("17.6"));
  const std::uint64_t seed = reference_seed(reference);
  s.harness = std::make_unique<conf::ConformanceHarness>(
      conf::ConformanceOptions{.seed = seed, .decoys_per_family = 1});
  s.matrix = std::make_shared<Matrix>();
  s.matrix->add(cp::SpecStream::of(s.harness->differential_specs(s.profiles)));
  std::vector<cp::ScenarioSpec> schedules;
  for (std::uint32_t index = 0; index < kSchedules; ++index) {
    const conf::FaultSchedule schedule =
        conf::FaultSchedule::generate(seed, kScheduleStream, index);
    for (const ClientProfile& profile : s.profiles) {
      schedules.push_back(s.harness->schedule_spec(profile, schedule, 2));
    }
  }
  s.matrix->add(cp::SpecStream::of(std::move(schedules)));
  return s;
}

void register_conformance(cp::Registry<conf::ConformanceRecord>& registry,
                          const ConformanceSetup& setup, std::uint32_t rep) {
  const auto& harness = *setup.harness;
  const auto& profiles = setup.profiles;
  auto execute = [&harness, &profiles, rep](const cp::ScenarioSpec& spec,
                                            std::uint16_t cls) {
    const ClientProfile& profile =
        resolve_client(profiles, spec.client, "conformance");
    return timed_call(SpanName::kConformanceRunSpec, spec, cls, rep,
                      [&] { return harness.run_spec(profile, spec); });
  };
  registry.add<cp::ConformanceCase>(
      [execute](const cp::ScenarioSpec& spec, const cp::ConformanceCase& c) {
        return execute(spec, static_cast<std::uint16_t>(c.fault.kind));
      });
  registry.add<cp::ScheduleCase>(
      [execute](const cp::ScenarioSpec& spec, const cp::ScheduleCase&) {
        return execute(spec, kScheduleClass);
      });
}

class ConformanceMatrix final : public Workload {
 public:
  std::string_view name() const override { return "conformance_matrix"; }

  RepStats run(std::uint64_t reference, int workers,
               std::uint32_t rep) override {
    const std::uint64_t start = now_ns();
    const std::uint64_t cpu_start = process_cpu_ns();
    RepStats stats;
    run_isolated(stats, [&] {
      const ConformanceSetup setup = make_conformance(reference);
      cp::Registry<conf::ConformanceRecord> registry;
      register_conformance(registry, setup, rep);
      conf::VerdictTableSink table;
      stats = run_matrix(registry, setup.matrix, table, workers, start,
                         cpu_start, reference, rep);
      stats.digest = digest_hex(table.text());
    });
    return stats;
  }

  std::string slice_output(std::uint64_t reference, int workers) override {
    const ConformanceSetup setup = make_conformance(reference);
    cp::Registry<conf::ConformanceRecord> registry;
    register_conformance(registry, setup, 0);
    conf::VerdictTableSink table;
    run_slice(registry, setup.matrix->slice(13), table, workers);
    return table.text();
  }

  std::string replay(std::uint64_t reference,
                     std::uint64_t cell) const override {
    const ConformanceSetup setup = make_conformance(reference);
    const cp::ScenarioSpec spec = setup.matrix->at(cell);
    if (const auto* c = spec.get_if<cp::ConformanceCase>()) {
      return lazyeye::str_format(
          "example_conformance_probe \"%s\" %s %llu %u %u  # %s",
          spec.client.c_str(), conf::fault_kind_name(c->fault.kind),
          static_cast<unsigned long long>(c->fault.seed), c->fault.stream,
          c->fault.index, c->fault.repro().c_str());
    }
    const auto& s = std::get<cp::ScheduleCase>(spec.payload).schedule;
    return lazyeye::str_format(
        "example_conformance_probe \"%s\" --schedule %llu %u %u  # %s",
        spec.client.c_str(), static_cast<unsigned long long>(s.seed), s.stream,
        s.index, s.repro().c_str());
  }

  std::string class_name(std::uint16_t cls) const override {
    if (cls >= kScheduleClass) return "schedule";
    return conf::fault_kind_name(static_cast<conf::FaultKind>(cls));
  }
};

// ---- fault_hunt ----------------------------------------------------------------

constexpr int kHuntBudget = 32;
constexpr int kSliceHuntBudget = 6;

class FaultHuntWorkload final : public Workload {
 public:
  explicit FaultHuntWorkload(std::string tmp_dir) : tmp_dir_{std::move(tmp_dir)} {}

  std::string_view name() const override { return "fault_hunt"; }

  RepStats run(std::uint64_t reference, int /*workers*/,
               std::uint32_t rep) override {
    const std::uint64_t start = now_ns();
    const std::uint64_t cpu_start = process_cpu_ns();
    RepStats stats;
    stats.reference = reference;
    stats.workers = 1;
    run_isolated(stats, [&] { hunt(reference, rep, start, cpu_start, stats); });
    return stats;
  }

  std::string slice_output(std::uint64_t reference, int workers) override {
    conf::HuntOptions options = hunt_options(reference);
    options.budget = kSliceHuntBudget;
    options.workers = workers;
    conf::FaultHunt hunt{options, lazyeye::clients::local_testbed_profiles()};
    return conf::FaultHunt::corpus_text(hunt.run().corpus);
  }

  std::string replay(std::uint64_t reference,
                     std::uint64_t cell) const override {
    return lazyeye::str_format(
        "lazyeye_hunt hunt --journal hunt.journal --seed %llu --budget %llu  "
        "# candidate %llu is the last one",
        static_cast<unsigned long long>(reference_seed(reference)),
        static_cast<unsigned long long>(cell + 1),
        static_cast<unsigned long long>(cell));
  }

  std::string class_name(std::uint16_t) const override { return "candidate"; }

 private:
  /// One journaled hunt on the calling thread, a sample per candidate.
  void hunt(std::uint64_t reference, std::uint32_t rep, std::uint64_t start,
            std::uint64_t cpu_start, RepStats& stats) const {
    std::filesystem::create_directories(tmp_dir_);
    const std::string journal =
        tmp_dir_ + "/hunt-" + std::to_string(::getpid()) + ".journal";
    std::filesystem::remove(journal);

    conf::HuntOptions options = hunt_options(reference);
    options.journal_path = journal;
    std::uint64_t last = 0;
    std::uint64_t last_cpu = 0;
    std::uint64_t last_allocs = 0;
    const lazyeye::simnet::ScenarioPool& pool =
        lazyeye::simnet::ScenarioPool::local();
    std::uint64_t last_leases = 0;
    std::uint64_t last_reuses = 0;
    options.after_cell = [&](int index) {
      const std::uint64_t now = now_ns();
      const auto cell = static_cast<std::uint64_t>(index);
      Tracer::instance().record(SpanName::kHuntCandidate, cell, last, now);
      Span span{SpanName::kHuntAfterCell, cell};
      CellSample sample;
      sample.dur_ns = thread_cpu_ns() - last_cpu;
      sample.allocs = thread_allocations() - last_allocs;
      sample.cell = cell;
      sample.leases = static_cast<std::uint32_t>(pool.leases() - last_leases);
      sample.reuses = static_cast<std::uint32_t>(pool.reuses() - last_reuses);
      sample.rep = rep;
      local_samples().add(sample);
      last_leases = pool.leases();
      last_reuses = pool.reuses();
      last_allocs = thread_allocations();
      last_cpu = thread_cpu_ns();
      last = now_ns();
    };
    conf::FaultHunt hunt{options, lazyeye::clients::local_testbed_profiles()};

    conf::HuntResult result;
    std::uint64_t claimed = 0;
    try {
      Span span{SpanName::kHuntRun, rep};
      last_leases = pool.leases();
      last_reuses = pool.reuses();
      last_allocs = thread_allocations();
      last_cpu = thread_cpu_ns();
      last = now_ns();
      claimed = last;
      stats.claim_cpu_ns = process_cpu_ns();
      result = hunt.run();
    } catch (const std::exception& e) {
      stats.errors.push_back(std::string{"hunt threw: "} + e.what());
    }
    const std::uint64_t end = now_ns();
    stats.cpu_ns = process_cpu_ns() - cpu_start;
    if (claimed == 0) claimed = end;
    Tracer::instance().record(SpanName::kSetup, rep, start, claimed);
    stats.setup_ns = claimed - start;
    stats.run_ns = end - claimed;
    stats.cells = static_cast<std::size_t>(result.candidates);
    stats.failed = static_cast<std::size_t>(kHuntBudget) -
                   std::min<std::size_t>(kHuntBudget, stats.cells);
    stats.digest = digest_hex(conf::FaultHunt::corpus_text(result.corpus));
    stats.corpus = result.corpus.size();
    stats.violating = static_cast<std::size_t>(result.violating_candidates);
    stats.coverage = result.coverage.size();
    for (const conf::CorpusEntry& entry : result.corpus) {
      stats.corpus_hex.push_back(conf::schedule_to_hex(entry.schedule));
    }
    std::error_code ec;
    stats.journal_bytes = std::filesystem::file_size(journal, ec);
    if (ec) stats.journal_bytes = 0;
    std::filesystem::remove(journal, ec);
  }

  static conf::HuntOptions hunt_options(std::uint64_t reference) {
    // The same options `lazyeye_hunt hunt --seed S --budget B` uses, so a
    // candidate replays from the command line.
    conf::HuntOptions options;
    options.seed = reference_seed(reference);
    options.budget = kHuntBudget;
    options.workers = 1;
    options.conformance.seed = options.seed;
    return options;
  }

  std::string tmp_dir_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "testbed_sweep", "long_worlds", "conformance_matrix", "fault_hunt"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const std::string& tmp_dir) {
  if (name == "testbed_sweep") return std::make_unique<TestbedSweep>();
  if (name == "long_worlds") return std::make_unique<LongWorlds>();
  if (name == "conformance_matrix") return std::make_unique<ConformanceMatrix>();
  if (name == "fault_hunt") return std::make_unique<FaultHuntWorkload>(tmp_dir);
  return nullptr;
}

}  // namespace perfbench
