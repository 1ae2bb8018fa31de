// Span tracing for the benchmark driver.
//
// Spans are recorded only around the calls the driver makes into each
// layer's public functions (spec-stream at(), the layer executors, the
// sink's cell(), the hunt's after_cell hook, the layer probes); nothing
// inside src/ is instrumented. Each span carries a name, start and end on
// the host's monotonic clock, the span that was open on the same thread when
// it started (its parent), and the id of the cell it belongs to.
//
// Spans go to per-thread buffers (no lock on the hot path) and stay in
// memory until the run ends; write_tsv() dumps them. With tracing disabled
// a Span is one relaxed load and nothing else.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nanoseconds on the host's monotonic clock.
std::uint64_t now_ns();

/// CPU time of the calling thread, and of the whole process, in ns. Time
/// the thread waits (for a disk, for a core another thread holds, or while
/// the hypervisor runs another guest on its vCPU) does not count.
std::uint64_t thread_cpu_ns();
std::uint64_t process_cpu_ns();

/// Every span name the driver emits. The order is the report order.
enum class SpanName : std::uint8_t {
  kRepetition,        // one workload repetition (setup + matrix)
  kSetup,             // profiles, harness, stream, runner construction
  kSpecAt,            // SpecStream::at() of the driver's matrix
  kTestbedRunSpec,    // testbed::LocalTestbed::run_spec
  kWebtoolRepetition, // webtool::WebTool::run_repetition
  kResolverlabCell,   // resolverlab::run_cell
  kConformanceRunSpec,// conformance::ConformanceHarness::run_spec
  kSinkCell,          // ResultSink::cell()
  kHuntRun,           // conformance::FaultHunt::run
  kHuntCandidate,     // interval between two after_cell calls
  kHuntAfterCell,     // the hunt's after_cell hook
  kProbeDnsDecode,    // DnsMessage::decode_into probe
  kProbeDnsEncode,    // DnsMessage::encode_into probe
  kProbeEventLoop,    // EventLoop schedule_at + run probe
  kProbeScheduleCodec,// schedule_to_hex -> schedule_from_hex probe
  kCount,
};

inline constexpr std::size_t kSpanNameCount =
    static_cast<std::size_t>(SpanName::kCount);

/// Stable dotted name, e.g. "testbed.run_spec".
std::string_view span_name(SpanName name);

/// Cell id of spans that belong to no single cell.
inline constexpr std::uint64_t kNoCell = ~0ULL;

struct SpanRecord {
  std::uint64_t id = 0;      // unique per run; 0 is never used
  std::uint64_t parent = 0;  // 0 = root span on its thread
  std::uint64_t cell = kNoCell;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;
  SpanName name = SpanName::kRepetition;
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread; returns its id.
  std::uint64_t open(SpanName name, std::uint64_t cell);
  /// Closes the innermost open span of the calling thread (must be `id`).
  void close(std::uint64_t id);
  /// Records an already-measured interval as a child of the innermost open
  /// span of the calling thread.
  void record(SpanName name, std::uint64_t cell, std::uint64_t start_ns,
              std::uint64_t end_ns);

  /// Every finished span of every thread, ordered by (thread, id). Call only
  /// while no traced work is running.
  std::vector<SpanRecord> collect() const;
  std::size_t span_count() const;
  /// Drops every recorded span (no traced work may be running).
  void clear();

  /// One thread's spans (defined in trace.cc).
  struct ThreadBuffer;

 private:
  ThreadBuffer& local();

  std::atomic<bool> enabled_{false};
};

/// RAII span; a no-op while tracing is disabled.
class Span {
 public:
  Span(SpanName name, std::uint64_t cell) {
    Tracer& tracer = Tracer::instance();
    if (tracer.enabled()) id_ = tracer.open(name, cell);
  }
  ~Span() {
    if (id_ != 0) Tracer::instance().close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint64_t id_ = 0;
};

/// Self time per span, in the order of `spans`: duration minus the time its
/// direct children cover. Children run on their parent's thread inside the
/// parent's interval, so their durations never overlap and a well-nested
/// trace has no negative self time.
std::vector<std::int64_t> self_times(const std::vector<SpanRecord>& spans);

/// One tab-separated line per span with a header line:
/// id, parent, thread, name, cell (-1 for none), start_ns, end_ns, self_ns.
void write_tsv(std::FILE* out, const std::vector<SpanRecord>& spans);

}  // namespace perfbench
