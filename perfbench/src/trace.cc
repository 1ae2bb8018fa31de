#include "trace.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

std::uint64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

std::uint64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

std::uint64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

std::string_view span_name(SpanName name) {
  static constexpr std::string_view kNames[kSpanNameCount] = {
      "workload.repetition",
      "workload.setup",
      "campaign.spec_at",
      "testbed.run_spec",
      "webtool.run_repetition",
      "resolverlab.run_cell",
      "conformance.run_spec",
      "campaign.sink_cell",
      "hunt.run",
      "hunt.candidate",
      "hunt.after_cell",
      "probe.dns_decode",
      "probe.dns_encode",
      "probe.event_loop",
      "probe.schedule_codec",
  };
  return kNames[static_cast<std::size_t>(name)];
}

namespace {

// Span ids: thread index in the high bits, per-thread sequence below, so ids
// are unique without a shared counter and sort by (thread, open order).
constexpr int kSeqBits = 40;

std::mutex g_buffers_mutex;

}  // namespace

struct Tracer::ThreadBuffer {
  std::uint32_t thread = 0;
  std::uint64_t seq = 0;
  std::vector<SpanRecord> open;
  std::vector<SpanRecord> done;
};

namespace {

std::vector<std::unique_ptr<Tracer::ThreadBuffer>>& all_buffers() {
  static std::vector<std::unique_ptr<Tracer::ThreadBuffer>> buffers;
  return buffers;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer& Tracer::local() {
  // Buffers are owned by the registry, not the thread, so spans of pool
  // threads survive until collect().
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock{g_buffers_mutex};
    auto& buffers = all_buffers();
    buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = buffers.back().get();
    buffer->thread = static_cast<std::uint32_t>(buffers.size());
  }
  return *buffer;
}

std::uint64_t Tracer::open(SpanName name, std::uint64_t cell) {
  ThreadBuffer& tb = local();
  SpanRecord span;
  span.id = (static_cast<std::uint64_t>(tb.thread) << kSeqBits) | ++tb.seq;
  span.parent = tb.open.empty() ? 0 : tb.open.back().id;
  span.cell = cell;
  span.thread = tb.thread;
  span.name = name;
  span.start_ns = now_ns();
  tb.open.push_back(span);
  return span.id;
}

void Tracer::close(std::uint64_t id) {
  const std::uint64_t end = now_ns();
  ThreadBuffer& tb = local();
  if (tb.open.empty() || tb.open.back().id != id) {
    throw std::logic_error("perfbench: spans closed out of order");
  }
  SpanRecord span = tb.open.back();
  tb.open.pop_back();
  span.end_ns = end;
  tb.done.push_back(span);
}

void Tracer::record(SpanName name, std::uint64_t cell, std::uint64_t start_ns,
                    std::uint64_t end_ns) {
  if (!enabled()) return;
  ThreadBuffer& tb = local();
  SpanRecord span;
  span.id = (static_cast<std::uint64_t>(tb.thread) << kSeqBits) | ++tb.seq;
  span.parent = tb.open.empty() ? 0 : tb.open.back().id;
  span.cell = cell;
  span.thread = tb.thread;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  tb.done.push_back(span);
}

std::vector<SpanRecord> Tracer::collect() const {
  std::vector<SpanRecord> spans;
  std::lock_guard<std::mutex> lock{g_buffers_mutex};
  for (const auto& tb : all_buffers()) {
    spans.insert(spans.end(), tb->done.begin(), tb->done.end());
  }
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return spans;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock{g_buffers_mutex};
  std::size_t n = 0;
  for (const auto& tb : all_buffers()) n += tb->done.size();
  return n;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock{g_buffers_mutex};
  for (const auto& tb : all_buffers()) {
    tb->done.clear();
    tb->done.shrink_to_fit();
  }
}

std::vector<std::int64_t> self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::int64_t> self(spans.size());
  // Index of every span, ordered by id, for parent lookup.
  std::vector<std::size_t> by_id(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_id[i] = i;
    self[i] = static_cast<std::int64_t>(spans[i].end_ns - spans[i].start_ns);
  }
  std::sort(by_id.begin(), by_id.end(), [&](std::size_t a, std::size_t b) {
    return spans[a].id < spans[b].id;
  });
  for (const SpanRecord& span : spans) {
    if (span.parent == 0) continue;
    const auto it = std::lower_bound(
        by_id.begin(), by_id.end(), span.parent,
        [&](std::size_t i, std::uint64_t id) { return spans[i].id < id; });
    if (it == by_id.end() || spans[*it].id != span.parent) continue;
    self[*it] -= static_cast<std::int64_t>(span.end_ns - span.start_ns);
  }
  return self;
}

void write_tsv(std::FILE* out, const std::vector<SpanRecord>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::fprintf(out, "id\tparent\tthread\tname\tcell\tstart_ns\tend_ns\tself_ns\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const std::string_view name = span_name(s.name);
    std::fprintf(out, "%llu\t%llu\t%u\t%.*s\t%lld\t%llu\t%llu\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.thread,
                 static_cast<int>(name.size()), name.data(),
                 s.cell == kNoCell ? -1LL : static_cast<long long>(s.cell),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
}

}  // namespace perfbench
