#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s", "lower"},
      {"cells_per_s", "1/s", "higher"},
      {"cell_p50_us", "us", "lower"},
      {"cell_p99_us", "us", "lower"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return kDefs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> kDefs = [] {
    std::vector<MetricDef> defs;
    const auto add = [&defs](std::string name, const char* unit,
                             const char* better) {
      defs.push_back({std::move(name), unit, better});
    };
    for (const char* workload : {"testbed_sweep", "conformance_matrix"}) {
      const std::string w = workload;
      add("campaign.spec_gen_us." + w, "us", "lower");
      add("campaign.sink_us." + w, "us", "lower");
      add("campaign.reorder_high_water." + w, "count", "lower");
      add("campaign.worker_busy_share." + w, "ratio", "higher");
    }
    for (const char* kind : {"cad", "rd", "addrsel"}) {
      for (const char* q : {"p50", "p99"}) {
        add(std::string{"testbed.cell_us."} + kind + "." + q, "us", "lower");
      }
    }
    for (const char* q : {"p50", "p99"}) {
      add(std::string{"webtool.repetition_us."} + q, "us", "lower");
    }
    for (const char* q : {"p50", "p99"}) {
      add(std::string{"resolverlab.cell_us."} + q, "us", "lower");
    }
    for (const char* fault :
         {"none", "dns-truncate", "dns-corrupt", "dns-spoof", "dns-reorder",
          "dns-starve-family", "dns-delay-spike", "tcp-reset",
          "tcp-accept-reset", "tcp-blackhole", "quic-drop"}) {
      add(std::string{"conformance.cell_us."} + fault, "us", "lower");
    }
    add("conformance.schedule_cell_us", "us", "lower");
    for (const char* family : {"chromium", "firefox", "safari", "curl", "wget"}) {
      add(std::string{"conformance.client_us."} + family, "us", "lower");
    }
    for (const char* workload : {"testbed_sweep", "conformance_matrix"}) {
      add(std::string{"simnet.allocs_per_cell."} + workload, "count", "lower");
    }
    for (const char* workload : {"testbed_sweep", "conformance_matrix"}) {
      add(std::string{"simnet.pool_reuse_share."} + workload, "ratio",
          "higher");
    }
    const char* kInputs[] = {"clean", "truncated", "corrupt", "garbage"};
    for (const char* input : kInputs) {
      add(std::string{"dns.decode_ns."} + input, "ns", "lower");
    }
    for (const char* input : kInputs) {
      add(std::string{"dns.decode_allocs."} + input, "count", "lower");
    }
    add("dns.encode_ns", "ns", "lower");
    for (const char* events : {"25", "250", "2500"}) {
      add(std::string{"simnet.event_ns."} + events, "ns", "lower");
    }
    add("conformance.schedule_codec_ns", "ns", "lower");
    add("search.novel_share", "ratio", "higher");
    add("search.violating_share", "ratio", "higher");
    add("search.coverage", "count", "higher");
    add("journal.bytes_per_cell", "B", "lower");
    add("trace.overhead_share", "ratio", "lower");
    return defs;
  }();
  return kDefs;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<MetricDef>& defs,
                        const MetricValues& values,
                        std::vector<std::string>& missing) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    if (it == values.end() || !std::isfinite(it->second)) {
      missing.push_back(def.name);
      continue;
    }
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", it->second);
    if (!first) out += ", ";
    first = false;
    out += "\"" + def.name + "\": {\"value\": " + number + ", \"unit\": \"" +
           def.unit + "\"}";
  }
  out += "}}";
  return out;
}

double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double>& samples) { return percentile(samples, 0.5); }

std::string digest_hex(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

}  // namespace perfbench
