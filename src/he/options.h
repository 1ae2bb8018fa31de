// Happy Eyeballs configuration: every parameter from Table 1 of the paper
// (HEv1 RFC 6555, HEv2 RFC 8305, HEv3 draft) plus the deviation knobs needed
// to model real client behaviour observed in the paper's measurements.
#pragma once

#include <optional>

#include "transport/quic.h"
#include "transport/tcp.h"
#include "util/result.h"
#include "util/time.h"

namespace lazyeye::he {

enum class HeVersion {
  kNone,  // no Happy Eyeballs at all (wget)
  kV1,    // RFC 6555: connection racing only
  kV2,    // RFC 8305: + DNS handling, resolution delay, address selection
  kV3,    // draft-ietf-happy-happyeyeballs-v3: + SVCB/HTTPS, QUIC, ECH
};

const char* he_version_name(HeVersion v);

/// How the ordered attempt list mixes address families (RFC 8305 §4).
enum class InterlaceMode {
  /// No interlacing: preferred family first, then the other.
  kNone,
  /// Strict alternation after the First Address Family Count block.
  kAlternate,
  /// Safari's observed strategy (paper App. D): FAFC IPv6 addresses, one
  /// IPv4 address, all remaining IPv6, then all remaining IPv4.
  kFirstOtherThenRest,
};

/// Dynamic Connection Attempt Delay (HEv2 history-informed mode).
struct DynamicCad {
  bool enabled = false;
  /// RFC 8305 bounds: min 10 ms (absolute), recommended min 100 ms, max 2 s.
  SimTime minimum = lazyeye::ms(10);
  SimTime recommended_minimum = lazyeye::ms(100);
  SimTime maximum = lazyeye::sec(2);
  /// CAD = clamp(rtt_multiplier * smoothed RTT, minimum, maximum).
  double rtt_multiplier = 2.0;
  /// Used when no RTT history exists (Safari's lab behaviour: 2 s).
  SimTime no_history_default = lazyeye::sec(2);

  /// Effective CAD for a given (optional) RTT estimate.
  SimTime effective(std::optional<SimTime> smoothed_rtt) const;

  bool operator==(const DynamicCad&) const = default;
};

struct HeOptions {
  HeVersion version = HeVersion::kV2;

  // ---- DNS phase -----------------------------------------------------------
  /// Issue the AAAA query first, immediately followed by A (RFC 8305 §3).
  bool query_aaaa_first = true;
  /// Resolution Delay: wait this long for AAAA after an A-first response.
  /// nullopt = no RD — the client waits for the resolver's own timeout
  /// (the Chromium/Firefox behaviour in §5.2).
  std::optional<SimTime> resolution_delay = lazyeye::ms(50);
  /// Deviation: delay any connection attempt until the A response arrived,
  /// even when AAAA records are already in hand (§5.2: all but Safari).
  bool wait_for_a_record = false;
  /// Deviation: if the A query fails (resolver timeout), fail the whole
  /// connection even when AAAA succeeded (Chrome/Firefox complete failures
  /// in §5.2). Without this flag, A failure simply means IPv6-only.
  bool fail_on_a_timeout = false;

  // ---- Address selection ---------------------------------------------------
  bool prefer_ipv6 = true;
  /// First Address Family Count (RFC 8305 §4: 1, or 2 when favouring the
  /// first family aggressively).
  int first_address_family_count = 1;
  InterlaceMode interlace = InterlaceMode::kAlternate;
  /// Cap on how many addresses of each family are attempted (Table 2
  /// "Addrs. Used": 1 for Chromium/Firefox/curl, 10 for Safari).
  int max_addresses_per_family = 100;
  /// Sort candidates by historical RTT when available (HEv2 §4 knowledge).
  bool sort_by_history = false;

  // ---- Connection phase ----------------------------------------------------
  /// Fixed Connection Attempt Delay (RFC 6555: 150-250 ms; RFC 8305: 250 ms).
  SimTime connection_attempt_delay = lazyeye::ms(250);
  DynamicCad dynamic_cad;
  /// Disable the IPv4 fallback entirely (wget has no HE: it only ever uses
  /// the preferred family).
  bool fallback_enabled = true;
  /// TCP handshake parameters for each attempt.
  transport::TcpOptions tcp;
  /// Give up after this much time without any established connection.
  SimTime overall_timeout = lazyeye::sec(75);

  // ---- HEv3 ----------------------------------------------------------------
  /// Query SVCB/HTTPS records and use their hints (HEv3).
  bool use_svcb = false;
  /// Race QUIC (when the HTTPS record advertises h3) before TCP.
  bool race_quic = false;
  /// Prefer endpoints whose HTTPS record carries ECH configuration.
  bool prefer_ech = false;
  transport::QuicOptions quic;

  // ---- Caching -------------------------------------------------------------
  /// Cache the winning (address, protocol) "on the order of 10 minutes"
  /// (RFC 6555 §4.1). Zero disables caching.
  SimTime cache_ttl = lazyeye::minutes(10);

  /// Effective CAD for the session (fixed or dynamic).
  SimTime effective_cad(std::optional<SimTime> smoothed_rtt) const;

  /// Sanity-checks the parameter space the engine is about to run with:
  /// first_address_family_count >= 1, max_addresses_per_family >= 1,
  /// non-negative resolution_delay (when set) and connection_attempt_delay,
  /// and a positive overall timeout. The engine validates at session start
  /// and surfaces a configuration error instead of silently misbehaving
  /// (an FAFC of 0 would starve the attempt plan; a negative delay would
  /// fire its timer in the past and drag virtual time backwards).
  Status validate() const;

  // Presets matching the RFC/draft recommendations (Table 1).
  static HeOptions rfc6555();
  static HeOptions rfc8305();
  static HeOptions v3_draft();
  /// No Happy Eyeballs: resolve, use preferred family only.
  static HeOptions none();

  bool operator==(const HeOptions&) const = default;
};

}  // namespace lazyeye::he
