// Minimal TCP model over simnet: three-way handshake, SYN retransmission
// with exponential backoff, RST on closed ports, and reliable-enough data
// segments for the request/response exchanges the experiments need.
//
// Unresponsive *addresses* are modelled by the Network (packets to unowned
// addresses are blackholed); unresponsive *ports* by disabling RSTs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory_resource>
#include <span>
#include <vector>

#include "simnet/host.h"
#include "simnet/network.h"
#include "transport/connection.h"
#include "transport/tuple_index.h"

namespace lazyeye::transport {

struct TcpOptions {
  /// Initial SYN retransmission timeout (Linux: 1 s).
  SimTime syn_rto = lazyeye::sec(1);
  /// SYN retransmissions after the initial one before giving up
  /// (Linux default tcp_syn_retries=6 => ~127 s; clients override).
  int syn_retries = 6;
  double rto_backoff = 2.0;

  bool operator==(const TcpOptions&) const = default;
};

/// One TCP endpoint (stack) per host. Installs itself as the host's TCP
/// protocol handler.
class TcpStack {
 public:
  using ConnectHandler = std::function<void(const ConnectResult&)>;
  /// (connection id, peer) — invoked on the server when a handshake
  /// completes.
  using AcceptHandler =
      std::function<void(std::uint64_t conn_id, const simnet::Endpoint& peer)>;
  /// (connection id, payload bytes) — invoked on data segment arrival. The
  /// view is only valid for the duration of the call (the bytes live in the
  /// packet's pooled buffer); copy if you need to keep them.
  using DataHandler =
      std::function<void(std::uint64_t conn_id, std::span<const std::uint8_t>)>;

  explicit TcpStack(simnet::Host& host);
  ~TcpStack();

  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  // ---- Server side ---------------------------------------------------------
  void listen(std::uint16_t port, AcceptHandler on_accept = {});
  void close_listener(std::uint16_t port);
  /// RFC-conforming hosts answer SYNs to closed ports with RST (default).
  /// Disable to emulate firewalled/DROP behaviour.
  void set_rst_on_closed_port(bool enabled) { rst_on_closed_ = enabled; }
  /// Fault-injection hook consulted for every inbound SYN that reaches a
  /// listener (see transport/connection.h). Unset = accept everything.
  void set_accept_interposer(AcceptInterposer hook) {
    accept_interposer_ = std::move(hook);
  }

  // ---- Client side ---------------------------------------------------------
  /// Starts a connection attempt from the host's address matching the
  /// remote family. Returns an attempt id (0 = immediate failure; the
  /// handler is still invoked exactly once).
  std::uint64_t connect(const simnet::Endpoint& remote, const TcpOptions& options,
                        ConnectHandler handler);
  /// Aborts an in-flight attempt; the handler fires with error "cancelled".
  void abort(std::uint64_t attempt_id);

  // ---- Established connections ---------------------------------------------
  void send_data(std::uint64_t conn_id, simnet::Buffer payload);
  /// Legacy vector entry point: adopts the vector as the payload block.
  void send_data(std::uint64_t conn_id, std::vector<std::uint8_t> payload);
  void set_data_handler(DataHandler handler) { data_handler_ = std::move(handler); }
  void close(std::uint64_t conn_id);

  std::size_t established_count() const;

 private:
  enum class State { kSynSent, kSynReceived, kEstablished };

  struct ConnectionState {
    std::uint64_t id = 0;
    State state = State::kSynSent;
    FourTuple tuple;
    TcpOptions options;
    int syn_sent = 0;
    SimTime current_rto{0};
    SimTime started{0};
    simnet::TimerId rto_timer;
    ConnectHandler on_connect;  // client side only
  };

  void on_packet(const simnet::Packet& packet);
  void send_flags(const FourTuple& tuple, simnet::TcpFlags flags,
                  simnet::Buffer payload = {});
  void send_syn(ConnectionState& conn);
  void fail_connect(std::uint64_t id, const std::string& error);
  ConnectionState* find_by_tuple(const FourTuple& tuple);
  /// Unlinks the connection from the tuple index and the id map.
  void remove_connection(ConnectionState& conn);

  simnet::Host& host_;
  /// Id-keyed, node-based: entries are pointer-stable, which the tuple
  /// index relies on. Nodes draw from the owning world's memory resource.
  std::pmr::map<std::uint64_t, ConnectionState> connections_;
  /// Four-tuple -> connection demux for the per-packet path (replaces the
  /// old linear scan; same lowest-id-match semantics).
  TupleIndex<ConnectionState> index_;
  std::map<std::uint16_t, AcceptHandler> listeners_;
  DataHandler data_handler_;
  AcceptInterposer accept_interposer_;
  bool rst_on_closed_ = true;
  std::uint64_t next_id_ = 1;
};

}  // namespace lazyeye::transport
