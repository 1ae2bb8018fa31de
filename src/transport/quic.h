// Minimal QUIC-like handshake over UDP, for HEv3's transport racing.
//
// Wire model: UDP datagrams whose payload starts with a one-byte packet type
// ('I' = client Initial, 'H' = server handshake reply, 'D' = app data,
// 'C' = close). One round trip establishes the connection, matching the
// cost model HEv3 cares about (QUIC vs TCP+TLS racing).
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

struct QuicOptions {
  SimTime initial_rto = lazyeye::sec(1);
  int max_retransmits = 2;
  double rto_backoff = 2.0;

  bool operator==(const QuicOptions&) const = default;
};

/// True if a UDP payload looks like one of our QUIC packets.
bool is_quic_payload(std::span<const std::uint8_t> payload);

class QuicStack {
 public:
  using ConnectHandler = std::function<void(const ConnectResult&)>;
  using AcceptHandler =
      std::function<void(std::uint64_t conn_id, const simnet::Endpoint& peer)>;
  /// (connection id, payload bytes) — the view is only valid during the
  /// call (bytes live in the packet's pooled buffer); copy to keep.
  using DataHandler =
      std::function<void(std::uint64_t conn_id, std::span<const std::uint8_t>)>;

  explicit QuicStack(simnet::Host& host);
  ~QuicStack();

  QuicStack(const QuicStack&) = delete;
  QuicStack& operator=(const QuicStack&) = delete;

  void listen(std::uint16_t port, AcceptHandler on_accept = {});
  void close_listener(std::uint16_t port);
  /// Fault-injection hook consulted for every Initial that reaches a
  /// listener (see transport/connection.h). Unset = accept everything.
  void set_accept_interposer(AcceptInterposer hook) {
    accept_interposer_ = std::move(hook);
  }

  std::uint64_t connect(const simnet::Endpoint& remote,
                        const QuicOptions& options, ConnectHandler handler);
  void abort(std::uint64_t attempt_id);

  void send_data(std::uint64_t conn_id, simnet::Buffer payload);
  /// Legacy vector entry point: adopts the vector as the payload block.
  void send_data(std::uint64_t conn_id, std::vector<std::uint8_t> payload);
  void set_data_handler(DataHandler handler) { data_handler_ = std::move(handler); }

 private:
  enum class State { kInitialSent, kEstablished };

  struct ConnectionState {
    std::uint64_t id = 0;
    State state = State::kInitialSent;
    FourTuple tuple;
    QuicOptions options;
    int sends = 0;
    SimTime current_rto{0};
    SimTime started{0};
    simnet::TimerId rto_timer;
    ConnectHandler on_connect;
  };

  void on_datagram(std::uint16_t local_port, const simnet::Packet& packet);
  void send_packet(const FourTuple& tuple, char type,
                   simnet::Buffer payload = {});
  void send_initial(ConnectionState& conn);
  void fail_connect(std::uint64_t id, const std::string& error);
  ConnectionState* find_by_tuple(const FourTuple& tuple);
  /// Unlinks the connection from the tuple index and the id map.
  void remove_connection(ConnectionState& conn);

  simnet::Host& host_;
  /// Id-keyed, node-based: entries are pointer-stable, which the tuple
  /// index relies on. Nodes draw from the owning world's memory resource.
  std::pmr::map<std::uint64_t, ConnectionState> connections_;
  /// Four-tuple -> connection demux for the per-datagram path (replaces the
  /// old linear scan; same lowest-id-match semantics).
  TupleIndex<ConnectionState> index_;
  std::map<std::uint16_t, AcceptHandler> listeners_;
  DataHandler data_handler_;
  AcceptInterposer accept_interposer_;
  std::uint64_t next_id_ = 1;
};

}  // namespace lazyeye::transport
