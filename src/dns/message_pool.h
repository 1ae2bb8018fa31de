// Thread-local recycling pool for DnsMessage scratch envelopes.
//
// The codec's decode_into()/encode_into() entry points make a *warm* message
// cheap to reuse, but every simulated world builds fresh DnsClient/AuthServer
// objects whose scratch envelopes start cold — so short-lived cells paid the
// full section/label growth cost on every build. Checking scratch envelopes
// out of a thread-local pool lets that capacity survive across consecutive
// cells on the same worker thread, the same way ScenarioPool retains arena
// chunks and packet buffers.
//
// Thread-locality matches the execution model: a cell runs entirely on one
// worker thread, so no synchronisation is needed and a message never moves
// between threads. Released messages keep their decoded contents (sections
// are NOT cleared) — decode_into() resizes to the wire counts and assigns
// elements in place, so stale elements are exactly the storage being
// recycled.
#pragma once

#include <utility>
#include <vector>

#include "dns/message.h"

namespace lazyeye::dns {

class MessagePool {
 public:
  /// This thread's pool.
  static MessagePool& local() {
    thread_local MessagePool pool;
    return pool;
  }

  /// Checks out a message (warm capacity when available).
  DnsMessage acquire() {
    if (idle_.empty()) return DnsMessage{};
    DnsMessage msg = std::move(idle_.back());
    idle_.pop_back();
    return msg;
  }

  /// Returns a message to the pool. Contents are retained deliberately —
  /// see the header comment. Beyond the idle cap, or holding more section
  /// capacity than kMaxRetainedRecords, the message is simply dropped.
  void release(DnsMessage&& msg) {
    const std::size_t records =
        msg.questions.capacity() + msg.answers.capacity() +
        msg.authorities.capacity() + msg.additionals.capacity();
    if (idle_.size() < kCap && records <= kMaxRetainedRecords) {
      idle_.push_back(std::move(msg));
    }
  }

  std::size_t idle() const { return idle_.size(); }

 private:
  // Enough for the worst simultaneous residency per thread (client query +
  // response + outcome envelopes, server query + response, analysis scratch)
  // with headroom; keeps a stuck thread from hoarding unbounded capacity.
  static constexpr std::size_t kCap = 16;
  // Section capacity (questions + records, all four sections) a pooled
  // message may keep. Fault-free workloads peak at ~21 (a 20-address answer);
  // anything far above that came from an oversized or hostile wire, and
  // keeping it would pin that memory on this thread for good.
  static constexpr std::size_t kMaxRetainedRecords = 64;
  std::vector<DnsMessage> idle_;
};

/// RAII checkout: `PooledMessage msg; use(*msg);` — releases on destruction.
class PooledMessage {
 public:
  PooledMessage() : msg_{MessagePool::local().acquire()} {}
  ~PooledMessage() { MessagePool::local().release(std::move(msg_)); }

  PooledMessage(const PooledMessage&) = delete;
  PooledMessage& operator=(const PooledMessage&) = delete;

  DnsMessage& operator*() { return msg_; }
  DnsMessage* operator->() { return &msg_; }

 private:
  DnsMessage msg_;
};

}  // namespace lazyeye::dns
