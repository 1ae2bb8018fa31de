// Deterministic discrete-event loop over virtual time.
//
// Single-threaded: callbacks run strictly in (time, insertion-order) order.
// This is the substrate every other module schedules against (DNS timeouts,
// TCP retransmissions, HE connection-attempt delays, netem delivery...).
//
// The scheduling path is allocation-lean: pending events are one binary
// min-heap of 24-byte (when, seq, id) keys, and each event's InlineCallback
// (small captures never touch the heap) lives in its generation-tagged
// liveness slot, so sifting moves only keys and cancellation is an O(1)
// slot disarm — no per-event hash-set insert/erase on the hot path.
#pragma once

#include <cstdint>
#include <memory_resource>
#include <vector>

#include "simnet/inline_callback.h"
#include "util/time.h"

namespace lazyeye::simnet {

/// Handle for cancelling a scheduled callback. Default-constructed = invalid.
///
/// The value packs (generation << kSlotBits) | (slot + 1): the slot indexes
/// a recycled entry in the loop's slot table, and the generation is bumped
/// every time the slot is retired, so a stale handle held across the event's
/// execution (or cancellation) can never alias a later timer that happens to
/// reuse the same slot.
struct TimerId {
  std::uint64_t value = 0;
  bool valid() const { return value != 0; }
  friend bool operator==(TimerId a, TimerId b) { return a.value == b.value; }
};

class EventLoop {
 public:
  using Callback = InlineCallback;

  /// All growable storage (key heap, liveness slots) draws from `memory`.
  /// A world-pooled Network passes its arena, so a fresh per-cell loop
  /// reuses the previous cell's high-water-mark storage without a single
  /// heap allocation; the default is the global resource.
  explicit EventLoop(
      std::pmr::memory_resource* memory = std::pmr::get_default_resource());
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current virtual time (starts at 0).
  SimTime now() const { return now_; }

  /// Schedules `cb` at absolute virtual time `when` (clamped to now()).
  TimerId schedule_at(SimTime when, Callback cb);

  /// Schedules `cb` after `delay` from now.
  TimerId schedule_after(SimTime delay, Callback cb);

  /// Cancels a pending callback; returns false if it already ran / was
  /// cancelled / is invalid.
  bool cancel(TimerId id);

  /// Runs until no events remain (or the safety cap on processed events
  /// trips, which indicates a runaway feedback loop in a test).
  void run();

  /// Processes all events with time <= deadline, then advances now() to
  /// `deadline`. Returns the number of events processed.
  std::size_t run_until(SimTime deadline);

  /// run_until(now() + d).
  std::size_t run_for(SimTime d);

  /// Number of pending (non-cancelled) events.
  std::size_t pending() const { return live_count_; }

  /// Total callbacks executed since construction.
  std::uint64_t processed() const { return processed_; }

 private:
  // TimerId layout: low kSlotBits hold slot+1 (so value 0 stays invalid),
  // the remaining 40 bits hold the slot's generation at arm time. The
  // stored generation wraps at 40 bits so the comparison in slot_armed()
  // always sees exactly the bits that survive packing; a stale id could
  // alias only after a full 2^40 retires of one slot between arm and check.
  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ULL << kSlotBits) - 1;
  static constexpr std::uint64_t kGenMask = (~std::uint64_t{0}) >> kSlotBits;

  /// Heap entry. Kept trivially copyable (the callback stays in the slot):
  /// with callbacks sifted through the heap instead, every workload lost
  /// cells/s.
  struct Key {
    SimTime when;
    std::uint64_t seq;
    std::uint64_t id;  // packed (generation, slot) — see TimerId
  };

  /// One recyclable liveness slot. `generation` is bumped when the slot is
  /// retired (its key ran or was pruned), invalidating every TimerId minted
  /// for an earlier use of the slot. Generations start at 1 so the packed
  /// id of an armed timer is never 0.
  struct Slot {
    std::uint64_t generation = 1;
    bool armed = false;
    Callback cb;
  };

  std::uint64_t arm_slot(Callback cb);          // returns packed id
  bool slot_armed(std::uint64_t packed) const;  // id still live?
  /// Bumps the generation, frees the slot, and hands back its callback.
  Callback retire(std::uint64_t packed);
  /// Runs the earliest live event; respects `deadline` when non-null.
  /// Returns false if nothing (eligible) remains.
  bool pop_next(const SimTime* deadline);

  /// Min-heap over (when, seq). Cancellation is lazy: a key whose slot no
  /// longer matches is pruned when it reaches the top.
  std::pmr::vector<Key> heap_;
  std::pmr::vector<Slot> slots_;
  std::pmr::vector<std::uint32_t> free_slots_;
  std::size_t live_count_ = 0;  // scheduled, not yet run/cancelled
  SimTime now_{0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace lazyeye::simnet
