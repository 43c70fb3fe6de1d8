// Event scheduler: a binary min-heap of (time, insertion-sequence) keys over
// a slab of generation-counted event slots. The sequence number makes
// simultaneous events fire in insertion order, which keeps runs
// deterministic and matches the FIFO intuition of the network model (e.g. a
// dequeue scheduled before an enqueue at the same instant executes first).
//
// Steady-state operation is allocation-free: actions are stored in a
// small-buffer callable inside slab slots that are recycled through a free
// list, heap entries are 24-byte PODs, and cancellation is an O(1)
// generation bump — no per-event shared_ptr, no std::function heap traffic.
// Cancelled events leave a tombstone in the heap that is dropped lazily when
// it surfaces, with a compaction sweep bounding tombstone build-up under
// cancel-heavy workloads.
//
// A hierarchical timer wheel (sim/timer_wheel.h) stages events beside the
// heap: O(1) arm/cancel, no tombstones. An event is staged on the wheel when
// it is a timer shot (EventKind::kTimer: re-armed far more often than it
// fires) or when the heap already holds more than kHeapDirectLimit entries
// (a large pending set; the limit was measured, see DESIGN.md §13.1); every
// other event goes straight into the heap. Wheel entries are merged into the
// heap before any of them could become the minimum, and the heap orders by
// (time, seq) alone, so where an event was stored never changes dispatch
// order.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/det_context.h"
#include "sim/time.h"
#include "sim/timer_wheel.h"
#include "util/inline_function.h"

namespace tcpdyn::sim {

class Scheduler;

// Timer shots (sim::Timer: retransmit timeouts, delayed ACKs, pacing
// wakeups, fault one-shots) are always staged on the wheel; plain events
// only once the heap is large.
enum class EventKind : std::uint8_t { kPlain, kTimer };

// Largest capture (a Packet plus a pointer) that the network and transport
// layers schedule; sized so every hot-path lambda stays inline. Call sites
// whose captures must not spill enforce it via Scheduler::Action::fits.
inline constexpr std::size_t kActionInlineCapacity = 72;

// Handle to a scheduled event; allows cancellation. Default-constructed
// handles are inert. Handles are cheap to copy ({slot, generation} pair) and
// must not outlive the scheduler that issued them.
class EventHandle {
 public:
  EventHandle() = default;

  // Cancels the event if it has not fired yet. Safe to call repeatedly or on
  // an inert handle.
  void cancel();

  // True if the event is still queued (not fired, not cancelled).
  bool pending() const;

 private:
  friend class Scheduler;
  EventHandle(Scheduler* scheduler, std::uint32_t slot,
              std::uint32_t generation)
      : scheduler_(scheduler), slot_(slot), generation_(generation) {}

  Scheduler* scheduler_ = nullptr;  // null => inert
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class Scheduler {
 public:
  using Action = util::InlineAction<kActionInlineCapacity>;

  // Heap size above which plain events are staged on the wheel too.
  static constexpr std::size_t kHeapDirectLimit = 64;

  // Enqueues `action` to run at absolute time `at`. `at` must be >= the time
  // of the last event popped.
  EventHandle schedule_at(Time at, Action action,
                          EventKind kind = EventKind::kPlain);

  // Deterministic-key variant used by sharded runs: the caller supplies the
  // (seq, det_tie) ordering key — seq is the event's birth time, det_tie a
  // per-entity draw from det_tie_next — plus the dispatch context published
  // as the active context when the event runs. Must not be mixed with plain
  // schedule_at on the same scheduler (the seq spaces differ).
  EventHandle schedule_at_keyed(Time at, std::uint64_t seq,
                                std::uint64_t det_tie, DetContext* ctx,
                                Action action,
                                EventKind kind = EventKind::kPlain);

  // Registers the location where run_next publishes the dispatched event's
  // DetContext (sharded runs only; slots carry a null context otherwise).
  void bind_active_context(DetContext** ref) { active_ref_ = ref; }

  // True when no live (non-cancelled, non-fired) events remain. O(1) and
  // genuinely const: the live count is maintained at cancel/fire time.
  bool empty() const { return live_events_ == 0; }
  std::size_t size() const { return live_events_; }
  // How many of them are staged on the wheel (the rest are in the heap).
  std::size_t staged() const { return wheel_.live; }

  // Time of the earliest pending (non-cancelled) event; Time::max() if none.
  Time next_time();

  // Pops and runs the earliest pending event, returning its time.
  // Precondition: !empty().
  Time run_next();

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kNilSlot = UINT32_MAX;

  // One slab slot. `generation` advances every time the slot's event is
  // cancelled or fired, invalidating outstanding handles and heap entries
  // that still reference the old incarnation. The wheel_* fields thread the
  // slot into a timer-wheel bucket's doubly-linked list (`bucket ==
  // kNoBucket` means the event lives in the heap).
  struct Slot {
    Action action;
    Time at;                 // wheel only: absolute firing time
    std::uint64_t seq = 0;   // wheel only: insertion sequence for FIFO ties
    std::uint64_t det_tie = 0;    // keyed mode: third-level ordering key
    DetContext* ctx = nullptr;    // keyed mode: dispatch context
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNilSlot;
    std::uint32_t wheel_prev = kNilSlot;
    std::uint32_t wheel_next = kNilSlot;
    std::uint16_t bucket = TimerWheelState::kNoBucket;
  };

  // Heap key: POD, ordered by (at, seq) so moves during sift are cheap and
  // FIFO order among simultaneous events is exact.
  struct Entry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };

  bool entry_before(const Entry& a, const Entry& b) const {
    if (a.at != b.at) return a.at < b.at;
    if (a.seq != b.seq) return a.seq < b.seq;
    // Distinct events never share a seq in serial runs (global insertion
    // counter), so this compare is reachable only in keyed (sharded) mode,
    // where seq is the birth time and the per-entity tie breaks the
    // collision. A tombstone whose slot was recycled may read the new
    // occupant's tie, but that only permutes equal-(at, seq) entries —
    // tombstones are dropped unexecuted, so dispatch order is unaffected.
    return slots_[a.slot].det_tie < slots_[b.slot].det_tie;
  }

  bool is_pending(std::uint32_t slot, std::uint32_t generation) const {
    return slot < slots_.size() && slots_[slot].generation == generation;
  }
  void cancel(std::uint32_t slot, std::uint32_t generation);

  std::uint32_t acquire_slot();
  // Invalidates handles, releases the action, and recycles the slot.
  void release_slot(std::uint32_t slot);

  void heap_push(Entry entry);
  void heap_pop_front();
  // Drops tombstones (entries whose slot generation moved on) off the top.
  void drop_dead_front();
  // Removes all tombstones when they outnumber live entries; O(n), amortized
  // O(1) per cancel, and order-preserving (the comparator is a total order).
  void maybe_compact();

  // Wheel staging. Invariant between calls: every live event whose time is
  // below the wheel cursor is in the heap, so a heap front strictly below
  // the cursor is the global minimum.
  void wheel_insert(std::uint32_t slot);         // buckets slots_[slot] by its at
  void wheel_unlink(std::uint32_t slot);         // O(1) removal (cancel path)
  void wheel_settle();                           // restore the invariant
  void wheel_advance_step();                     // consume/cascade one bucket
  void wheel_consume_level0(int idx);            // bucket -> dispatch heap
  void wheel_cascade(int level, int idx);        // bucket -> lower levels
  void wheel_far_jump();                         // re-bucket beyond-horizon set

  EventHandle schedule_impl(Time at, std::uint64_t seq, std::uint64_t det_tie,
                            DetContext* ctx, Action action, EventKind kind);

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
  std::uint64_t next_seq_ = 0;
  std::size_t live_events_ = 0;
  DetContext** active_ref_ = nullptr;
  TimerWheelState wheel_;
};

}  // namespace tcpdyn::sim
