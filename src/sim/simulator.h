// Simulator: the simulation clock plus the scheduler façade every model
// component uses. Single-threaded; all model state is driven from run().
#pragma once

#include <cstdint>
#include <functional>

#include "sim/det_context.h"
#include "sim/scheduler.h"
#include "sim/time.h"

namespace tcpdyn::sim {

class Simulator {
 public:
  Simulator() { scheduler_.bind_active_context(&ctx_); }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  // Schedules `action` to run `delay` after now. Negative delays are clamped
  // to zero (runs "immediately", after currently queued same-time events).
  EventHandle schedule(Time delay, Scheduler::Action action);

  // Schedules at an absolute time (must be >= now()). `kind` only picks
  // where the scheduler stores the event, never when it fires; sim::Timer
  // passes kTimer for its shots.
  EventHandle schedule_at(Time at, Scheduler::Action action,
                          EventKind kind = EventKind::kPlain);

  // Runs events until the queue drains or the clock would pass `until`.
  // The clock is left at min(until, time of last event). Events exactly at
  // `until` are executed.
  void run_until(Time until);

  // Runs until the event queue is empty (use with care: greedy TCP sources
  // never drain the queue).
  void run_all();

  // Makes run_until/run_all return after the current event completes.
  void stop() { stopped_ = true; }

  std::uint64_t events_executed() const { return events_executed_; }

  // --- deterministic-key (sharded) mode ---------------------------------
  // While a DetContext is active, every schedule call is keyed by (firing
  // time, birth time = now(), det tie drawn from the active context) instead
  // of the scheduler's insertion counter, and the context is re-published at
  // each dispatch so scheduled children inherit the dispatching entity's
  // identity. Serial runs never activate a context and are untouched.
  void set_det_context(DetContext* ctx) { ctx_ = ctx; }
  DetContext* det_context() const { return ctx_; }

  // Port handoff: keyed from the *active* (transmitting-side) context but
  // dispatched under `dispatch` (the receiving node's context), so events
  // the receiver schedules inherit its identity. Plain schedule when no
  // context is active.
  EventHandle schedule_handoff(Time delay, DetContext* dispatch,
                               Scheduler::Action action);

  // Externally keyed insert (cross-shard mailbox drain): the caller supplies
  // the key computed on the transmitting shard.
  EventHandle schedule_at_keyed(Time at, std::uint64_t seq,
                                std::uint64_t det_tie, DetContext* dispatch,
                                Scheduler::Action action);

  // Windowed run for conservative barrier rounds: executes events strictly
  // before `horizon` and leaves the clock at the last event executed (only
  // advance_clock_to moves an idle clock forward).
  void run_before(Time horizon);

  // Earliest pending event time; Time::max() when the queue is empty.
  Time next_event_time() { return scheduler_.next_time(); }

  // Barrier-round bookkeeping: jumps the idle clock forward (t >= now()).
  void advance_clock_to(Time t);

 private:
  Scheduler scheduler_;
  Time now_ = Time::zero();
  bool stopped_ = false;
  std::uint64_t events_executed_ = 0;
  DetContext* ctx_ = nullptr;
};

}  // namespace tcpdyn::sim
