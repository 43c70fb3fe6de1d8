// RAII one-shot timer: an EventHandle plus the bookkeeping every call site
// used to hand-roll (cancel-before-rearm, deadline tracking, cancel on
// teardown). PR 7 fixed a stale pacing-wakeup bug caused by exactly that
// hand-rolled pattern; Timer makes the fixed idiom the only way to arm.
//
// A Timer owns at most one pending shot. Arming replaces the previous shot;
// destruction cancels it. The action is passed at arm time and lives in the
// scheduler slot (same inline storage as any event), so Timer itself stays a
// 32-byte value and is freely movable while armed — the scheduled action
// must simply not capture the Timer's own address (capture the owning
// component instead, and re-arm through it).
#pragma once

#include <utility>

#include "sim/simulator.h"

namespace tcpdyn::sim {

class Timer {
 public:
  Timer() = default;
  explicit Timer(Simulator& sim) : sim_(&sim) {}
  ~Timer() { cancel(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  Timer(Timer&& other) noexcept { *this = std::move(other); }
  Timer& operator=(Timer&& other) noexcept {
    if (this != &other) {
      cancel();
      sim_ = other.sim_;
      handle_ = other.handle_;
      deadline_ = other.deadline_;
      other.handle_ = EventHandle();
    }
    return *this;
  }

  // Binds a default-constructed Timer (e.g. a container element) to its
  // simulator. Must happen before the first arm.
  void bind(Simulator& sim) { sim_ = &sim; }

  // Arms to fire `delay` from now (negative clamps to zero), replacing any
  // pending shot.
  void arm(Time delay, Scheduler::Action action) {
    if (delay < Time::zero()) delay = Time::zero();
    arm_at(sim_->now() + delay, std::move(action));
  }

  // Arms to fire at absolute time `at`, replacing any pending shot. A
  // deadline already in the past fires "now" (after queued same-time
  // events), but deadline() still reports the requested time so rearm_at can
  // recognize it.
  void arm_at(Time at, Scheduler::Action action) {
    handle_.cancel();
    deadline_ = at;
    handle_ = sim_->schedule_at(at < sim_->now() ? sim_->now() : at,
                                std::move(action), EventKind::kTimer);
  }

  // Arms at `at` unless an identical shot is already pending — the
  // cancel/re-arm dedup the pacing path needs (re-arming the same deadline
  // on every ACK would otherwise churn the scheduler). Returns true if a new
  // shot was scheduled.
  bool rearm_at(Time at, Scheduler::Action action) {
    if (pending() && deadline_ == at) return false;
    arm_at(at, std::move(action));
    return true;
  }

  // Cancels the pending shot, if any. Safe on an idle or unbound timer.
  void cancel() { handle_.cancel(); }

  // True while the armed shot has neither fired nor been cancelled.
  bool pending() const { return handle_.pending(); }

  // Requested fire time of the most recent arm. Meaningful while pending().
  Time deadline() const { return deadline_; }

 private:
  Simulator* sim_ = nullptr;
  EventHandle handle_;
  Time deadline_;
};

}  // namespace tcpdyn::sim
