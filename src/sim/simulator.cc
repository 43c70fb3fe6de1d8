#include "sim/simulator.h"

#include <cassert>

namespace tcpdyn::sim {

EventHandle Simulator::schedule(Time delay, Scheduler::Action action) {
  if (delay < Time::zero()) delay = Time::zero();
  if (ctx_ != nullptr) {
    return scheduler_.schedule_at_keyed(
        now_ + delay, static_cast<std::uint64_t>(now_.ns()),
        det_tie_next(*ctx_), ctx_, std::move(action));
  }
  return scheduler_.schedule_at(now_ + delay, std::move(action));
}

EventHandle Simulator::schedule_at(Time at, Scheduler::Action action,
                                   EventKind kind) {
  assert(at >= now_);
  if (ctx_ != nullptr) {
    return scheduler_.schedule_at_keyed(
        at, static_cast<std::uint64_t>(now_.ns()), det_tie_next(*ctx_), ctx_,
        std::move(action), kind);
  }
  return scheduler_.schedule_at(at, std::move(action), kind);
}

EventHandle Simulator::schedule_handoff(Time delay, DetContext* dispatch,
                                        Scheduler::Action action) {
  if (delay < Time::zero()) delay = Time::zero();
  if (ctx_ == nullptr) {
    return scheduler_.schedule_at(now_ + delay, std::move(action));
  }
  return scheduler_.schedule_at_keyed(
      now_ + delay, static_cast<std::uint64_t>(now_.ns()),
      det_tie_next(*ctx_), dispatch, std::move(action));
}

EventHandle Simulator::schedule_at_keyed(Time at, std::uint64_t seq,
                                         std::uint64_t det_tie,
                                         DetContext* dispatch,
                                         Scheduler::Action action) {
  assert(at >= now_);
  return scheduler_.schedule_at_keyed(at, seq, det_tie, dispatch,
                                      std::move(action));
}

void Simulator::run_until(Time until) {
  stopped_ = false;
  while (!stopped_ && !scheduler_.empty() && scheduler_.next_time() <= until) {
    // Advance the clock before dispatching: the action must observe now()
    // equal to its own firing time (it schedules follow-up events off it).
    now_ = scheduler_.next_time();
    scheduler_.run_next();
    ++events_executed_;
  }
  if (!stopped_ && now_ < until) now_ = until;
}

void Simulator::run_before(Time horizon) {
  stopped_ = false;
  while (!stopped_ && !scheduler_.empty() &&
         scheduler_.next_time() < horizon) {
    now_ = scheduler_.next_time();
    scheduler_.run_next();
    ++events_executed_;
  }
}

void Simulator::advance_clock_to(Time t) {
  assert(t >= now_);
  now_ = t;
}

void Simulator::run_all() {
  stopped_ = false;
  while (!stopped_ && !scheduler_.empty()) {
    now_ = scheduler_.next_time();
    scheduler_.run_next();
    ++events_executed_;
  }
}

}  // namespace tcpdyn::sim
