// Tests for the scheduler's timer-wheel staging and the RAII sim::Timer
// handle. The load-bearing property is that staging never changes firing
// order: the scheduler puts timer shots, and any event that arrives while
// its heap holds more than Scheduler::kHeapDirectLimit entries, on the wheel
// and everything else straight into the heap, yet events must still fire in
// (time, insertion seq) order. So the randomized test checks the scheduler
// against a plain reference model, and the rule tests cross the staging
// rule both ways. Larger end-to-end digests live in
// timer_equivalence_test.cc and cc_equivalence_test.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/scheduler.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/timer.h"
#include "sim/timer_wheel.h"

namespace tcpdyn::sim {
namespace {

// Schedules a timer shot: always staged on the wheel.
EventHandle arm(Scheduler& sched, Time at, Scheduler::Action action) {
  return sched.schedule_at(at, std::move(action), EventKind::kTimer);
}

TEST(TimerWheelState, BucketSelection) {
  TimerWheelState w;  // cursor = 0
  // Level 0: ticks within the first 256.
  EXPECT_EQ(w.bucket_for(0), 0);
  EXPECT_EQ(w.bucket_for(1), 1);
  EXPECT_EQ(w.bucket_for(255), 255);
  // Level 1 starts where tick and cursor first differ above bit 7.
  EXPECT_EQ(w.bucket_for(256), TimerWheelState::kSlotsPerLevel + 1);
  EXPECT_EQ(w.bucket_for(511), TimerWheelState::kSlotsPerLevel + 1);
  EXPECT_EQ(w.bucket_for(512), TimerWheelState::kSlotsPerLevel + 2);
  // Level 2.
  EXPECT_EQ(w.bucket_for(65536), 2 * TimerWheelState::kSlotsPerLevel + 1);
  // Beyond the wheel horizon: the far bucket.
  EXPECT_EQ(w.bucket_for(std::int64_t{1} << 50), TimerWheelState::kFarBucket);
}

// A deterministic xorshift generator so the scheduler and the reference
// model see one identical workload (std::mt19937 would also do, but this
// keeps the test obviously seed-stable across library versions).
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

// The reference: every event in one vector, cancellation by a flag, and
// dispatch by a linear scan for the smallest live (at, seq).
class ReferenceQueue {
 public:
  using Action = Scheduler::Action;
  std::size_t schedule(Time at, Action action, EventKind) {
    events_.push_back({at, events_.size(), std::move(action), true});
    ++live_;
    return events_.size() - 1;
  }
  void cancel(std::size_t h) {
    if (events_[h].live) --live_;
    events_[h].live = false;
  }
  bool empty() const { return live_ == 0; }
  Time run_next() {
    std::size_t best = events_.size();
    for (std::size_t i = 0; i < events_.size(); ++i) {
      if (!events_[i].live) continue;
      if (best == events_.size() ||
          std::tie(events_[i].at, events_[i].seq) <
              std::tie(events_[best].at, events_[best].seq)) {
        best = i;
      }
    }
    events_[best].live = false;
    --live_;
    Action action = std::move(events_[best].action);
    action();
    return events_[best].at;
  }

 private:
  struct Event {
    Time at;
    std::size_t seq;
    Action action;
    bool live;
  };
  std::vector<Event> events_;
  std::size_t live_ = 0;
};

// The same three operations on the real scheduler.
class SchedulerQueue {
 public:
  using Action = Scheduler::Action;
  EventHandle schedule(Time at, Action action, EventKind kind) {
    return sched_.schedule_at(at, std::move(action), kind);
  }
  void cancel(EventHandle h) { h.cancel(); }
  bool empty() const { return sched_.empty(); }
  Time run_next() { return sched_.run_next(); }

 private:
  Scheduler sched_;
};

// Drives one randomized schedule/cancel/fire workload — timer shots mixed
// with plain events — and returns the full firing trace as (event id, fire
// time ns).
template <typename Queue>
std::vector<std::pair<int, std::int64_t>> run_workload(std::uint64_t seed) {
  Queue queue;
  Rng rng{seed};
  std::vector<std::pair<int, std::int64_t>> trace;
  std::vector<decltype(queue.schedule(Time::zero(), [] {}, EventKind::kPlain))>
      handles;
  int next_id = 0;
  const auto kind_of = [](std::uint64_t r) {
    return (r >> 32) % 2 == 0 ? EventKind::kTimer : EventKind::kPlain;
  };

  // Seed a batch of events across many time scales: same-tick ties,
  // level-0 neighbours, mid-level spans, and far-future outliers. The batch
  // outgrows the heap limit, so later plain events are staged too.
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t r = rng.next();
    std::int64_t at_ns = 0;
    switch (r % 4) {
      case 0: at_ns = static_cast<std::int64_t>(r % 2048); break;        // ties & level 0
      case 1: at_ns = static_cast<std::int64_t>(r % 3'000'000); break;   // levels 0-2
      case 2: at_ns = static_cast<std::int64_t>(r % 40'000'000'000); break;  // deep levels
      default: at_ns = static_cast<std::int64_t>(r % (std::int64_t{1} << 60)); break;  // far
    }
    const int id = next_id++;
    handles.push_back(queue.schedule(
        Time::nanoseconds(at_ns),
        [&trace, id, at_ns] { trace.emplace_back(id, at_ns); }, kind_of(r)));
  }
  // Cancel a deterministic subset before running (exercises wheel unlink
  // and heap tombstones).
  for (std::size_t i = 0; i < handles.size(); i += 3) queue.cancel(handles[i]);

  // Run, re-scheduling from inside events now and then (exercises inserting
  // at/near the cursor while dispatching, cascades mid-run, and plain events
  // going back to the heap once it has drained below the limit).
  int executed = 0;
  while (!queue.empty()) {
    const Time now = queue.run_next();
    if (++executed % 17 == 0 && next_id < 600) {
      const std::uint64_t r = rng.next();
      const std::int64_t at_ns =
          now.ns() + static_cast<std::int64_t>(r % 5'000'000);
      const int id = next_id++;
      queue.schedule(Time::nanoseconds(at_ns),
                     [&trace, id, at_ns] { trace.emplace_back(id, at_ns); },
                     kind_of(r));
    }
  }
  return trace;
}

TEST(TimerWheel, FiringOrderMatchesReferenceModel) {
  for (std::uint64_t seed : {1u, 42u, 9001u}) {
    const auto want = run_workload<ReferenceQueue>(seed);
    const auto got = run_workload<SchedulerQueue>(seed);
    ASSERT_GT(want.size(), 250u) << "seed " << seed;
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

TEST(StagingRule, TimerShotsStageAndPlainEventsGoToTheHeap) {
  Scheduler sched;
  std::vector<int> order;
  arm(sched, Time::milliseconds(3), [&] { order.push_back(3); });
  sched.schedule_at(Time::milliseconds(1), [&] { order.push_back(1); });
  arm(sched, Time::milliseconds(2), [&] { order.push_back(2); });
  sched.schedule_at(Time::milliseconds(4), [&] { order.push_back(4); });
  EXPECT_EQ(sched.size(), 4u);
  EXPECT_EQ(sched.staged(), 2u);  // the two timer shots
  while (!sched.empty()) sched.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(StagingRule, HeapGrowsPastTheLimitAndDrainsBack) {
  constexpr std::size_t kLimit = Scheduler::kHeapDirectLimit;
  Scheduler sched;
  std::vector<std::int64_t> fired;
  // Plain events go to the heap until it holds more than kLimit entries;
  // every later one is staged.
  const std::int64_t n = static_cast<std::int64_t>(kLimit) + 40;
  for (std::int64_t i = n; i > 0; --i) {  // reverse order: no sorted luck
    sched.schedule_at(Time::microseconds(10 * i),
                      [&fired, i] { fired.push_back(i); });
  }
  EXPECT_EQ(sched.staged(), static_cast<std::size_t>(n) - kLimit - 1);
  // Drain until the heap is back under the limit, then schedule again: a
  // plain event goes straight into the heap once more.
  while (sched.size() > kLimit / 2) sched.run_next();
  const std::size_t staged_before = sched.staged();
  sched.schedule_at(Time::microseconds(10 * n + 5),
                    [&fired, n] { fired.push_back(n + 1); });
  EXPECT_EQ(sched.staged(), staged_before);
  while (!sched.empty()) sched.run_next();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(n) + 1);
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], static_cast<std::int64_t>(i) + 1);
  }
}

TEST(StagingRule, SameTickTiesFireInSeqOrderAcrossHeapAndWheel) {
  // Equal firing times, alternating wheel-staged and heap-direct events,
  // first with a small heap, then past the limit (where plain events are
  // staged too): every tie resolves by insertion seq. The times include the
  // wheel cursor's own start (0) and a tick-aligned block start, where a
  // staged tie sits exactly at the cursor when the heap front reaches it.
  const std::int64_t kBlockStart = std::int64_t{20} * 256 * 1024;
  for (const std::int64_t at : {std::int64_t{0}, std::int64_t{5'000'300},
                                kBlockStart}) {
    for (const std::size_t filler :
         {std::size_t{0}, Scheduler::kHeapDirectLimit + 8}) {
      Scheduler sched;
      std::vector<int> order;
      for (std::size_t i = 0; i < filler; ++i) {
        sched.schedule_at(Time::nanoseconds(static_cast<std::int64_t>(i)),
                          [] {});
      }
      const std::size_t staged_before = sched.staged();
      for (int i = 0; i < 6; ++i) {
        const auto fire = [&order, i] { order.push_back(i); };
        if (i % 2 == 0) {
          arm(sched, Time::nanoseconds(at), fire);
        } else {
          sched.schedule_at(Time::nanoseconds(at), fire);
        }
      }
      // Small heap: only the three timer shots stage; past the limit, all.
      EXPECT_EQ(sched.staged() - staged_before, filler == 0 ? 3u : 6u);
      while (!sched.empty()) sched.run_next();
      EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}))
          << "at " << at << " filler " << filler;
    }
  }
}

TEST(TimerWheel, SameTickDifferentTimesOrdered) {
  // Two events inside one wheel tick (1024 ns) must still fire in time
  // order: the wheel resolves sub-tick order through the dispatch heap.
  Scheduler sched;
  std::vector<int> order;
  arm(sched, Time::nanoseconds(700), [&] { order.push_back(2); });
  arm(sched, Time::nanoseconds(300), [&] { order.push_back(1); });
  while (!sched.empty()) sched.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TimerWheel, SimultaneousEventsFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    arm(sched, Time::seconds(1.0), [&order, i] { order.push_back(i); });
  }
  while (!sched.empty()) sched.run_next();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(TimerWheel, CancelInBucketIsImmediate) {
  Scheduler sched;
  int fired = 0;
  EventHandle h = arm(sched, Time::seconds(5.0), [&] { ++fired; });
  arm(sched, Time::seconds(1.0), [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  h.cancel();  // idempotent
  while (!sched.empty()) sched.run_next();
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, CascadeAcrossLevels) {
  // An event far enough out to sit above level 0 must still fire exactly on
  // time after cascading down, including across a level-1 carry boundary.
  Scheduler sched;
  std::vector<std::int64_t> fired_at;
  const std::int64_t kTick = 1 << 10;
  for (std::int64_t t : {255 * kTick, 256 * kTick, 257 * kTick,
                         65536 * kTick, (65536 + 255) * kTick}) {
    arm(sched, Time::nanoseconds(t), [&fired_at, t] { fired_at.push_back(t); });
  }
  std::int64_t last = -1;
  while (!sched.empty()) {
    const Time now = sched.run_next();
    EXPECT_GT(now.ns(), last);  // strictly advancing dispatch times
    last = now.ns();
  }
  EXPECT_EQ(fired_at,
            (std::vector<std::int64_t>{255 * kTick, 256 * kTick, 257 * kTick,
                                       65536 * kTick, (65536 + 255) * kTick}));
}

TEST(TimerWheel, StaleBucketAtBlockEntryPreservesFifo) {
  // Regression: a ++cursor carry enters a level-1 block whose bucket is
  // still staged (the carry path never scans upper levels). A fresh insert
  // at the same tick then lands directly in level 0 of the new block; the
  // stale bucket must be cascaded before level 0 is consumed, or the pair
  // fires in reverse seq order. Found via the paced-dumbbell digest diff.
  Scheduler sched;
  const std::int64_t kTick = 1 << 10;
  std::vector<int> order;
  // E1 in the NEXT level-1 block (tick 352 -> bucket (1,1) at cursor 0).
  const Time t_shared = Time::nanoseconds(352 * kTick + 500);
  arm(sched, t_shared, [&] { order.push_back(1); });
  // A carry driver at the last tick of the current block. From inside its
  // action — after the cursor has carried into block 1 — schedule E2 at the
  // exact same time as E1 (it maps to level 0 of the just-entered block).
  arm(sched, Time::nanoseconds(255 * kTick),
      [&] { arm(sched, t_shared, [&] { order.push_back(2); }); });
  while (!sched.empty()) sched.run_next();
  // Same firing time: FIFO on insertion seq, so E1 (armed first) wins.
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TimerWheel, FarFutureEvents) {
  // Beyond the six-level horizon (2^48 ticks): the far bucket re-enters the
  // wheel via far_jump and still fires in order.
  Scheduler sched;
  std::vector<int> order;
  const std::int64_t far = std::int64_t{1} << 59;
  arm(sched, Time::nanoseconds(far + 5000), [&] { order.push_back(3); });
  arm(sched, Time::nanoseconds(far), [&] { order.push_back(2); });
  arm(sched, Time::nanoseconds(100), [&] { order.push_back(1); });
  while (!sched.empty()) sched.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimerWheel, HeavyRearmLeavesNoTombstones) {
  // The RTO pattern: cancel + re-schedule a far deadline on every "ACK".
  // Bucket unlink must reclaim the slot each time, so the scheduler never
  // accumulates dead entries (size() counts live events only).
  Scheduler sched;
  EventHandle rto;
  int fired = 0;
  for (int i = 0; i < 10'000; ++i) {
    rto.cancel();
    rto = arm(sched, Time::milliseconds(500 + i), [&] { ++fired; });
  }
  EXPECT_EQ(sched.size(), 1u);
  while (!sched.empty()) sched.run_next();
  EXPECT_EQ(fired, 1);
}

// --- RAII Timer handle ------------------------------------------------------

TEST(RaiiTimer, ArmFiresOnce) {
  Simulator sim;
  int fired = 0;
  Timer t(sim);
  t.arm(Time::seconds(1.0), [&] { ++fired; });
  EXPECT_TRUE(t.pending());
  EXPECT_EQ(t.deadline(), Time::seconds(1.0));
  sim.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.pending());
}

TEST(RaiiTimer, RearmReplacesPendingShot) {
  Simulator sim;
  int fired = 0;
  Timer t(sim);
  t.arm(Time::seconds(1.0), [&] { fired = 1; });
  t.arm(Time::seconds(2.0), [&] { fired = 2; });
  sim.run_all();
  EXPECT_EQ(fired, 2);  // first shot was replaced, not fired
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(RaiiTimer, DestructionCancels) {
  Simulator sim;
  int fired = 0;
  {
    Timer t(sim);
    t.arm(Time::seconds(1.0), [&] { ++fired; });
  }
  sim.run_all();
  EXPECT_EQ(fired, 0);
}

TEST(RaiiTimer, RearmAtDedupsIdenticalDeadline) {
  Simulator sim;
  int fired = 0;
  Timer t(sim);
  EXPECT_TRUE(t.rearm_at(Time::seconds(1.0), [&] { ++fired; }));
  // Same deadline while pending: no-op, the original shot stays.
  EXPECT_FALSE(t.rearm_at(Time::seconds(1.0), [&] { fired += 100; }));
  EXPECT_TRUE(t.rearm_at(Time::seconds(2.0), [&] { fired += 10; }));
  sim.run_all();
  EXPECT_EQ(fired, 10);
}

TEST(RaiiTimer, MoveTransfersOwnership) {
  Simulator sim;
  int fired = 0;
  Timer a(sim);
  a.arm(Time::seconds(1.0), [&] { ++fired; });
  Timer b = std::move(a);
  EXPECT_TRUE(b.pending());
  EXPECT_FALSE(a.pending());  // NOLINT(bugprone-use-after-move): spec'd empty
  sim.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(RaiiTimer, MoveAssignCancelsPreviousShot) {
  Simulator sim;
  int fired = 0;
  Timer a(sim);
  Timer b(sim);
  a.arm(Time::seconds(1.0), [&] { fired += 1; });
  b.arm(Time::seconds(2.0), [&] { fired += 10; });
  b = std::move(a);  // b's own shot is cancelled; a's shot survives in b
  sim.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(RaiiTimer, PastDeadlineClampsToNow) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(Time::seconds(1.0), [&] { order.push_back(1); });
  Timer t(sim);
  sim.run_until(Time::seconds(2.0));
  t.arm_at(Time::seconds(0.5), [&] { order.push_back(2); });  // in the past
  EXPECT_EQ(t.deadline(), Time::seconds(0.5));  // reports the requested time
  sim.run_until(Time::seconds(3.0));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace tcpdyn::sim
