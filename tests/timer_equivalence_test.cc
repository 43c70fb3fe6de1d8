// Byte-identity gate for the timer-wheel scheduler backend: running any
// scenario with --timer wheel must reproduce the slab run EXACTLY — every
// counter, every queue statistic, the full cwnd trajectory (hashed over raw
// double bits), and the packet-conservation ledger. The wheel changes only
// how pending events are stored; dispatch order is (time, seq) in both
// backends, so the digests are compared to each other, not to goldens —
// any divergence is a wheel bug by definition.
//
// Workloads span the regimes that stress different wheel paths: the paper
// dumbbells (RTO rearm churn, pacing, delayed ACKs), a 512-flow parking
// lot (bucket occupancy at scale), and the chaos scenario (fault-plan
// timers, Gilbert-Elliott losses, long RTO backoff across cascades).
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/scenarios.h"
#include "core/topo_scenarios.h"
#include "sim/timer_wheel.h"

namespace tcpdyn::core {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t hash_double(std::uint64_t h, double d) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return fnv1a(h, bits);
}

std::string run_digest(Scenario sc, double warmup, double duration) {
  sc.exp->set_audit_mode(AuditMode::kFull);
  ExperimentResult r =
      sc.exp->run(sim::Time::seconds(warmup), sim::Time::seconds(duration));
  std::string out;
  char buf[256];
  for (const auto& [id, c] : r.senders) {
    std::snprintf(buf, sizeof(buf),
                  "c%u sent=%" PRIu64 " retx=%" PRIu64 " acks=%" PRIu64
                  " dup=%" PRIu64 " to=%" PRIu64 " dlv=%" PRIu64 "\n",
                  id, c.data_sent, c.retransmits, c.acks_received,
                  c.dup_ack_losses, c.timeout_losses, r.delivered.at(id));
    out += buf;
  }
  for (std::size_t i = 0; i < r.ports.size(); ++i) {
    const auto& q = r.ports[i].counters;
    std::snprintf(buf, sizeof(buf),
                  "p%zu arr=%" PRIu64 " dep=%" PRIu64 " drop=%" PRIu64
                  " ddrop=%" PRIu64 " adrop=%" PRIu64 " max=%zu qn=%zu\n",
                  i, q.arrivals, q.departures, q.drops, q.data_drops,
                  q.ack_drops, q.max_length, r.ports[i].queue.size());
    out += buf;
  }
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& [id, series] : r.cwnd) {
    h = fnv1a(h, id);
    for (const auto& pt : series.points()) {
      h = hash_double(h, pt.time);
      h = hash_double(h, pt.value);
    }
  }
  std::snprintf(buf, sizeof(buf),
                "drops=%zu cwnd_hash=%016" PRIx64 " created=%" PRIu64
                " delivered=%" PRIu64 " dropped=%" PRIu64 "\n",
                r.drops.size(), h, r.audit.created, r.audit.delivered,
                r.audit.dropped);
  out += buf;
  return out;
}

// Builds the scenario under `backend` (Simulators pick up the process-wide
// default at construction) and digests a fully-audited run.
template <typename MakeScenario>
std::string digest_with(sim::TimerBackend backend, MakeScenario make,
                        double warmup, double duration) {
  sim::set_default_timer_backend(backend);
  Scenario sc = make_topo_scenario(make());
  sim::set_default_timer_backend(sim::TimerBackend::kSlab);
  EXPECT_EQ(sc.exp->sim().timer_backend(), backend);
  return run_digest(std::move(sc), warmup, duration);
}

template <typename MakeScenario>
void expect_backends_identical(MakeScenario make, double warmup,
                               double duration) {
  const std::string slab =
      digest_with(sim::TimerBackend::kSlab, make, warmup, duration);
  const std::string wheel =
      digest_with(sim::TimerBackend::kWheel, make, warmup, duration);
  EXPECT_EQ(slab, wheel);
  EXPECT_FALSE(slab.empty());
}

TEST(TimerEquivalence, Fig2OneWay) {
  expect_backends_identical([] { return fig2_one_way(); }, 20.0, 80.0);
}

TEST(TimerEquivalence, Fig4TwoWay) {
  expect_backends_identical([] { return fig4_twoway(0.01, 20); }, 20.0, 80.0);
}

TEST(TimerEquivalence, Fig6LargePipe) {
  expect_backends_identical([] { return fig6_twoway(1.0, 20); }, 20.0, 80.0);
}

TEST(TimerEquivalence, PacedTwoWay) {
  // Pacing leans hardest on rearm_at dedup and near-cursor inserts.
  expect_backends_identical([] { return paced_twoway(0.01, 20); }, 20.0, 80.0);
}

TEST(TimerEquivalence, DelayedAckTwoWay) {
  expect_backends_identical([] { return delayed_ack_twoway(64, 0.01, 20); },
                            20.0, 80.0);
}

TEST(TimerEquivalence, ParkingLot512Flows) {
  // 512 concurrent flows: wide bucket occupancy, heavy per-ACK RTO rearm.
  ParkingLotParams p;
  expect_backends_identical([&p] { return parking_lot_spec(p); },
                            p.warmup_sec, p.duration_sec);
}

TEST(TimerEquivalence, ChaosFaultPlan) {
  // Fault-plan one-shots, Gilbert-Elliott ACK loss, trunk flaps: long RTO
  // backoff pushes timers deep into upper wheel levels, then cancels them.
  ChaosParams p;
  p.flaps = 2;
  p.flap_period_sec = 30.0;
  p.outage_sec = 1.0;
  p.warmup_sec = 30.0;
  p.duration_sec = 120.0;
  expect_backends_identical([&p] { return chaos_spec(p); }, p.warmup_sec,
                            p.duration_sec);
}

}  // namespace
}  // namespace tcpdyn::core
