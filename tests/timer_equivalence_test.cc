// Golden digests for the event scheduler: every counter, every queue
// statistic, the full cwnd trajectory (hashed over raw double bits), and the
// packet-conservation ledger of a fully audited run. The scheduler stages
// timer shots, and any event that arrives while its heap is large, on a
// timer wheel; that choice changes only where a pending event is stored,
// never the (time, seq) dispatch order, so the digests must not move.
//
// The goldens were captured from the heap-only scheduler ("slab"), which
// stored every event in its binary heap, before the staging rule replaced
// the choice between it and an always-wheel scheduler. A mismatch is a
// scheduler bug unless a model change moves the same digests in
// cc_equivalence_test.cc too.
//
// Workloads span the regimes that stress different wheel paths: the paper
// dumbbells (RTO rearm churn, pacing, delayed ACKs), a 512-flow parking
// lot (a large heap, bucket occupancy at scale), incast session churn
// (plain events staged once the heap is large), and the chaos scenario
// (fault-plan timers, Gilbert-Elliott losses, long RTO backoff across
// cascades).
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/scenarios.h"
#include "core/topo_scenarios.h"

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

std::string digest(const TopoSpec& spec, double warmup, double duration) {
  Scenario sc = make_topo_scenario(spec);
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

// FNV-1a over the digest text, for digests too long to inline.
std::uint64_t text_hash(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(TimerEquivalence, Fig2OneWay) {
  EXPECT_EQ(digest(fig2_one_way(), 20.0, 80.0),
            "c0 sent=285 retx=14 acks=263 dup=2 to=1 dlv=253\n"
            "c1 sent=350 retx=44 acks=311 dup=2 to=1 dlv=245\n"
            "c2 sent=311 retx=32 acks=281 dup=2 to=1 dlv=233\n"
            "p0 arr=946 dep=880 drop=50 ddrop=50 adrop=0 max=20 qn=1626\n"
            "p1 arr=867 dep=867 drop=0 ddrop=0 adrop=0 max=1 qn=1735\n"
            "drops=50 cwnd_hash=f00fda7e700783bd created=1813 delivered=1722"
            " dropped=50\n");
}

TEST(TimerEquivalence, Fig4TwoWay) {
  EXPECT_EQ(digest(fig4_twoway(0.01, 20), 20.0, 80.0),
            "c0 sent=743 retx=47 acks=708 dup=5 to=5 dlv=630\n"
            "c1 sent=818 retx=47 acks=773 dup=5 to=5 dlv=590\n"
            "p0 arr=1516 dep=1486 drop=30 ddrop=30 adrop=0 max=20 qn=2894\n"
            "p1 arr=1531 dep=1481 drop=30 ddrop=30 adrop=0 max=20 qn=2925\n"
            "drops=60 cwnd_hash=95319b74048fed15 created=3047 delivered=2967"
            " dropped=60\n");
}

TEST(TimerEquivalence, Fig6LargePipe) {
  EXPECT_EQ(digest(fig6_twoway(1.0, 20), 20.0, 80.0),
            "c0 sent=509 retx=36 acks=453 dup=2 to=1 dlv=404\n"
            "c1 sent=532 retx=39 acks=484 dup=1 to=1 dlv=389\n"
            "p0 arr=1002 dep=959 drop=29 ddrop=29 adrop=0 max=20 qn=1644\n"
            "p1 arr=995 dep=959 drop=21 ddrop=21 adrop=0 max=20 qn=1640\n"
            "drops=50 cwnd_hash=cb9d4528f22345c3 created=1997 delivered=1893"
            " dropped=50\n");
}

TEST(TimerEquivalence, PacedTwoWay) {
  // Pacing leans hardest on rearm_at dedup and near-cursor inserts.
  EXPECT_EQ(digest(paced_twoway(0.01, 20), 20.0, 80.0),
            "c0 sent=1018 retx=14 acks=997 dup=4 to=4 dlv=863\n"
            "c1 sent=947 retx=12 acks=921 dup=4 to=4 dlv=769\n"
            "p0 arr=1948 dep=1925 drop=18 ddrop=11 adrop=7 max=20 qn=3552\n"
            "p1 arr=1951 dep=1927 drop=11 ddrop=10 adrop=1 max=20 qn=3394\n"
            "drops=29 cwnd_hash=924899999c6501ab created=3899 delivered=3852"
            " dropped=29\n");
}

TEST(TimerEquivalence, DelayedAckTwoWay) {
  EXPECT_EQ(digest(delayed_ack_twoway(64, 0.01, 20), 20.0, 80.0),
            "c0 sent=854 retx=28 acks=465 dup=4 to=1 dlv=741\n"
            "c1 sent=973 retx=27 acks=528 dup=5 to=1 dlv=783\n"
            "p0 arr=1382 dep=1367 drop=15 ddrop=15 adrop=0 max=20 qn=2548\n"
            "p1 arr=1444 dep=1413 drop=15 ddrop=13 adrop=2 max=20 qn=2756\n"
            "drops=30 cwnd_hash=1c83a6d51bc4f505 created=2826 delivered=2779"
            " dropped=30\n");
}

TEST(TimerEquivalence, ParkingLot512Flows) {
  // 512 concurrent flows: wide bucket occupancy, heavy per-ACK RTO rearm.
  // The 515-line digest is pinned by its hash plus its readable last line.
  ParkingLotParams p;
  const std::string d =
      digest(parking_lot_spec(p), p.warmup_sec, p.duration_sec);
  EXPECT_EQ(text_hash(d), 0xee7f2edc6293206bULL);
  EXPECT_NE(d.find("\ndrops=6664 cwnd_hash=3a6881a0c816322e created=400930"
                   " delivered=374897 dropped=25750\n"),
            std::string::npos);
}

TEST(TimerEquivalence, IncastChurn) {
  // 128 churned sessions: setup schedules every session's start and stop,
  // so the heap passes Scheduler::kHeapDirectLimit and plain events are
  // staged on the wheel as well as timer shots.
  IncastParams p;
  p.senders = 8;
  p.flows_per_sender = 16;
  p.arrival_rate = 4.0;
  p.session_sec = 0.5;
  p.warmup_sec = 1.0;
  p.duration_sec = 8.0;
  const std::string d = digest(incast_spec(p), p.warmup_sec, p.duration_sec);
  EXPECT_EQ(text_hash(d), 0x572f03576102d3a9ULL);
  EXPECT_NE(d.find("\ndrops=169 cwnd_hash=fc9a67c9e14c924c created=3489"
                   " delivered=3320 dropped=169\n"),
            std::string::npos);
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
  EXPECT_EQ(digest(chaos_spec(p), p.warmup_sec, p.duration_sec),
            "c0 sent=421 retx=42 acks=367 dup=10 to=12 dlv=313\n"
            "c1 sent=379 retx=51 acks=332 dup=9 to=14 dlv=276\n"
            "c2 sent=435 retx=44 acks=378 dup=11 to=12 dlv=313\n"
            "c3 sent=414 retx=47 acks=368 dup=9 to=13 dlv=286\n"
            "c4 sent=447 retx=68 acks=382 dup=12 to=11 dlv=327\n"
            "c5 sent=333 retx=55 acks=285 dup=9 to=15 dlv=218\n"
            "c6 sent=385 retx=64 acks=318 dup=10 to=14 dlv=231\n"
            "c7 sent=362 retx=51 acks=314 dup=10 to=15 dlv=254\n"
            "p0 arr=2998 dep=2801 drop=177 ddrop=177 adrop=0 max=20 qn=5475\n"
            "p1 arr=2989 dep=2866 drop=123 ddrop=123 adrop=0 max=20 qn=5423\n"
            "drops=410 cwnd_hash=1d403ab980e5de69 created=5987 delivered=5555"
            " dropped=410\n");
}

}  // namespace
}  // namespace tcpdyn::core
