// Byte-identity regression lock for the CongestionControl refactor: the
// strategy-based WindowSender must reproduce the subclass-based senders'
// runs EXACTLY — every counter, every queue statistic, and the full cwnd
// trajectory (hashed bit-for-bit over the raw doubles).
//
// The golden digests below were captured from the pre-refactor tree by a
// one-off harness with the identical digest logic. If an intentional
// behavioral change to Tahoe/Reno/FixedWindow/pacing/delayed-ACK ever
// lands, recapture the digests in the same commit and say why in its
// message; any other diff here is a regression.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/scenarios.h"

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

std::string run_digest(const TopoSpec& spec, double warmup, double duration) {
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

TEST(CcEquivalence, TahoeFig4TwoWay) {
  EXPECT_EQ(run_digest(fig4_twoway(0.01, 20), 20.0, 80.0),
            "c0 sent=743 retx=47 acks=708 dup=5 to=5 dlv=630\n"
            "c1 sent=818 retx=47 acks=773 dup=5 to=5 dlv=590\n"
            "p0 arr=1516 dep=1486 drop=30 ddrop=30 adrop=0 max=20 qn=2894\n"
            "p1 arr=1531 dep=1481 drop=30 ddrop=30 adrop=0 max=20 qn=2925\n"
            "drops=60 cwnd_hash=95319b74048fed15 created=3047 delivered=2967"
            " dropped=60\n");
}

TEST(CcEquivalence, TahoeFig6LargePipe) {
  EXPECT_EQ(run_digest(fig6_twoway(1.0, 20), 20.0, 80.0),
            "c0 sent=509 retx=36 acks=453 dup=2 to=1 dlv=404\n"
            "c1 sent=532 retx=39 acks=484 dup=1 to=1 dlv=389\n"
            "p0 arr=1002 dep=959 drop=29 ddrop=29 adrop=0 max=20 qn=1644\n"
            "p1 arr=995 dep=959 drop=21 ddrop=21 adrop=0 max=20 qn=1640\n"
            "drops=50 cwnd_hash=cb9d4528f22345c3 created=1997 delivered=1893"
            " dropped=50\n");
}

TEST(CcEquivalence, RenoTwoWay) {
  EXPECT_EQ(run_digest(reno_twoway(0.01, 20), 20.0, 80.0),
            "c0 sent=845 retx=49 acks=801 dup=11 to=1 dlv=717\n"
            "c1 sent=921 retx=51 acks=882 dup=13 to=1 dlv=713\n"
            "p0 arr=1729 dep=1684 drop=32 ddrop=32 adrop=0 max=20 qn=3257\n"
            "p1 arr=1723 dep=1685 drop=34 ddrop=34 adrop=0 max=20 qn=3260\n"
            "drops=66 cwnd_hash=bdd31780ecf01ecc created=3452 delivered=3369"
            " dropped=66\n");
}

TEST(CcEquivalence, FixedWindowFig8) {
  EXPECT_EQ(run_digest(fig8_fixed_window(0.01, 30, 25), 20.0, 80.0),
            "c0 sent=1140 retx=0 acks=1110 dup=0 to=0 dlv=923\n"
            "c1 sent=986 retx=0 acks=961 dup=0 to=0 dlv=768\n"
            "p0 arr=2104 dep=2072 drop=0 ddrop=0 adrop=0 max=55 qn=4177\n"
            "p1 arr=2097 dep=2074 drop=0 ddrop=0 adrop=0 max=25 qn=3953\n"
            "drops=0 cwnd_hash=14650fb0739d0383 created=4201 delivered=4146"
            " dropped=0\n");
}

TEST(CcEquivalence, PacedTwoWay) {
  EXPECT_EQ(run_digest(paced_twoway(0.01, 20), 20.0, 80.0),
            "c0 sent=1018 retx=14 acks=997 dup=4 to=4 dlv=863\n"
            "c1 sent=947 retx=12 acks=921 dup=4 to=4 dlv=769\n"
            "p0 arr=1948 dep=1925 drop=18 ddrop=11 adrop=7 max=20 qn=3552\n"
            "p1 arr=1951 dep=1927 drop=11 ddrop=10 adrop=1 max=20 qn=3394\n"
            "drops=29 cwnd_hash=924899999c6501ab created=3899 delivered=3852"
            " dropped=29\n");
}

TEST(CcEquivalence, FourSwitchChain) {
  EXPECT_EQ(run_digest(four_switch_chain(12, 7), 20.0, 80.0),
            "c0 sent=478 retx=62 acks=433 dup=8 to=4 dlv=349\n"
            "c1 sent=365 retx=12 acks=341 dup=4 to=2 dlv=282\n"
            "c2 sent=78 retx=11 acks=61 dup=1 to=4 dlv=54\n"
            "c3 sent=403 retx=24 acks=379 dup=6 to=6 dlv=286\n"
            "c4 sent=327 retx=64 acks=283 dup=5 to=2 dlv=186\n"
            "c5 sent=104 retx=12 acks=87 dup=3 to=3 dlv=81\n"
            "c6 sent=453 retx=58 acks=407 dup=6 to=5 dlv=308\n"
            "c7 sent=314 retx=20 acks=295 dup=5 to=4 dlv=253\n"
            "c8 sent=142 retx=10 acks=127 dup=2 to=3 dlv=114\n"
            "c9 sent=399 retx=60 acks=350 dup=5 to=5 dlv=264\n"
            "c10 sent=262 retx=17 acks=246 dup=4 to=5 dlv=219\n"
            "c11 sent=117 retx=5 acks=95 dup=2 to=1 dlv=104\n"
            "p0 arr=1798 dep=1738 drop=59 ddrop=59 adrop=0 max=30 qn=3350\n"
            "p1 arr=1800 dep=1720 drop=64 ddrop=57 adrop=7 max=30 qn=3296\n"
            "p2 arr=1633 dep=1599 drop=18 ddrop=9 adrop=9 max=30 qn=3023\n"
            "p3 arr=1646 dep=1603 drop=43 ddrop=32 adrop=11 max=30 qn=2938\n"
            "p4 arr=1883 dep=1813 drop=43 ddrop=27 adrop=16 max=30 qn=3498\n"
            "p5 arr=1911 dep=1862 drop=47 ddrop=47 adrop=0 max=30 qn=3514\n"
            "drops=274 cwnd_hash=896bce6ae6f24f76 created=6617 delivered=6279"
            " dropped=274\n");
}

TEST(CcEquivalence, DelayedAckTwoWay) {
  // Digest recaptured when the delayed-ACK receiver was fixed to ACK a
  // duplicate of the most recent in-order segment immediately (RFC 1122
  // dup-ACK clock; see Receiver::on_data). The old digest delayed those
  // ACKs and is intentionally not reproducible.
  EXPECT_EQ(run_digest(delayed_ack_twoway(64, 0.01, 20), 20.0, 80.0),
            "c0 sent=854 retx=28 acks=465 dup=4 to=1 dlv=741\n"
            "c1 sent=973 retx=27 acks=528 dup=5 to=1 dlv=783\n"
            "p0 arr=1382 dep=1367 drop=15 ddrop=15 adrop=0 max=20 qn=2548\n"
            "p1 arr=1444 dep=1413 drop=15 ddrop=13 adrop=2 max=20 qn=2756\n"
            "drops=30 cwnd_hash=1c83a6d51bc4f505 created=2826 delivered=2779"
            " dropped=30\n");
}

}  // namespace
}  // namespace tcpdyn::core
