// BBR: the delivery-rate sampler and windowed-max bandwidth filter, the
// windowed-min RTT estimator, and the Startup/Drain/ProbeBW/ProbeRTT state
// machine. The controller is driven directly with crafted AckContexts (like
// the Vegas suite) so every sample, round boundary, and state transition is
// chosen by the test; a final integration test runs a real two-way BBR
// dumbbell twice under the full audit ledger and demands byte-identity.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/scenarios.h"
#include "tcp/cc_bbr.h"

namespace tcpdyn::tcp {
namespace {

constexpr std::uint32_t kPkt = 500;  // data bytes per packet

// Drives a BbrCc through send/ACK sequences with full delivery accounting,
// the way WindowSender would.
struct Driver {
  explicit Driver(BbrCc& c) : cc(c) {}

  void send(std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      cc.on_sent(now, sent++, kPkt, false);
    }
  }

  // Advances the clock by `gap`, then delivers one cumulative ACK covering
  // one more packet, with an RTT sample of `rtt` (zero = no sample).
  void ack_one(sim::Time gap, sim::Time rtt) {
    now += gap;
    AckContext ctx;
    ctx.now = now;
    ctx.newly_acked = 1;
    ctx.acked_to = ++acked;
    ctx.rtt_valid = rtt > sim::Time::zero();
    ctx.rtt = rtt;
    ctx.delivered = acked;
    ctx.delivered_bytes = static_cast<std::uint64_t>(acked) * kPkt;
    ctx.inflight = sent - acked;
    cc.on_ack(ctx);
  }

  // Steady cruise step: one ACK, one fresh send — inflight stays constant.
  void step(sim::Time gap, sim::Time rtt) {
    ack_one(gap, rtt);
    send(1);
  }

  // One packet-timed round: top the window up, then ACK everything
  // outstanding with `gap` spacing. The cumulative ACK passes the previous
  // round boundary once mid-sequence and the new boundary (== everything
  // sent) on the final ACK, so each call advances cc.round() by exactly 2.
  void round(sim::Time gap, sim::Time rtt) {
    const std::uint32_t inflight = sent - acked;
    send(cc.usable_window() > inflight ? cc.usable_window() - inflight : 0);
    while (acked < sent) ack_one(gap, rtt);
  }

  BbrCc& cc;
  sim::Time now = sim::Time::zero();
  std::uint32_t sent = 0;
  std::uint32_t acked = 0;
};

// Runs Startup to the bandwidth plateau and Drain down to 1×BDP, leaving the
// controller cruising in ProbeBW with ~10 packets in flight, a 100 ms min
// RTT, and a 50000 B/s bandwidth estimate.
void drive_to_probe_bw(Driver& d) {
  const auto rtt = sim::Time::milliseconds(100);
  d.send(40);  // deep pipe: Drain has a queue to work off
  int guard = 0;
  while (d.cc.mode() == BbrCc::Mode::kStartup && guard++ < 400) {
    d.step(sim::Time::milliseconds(10), rtt);
  }
  ASSERT_EQ(d.cc.mode(), BbrCc::Mode::kDrain);
  while (d.cc.mode() == BbrCc::Mode::kDrain && d.acked < d.sent) {
    d.ack_one(sim::Time::milliseconds(10), rtt);
  }
  ASSERT_EQ(d.cc.mode(), BbrCc::Mode::kProbeBw);
}

TEST(BbrCc, DeliveryRateSampleFeedsBandwidthFilter) {
  BbrCc cc;
  cc.bind(nullptr, CcEnv{});
  Driver d(cc);
  d.send(4);
  EXPECT_EQ(cc.bandwidth_Bps(), 0u);  // no samples yet
  d.ack_one(sim::Time::milliseconds(10), sim::Time::milliseconds(100));
  EXPECT_EQ(cc.bandwidth_Bps(), 0u);  // first ACK only anchors
  d.ack_one(sim::Time::milliseconds(10), sim::Time::milliseconds(100));
  // 500 bytes in 10 ms = 50000 bytes/sec.
  EXPECT_EQ(cc.bandwidth_Bps(), 50000u);
}

TEST(BbrCc, ZeroIntervalAcksAccumulateIntoNextSample) {
  // ACK compression: two ACKs at the same instant must not be dropped from
  // the rate accounting — their bytes ride into the next timed sample.
  BbrCc cc;
  cc.bind(nullptr, CcEnv{});
  Driver d(cc);
  d.send(6);
  d.ack_one(sim::Time::milliseconds(10), sim::Time::zero());  // anchor
  d.ack_one(sim::Time::zero(), sim::Time::zero());   // compressed: no sample
  d.ack_one(sim::Time::zero(), sim::Time::zero());   // compressed: no sample
  EXPECT_EQ(cc.bandwidth_Bps(), 0u);
  d.ack_one(sim::Time::milliseconds(10), sim::Time::zero());
  // Three packets' bytes over the 10 ms since the anchor: 150000 B/s.
  EXPECT_EQ(cc.bandwidth_Bps(), 150000u);
}

TEST(BbrCc, BandwidthFilterWindowExpiry) {
  BbrCc cc;
  cc.bind(nullptr, CcEnv{});
  Driver d(cc);
  const auto rtt = sim::Time::milliseconds(100);
  // A fast round: ACKs 1 ms apart -> 500000 B/s samples.
  d.round(sim::Time::milliseconds(1), rtt);
  ASSERT_EQ(cc.bandwidth_Bps(), 500000u);
  const std::uint64_t round_of_max = cc.round();
  // Slower rounds (10 ms spacing -> 50000 B/s): the max must survive until
  // the fast sample's round falls off the back of the 10-round window.
  // Each Driver::round advances cc.round() by 2, so stop while the next
  // call still lands inside the window.
  while (cc.round() + 2 < round_of_max + 10) {
    d.round(sim::Time::milliseconds(10), rtt);
    EXPECT_EQ(cc.bandwidth_Bps(), 500000u)
        << "max expired early at round " << cc.round();
  }
  d.round(sim::Time::milliseconds(10), rtt);
  EXPECT_GE(cc.round(), round_of_max + 10);
  EXPECT_EQ(cc.bandwidth_Bps(), 50000u) << "max survived past its window";
}

TEST(BbrCc, StartupPlateauEntersDrainThenProbeBw) {
  BbrCc cc;
  cc.bind(nullptr, CcEnv{});
  Driver d(cc);
  ASSERT_EQ(cc.mode(), BbrCc::Mode::kStartup);
  const auto rtt = sim::Time::milliseconds(100);
  // Cruise with 40 packets in flight at a constant delivery rate: the
  // bandwidth estimate plateaus immediately, so after
  // startup_full_bw_rounds (3) round-starts without 25% growth the pipe is
  // declared full and Startup yields to Drain.
  d.send(40);
  int guard = 0;
  while (cc.mode() == BbrCc::Mode::kStartup && guard++ < 400) {
    d.step(sim::Time::milliseconds(10), rtt);
  }
  ASSERT_EQ(cc.mode(), BbrCc::Mode::kDrain);
  EXPECT_TRUE(cc.full_bw_reached());
  EXPECT_EQ(cc.pacing_gain(), BbrCc::kDrainGain);
  // Drain keeps the high cwnd gain; only the pacing rate drops.
  EXPECT_EQ(cc.cwnd_gain(), BbrCc::kStartupGain);
  // Draining: once inflight has fallen to <= 1×BDP (10 packets: 50000 B/s
  // × 100 ms / 500 B) the queue is gone and ProbeBW begins, at the fixed
  // deterministic entry phase.
  while (cc.mode() == BbrCc::Mode::kDrain && d.acked < d.sent) {
    d.ack_one(sim::Time::milliseconds(10), rtt);
  }
  ASSERT_EQ(cc.mode(), BbrCc::Mode::kProbeBw);
  EXPECT_EQ(d.sent - d.acked, cc.bdp_packets());  // exited exactly at 1×BDP
  EXPECT_EQ(cc.cycle_phase(), BbrCc::kCycleStart);
  EXPECT_EQ(cc.cwnd_gain(), BbrCc::kProbeBwCwndGain);
}

TEST(BbrCc, GainCyclePhaseAdvancesOncePerMinRtt) {
  BbrCc cc;
  cc.bind(nullptr, CcEnv{});
  Driver d(cc);
  drive_to_probe_bw(d);
  ASSERT_EQ(cc.min_rtt(), sim::Time::milliseconds(100));
  std::uint32_t phase = cc.cycle_phase();
  // ACKs spaced one min_rtt apart advance the cycle by exactly one phase
  // each, wrapping mod 8, and pacing_gain follows the published schedule.
  for (int i = 0; i < 12; ++i) {
    d.step(sim::Time::milliseconds(100), sim::Time::milliseconds(100));
    phase = (phase + 1) % BbrCc::kCycleLen;
    EXPECT_EQ(cc.cycle_phase(), phase) << "step " << i;
    EXPECT_EQ(cc.pacing_gain(), BbrCc::kCycleGains[phase]);
  }
  // Sub-min_rtt spacing must NOT advance the phase.
  const std::uint32_t held = cc.cycle_phase();
  d.step(sim::Time::milliseconds(1), sim::Time::milliseconds(100));
  EXPECT_EQ(cc.cycle_phase(), held);
}

TEST(BbrCc, ProbeRttEntryAndExitTiming) {
  BbrParams params;
  BbrCc cc(params);
  cc.bind(nullptr, CcEnv{});
  Driver d(cc);
  drive_to_probe_bw(d);
  // Settle at the ProbeBW operating point (cwnd = 2×BDP = 20).
  for (int i = 0; i < 3; ++i) {
    d.step(sim::Time::milliseconds(10), sim::Time::milliseconds(100));
  }
  const std::uint32_t cruise_cwnd = cc.usable_window();
  EXPECT_EQ(cruise_cwnd, 2 * cc.bdp_packets());
  // Keep the delivery rate up (10 ms spacing) but report only worse RTTs:
  // the min-RTT filter goes a full 10 s window without a new minimum,
  // which must trigger ProbeRTT.
  const sim::Time t0 = d.now;
  int guard = 0;
  while (cc.mode() != BbrCc::Mode::kProbeRtt && guard++ < 1200) {
    d.step(sim::Time::milliseconds(10), sim::Time::milliseconds(150));
  }
  ASSERT_EQ(cc.mode(), BbrCc::Mode::kProbeRtt);
  EXPECT_GT(d.now - t0, params.min_rtt_window);
  EXPECT_LE(d.now - t0, params.min_rtt_window + sim::Time::milliseconds(100));
  EXPECT_EQ(cc.usable_window(), params.min_cwnd);  // window collapsed
  // The dwell only starts once inflight has drained to min_cwnd; the ACK
  // that reaches it arms the 200 ms hold.
  while (d.sent - d.acked > params.min_cwnd) {
    d.ack_one(sim::Time::milliseconds(10), sim::Time::milliseconds(150));
  }
  const sim::Time dwell_armed = d.now;
  // 110 ms into the dwell: still held.
  d.ack_one(sim::Time::milliseconds(10), sim::Time::milliseconds(150));
  d.step(sim::Time::milliseconds(100), sim::Time::milliseconds(150));
  EXPECT_EQ(cc.mode(), BbrCc::Mode::kProbeRtt);
  EXPECT_EQ(cc.usable_window(), params.min_cwnd);
  // Past the 200 ms dwell: released back to ProbeBW (the pipe was full),
  // prior window restored.
  d.step(sim::Time::milliseconds(150), sim::Time::milliseconds(150));
  ASSERT_GE(d.now - dwell_armed, params.probe_rtt_duration);
  EXPECT_EQ(cc.mode(), BbrCc::Mode::kProbeBw);
  EXPECT_GE(cc.usable_window(), cruise_cwnd);
  // The min-RTT window was re-stamped at exit: 5 s of stale samples later
  // we must still be out of ProbeRTT...
  for (int i = 0; i < 49; ++i) {
    d.step(sim::Time::milliseconds(100), sim::Time::milliseconds(200));
  }
  EXPECT_NE(cc.mode(), BbrCc::Mode::kProbeRtt);
  // ...and a full window of them later, back in.
  guard = 0;
  while (cc.mode() != BbrCc::Mode::kProbeRtt && guard++ < 120) {
    d.step(sim::Time::milliseconds(100), sim::Time::milliseconds(200));
  }
  EXPECT_EQ(cc.mode(), BbrCc::Mode::kProbeRtt);
}

TEST(BbrCc, PacingIntervalMatchesModel) {
  BbrCc cc;
  cc.bind(nullptr, CcEnv{});
  EXPECT_EQ(cc.pacing_interval(), sim::Time::zero());  // no model yet
  Driver d(cc);
  d.send(4);
  d.ack_one(sim::Time::milliseconds(10), sim::Time::milliseconds(100));
  d.ack_one(sim::Time::milliseconds(10), sim::Time::milliseconds(100));
  ASSERT_EQ(cc.bandwidth_Bps(), 50000u);
  ASSERT_EQ(cc.mode(), BbrCc::Mode::kStartup);
  // interval = bytes·256·1e9 / (bw·gain) ns
  //          = 500·256·1e9 / (50000·739) = 3464140 ns (floor).
  EXPECT_EQ(cc.pacing_interval(), sim::Time::nanoseconds(3464140));
}

TEST(BbrCc, TimeoutCollapsesWindowButKeepsModel) {
  BbrCc cc;
  cc.bind(nullptr, CcEnv{});
  Driver d(cc);
  const auto rtt = sim::Time::milliseconds(100);
  for (int i = 0; i < 8; ++i) d.round(sim::Time::milliseconds(5), rtt);
  ASSERT_GT(cc.usable_window(), 4u);
  const std::uint64_t bw = cc.bandwidth_Bps();
  ASSERT_GT(bw, 0u);
  cc.on_timeout(d.now);
  EXPECT_EQ(cc.usable_window(), 4u);         // min_cwnd floor
  EXPECT_EQ(cc.bandwidth_Bps(), bw);         // model survives the RTO
  EXPECT_EQ(cc.min_rtt(), rtt);
  EXPECT_GT(cc.pacing_interval(), sim::Time::zero());
}

TEST(BbrCc, FastRetransmitLeavesWindowModelDriven) {
  BbrCc cc;
  cc.bind(nullptr, CcEnv{});
  Driver d(cc);
  for (int i = 0; i < 8; ++i) {
    d.round(sim::Time::milliseconds(5), sim::Time::milliseconds(100));
  }
  const std::uint32_t w = cc.usable_window();
  cc.on_dup_ack_loss(d.now);
  EXPECT_EQ(cc.usable_window(), w);  // loss is noise to the model
}

TEST(BbrCc, RespectsMaxwnd) {
  BbrCc cc;
  cc.bind(nullptr, CcEnv{6, 3});
  Driver d(cc);
  for (int i = 0; i < 12; ++i) {
    d.round(sim::Time::milliseconds(1), sim::Time::milliseconds(100));
  }
  EXPECT_LE(cc.usable_window(), 6u);
  EXPECT_GE(cc.usable_window(), 1u);
}

// --- integration: determinism under the full conservation ledger ---------

std::string bbr_dumbbell_digest() {
  core::DumbbellParams p;
  p.tau = sim::Time::seconds(0.01);
  core::TopoSpec spec;
  spec.topo = core::dumbbell_topology(p);
  std::vector<core::ConnSpec> cs = {core::dumbbell_flow(/*forward=*/true),
                                    core::dumbbell_flow(/*forward=*/false)};
  cs[1].start_time = sim::Time::seconds(2.0);
  for (auto& c : cs) {
    c.kind = tcp::CcAlgorithm::kBbr;
    spec.traffic.add(c);
  }
  core::Scenario sc = core::make_topo_scenario(spec);
  sc.exp->set_audit_mode(core::AuditMode::kFull);
  const core::ExperimentResult r =
      sc.exp->run(sim::Time::seconds(20.0), sim::Time::seconds(120.0));
  std::string out;
  for (const auto& [id, c] : r.senders) {
    out += std::to_string(id) + ":" + std::to_string(c.data_sent) + "/" +
           std::to_string(c.retransmits) + "/" +
           std::to_string(c.acks_received) + "/" +
           std::to_string(r.delivered.at(id)) + ";";
  }
  for (const auto& [id, series] : r.cwnd) {
    out += "w" + std::to_string(id) + ":" +
           std::to_string(series.points().size()) + ";";
    for (const auto& pt : series.points()) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &pt.value, sizeof(bits));
      out += std::to_string(bits) + ",";
    }
  }
  out += "audit:" + std::to_string(r.audit.created) + "/" +
         std::to_string(r.audit.delivered) + "/" +
         std::to_string(r.audit.dropped);
  return out;
}

TEST(BbrIntegration, TwoWayDumbbellDoubleRunByteIdentical) {
  const std::string first = bbr_dumbbell_digest();
  const std::string second = bbr_dumbbell_digest();
  EXPECT_EQ(first, second);
  // And the run actually exercised BBR: data flowed both ways.
  EXPECT_NE(first.find("0:"), std::string::npos);
  EXPECT_NE(first.find("1:"), std::string::npos);
}

}  // namespace
}  // namespace tcpdyn::tcp
