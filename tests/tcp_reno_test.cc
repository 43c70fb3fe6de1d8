// WindowSender with RenoCc: fast recovery (inflate/deflate), timeout slow
// start, and the contrast with Tahoe's collapse-to-one response.
#include <gtest/gtest.h>

#include <vector>

#include "net/network.h"
#include "tcp/reno.h"
#include "tcp/sender.h"
#include "tcp/tahoe.h"

namespace tcpdyn::tcp {
namespace {

class NullSink : public net::PacketSink {
 public:
  void deliver(const net::Packet&) override {}
};

RenoCc& reno_cc(WindowSender& s) { return static_cast<RenoCc&>(s.cc()); }

class RenoTest : public ::testing::Test {
 protected:
  RenoTest() : net_(sim_, sim::Time::zero()) {
    h1_ = net_.add_host("H1");
    h2_ = net_.add_host("H2");
    net_.connect(h1_, h2_, 1'000'000'000, sim::Time::zero(),
                 net::QueueLimit::infinite(), net::QueueLimit::infinite());
    net_.compute_routes();
    net_.host(h2_).register_endpoint(0, net::PacketKind::kData, &null_);
  }

  SenderParams params() {
    SenderParams p;
    p.conn = 0;
    p.self = h1_;
    p.peer = h2_;
    return p;
  }

  void attach(WindowSender& s) {
    s.hooks().on_send = [this](sim::Time, const net::Packet& p) {
      sent_.push_back(p);
    };
    s.start(sim::Time::zero());
    sim_.run_until(sim::Time::zero());
  }

  void ack(WindowSender& s, std::uint32_t ack_no) {
    net::Packet a;
    a.conn = 0;
    a.kind = net::PacketKind::kAck;
    a.ack = ack_no;
    a.size_bytes = 50;
    s.deliver(a);
  }

  sim::Simulator sim_;
  net::Network net_;
  net::NodeId h1_ = 0, h2_ = 0;
  NullSink null_;
  std::vector<net::Packet> sent_;
};

TEST_F(RenoTest, SlowStartMatchesTahoe) {
  RenoParams rp;
  WindowSender s(sim_, net_.host(h1_), params(),
                 std::make_unique<RenoCc>(rp));
  attach(s);
  ack(s, 1);
  ack(s, 2);
  ack(s, 3);
  EXPECT_DOUBLE_EQ(s.cc().cwnd(), 4.0);
  EXPECT_FALSE(reno_cc(s).in_fast_recovery());
}

TEST_F(RenoTest, FastRecoveryInflatesInsteadOfCollapsing) {
  RenoParams rp;
  rp.initial_cwnd = 12.0;
  rp.initial_ssthresh = 100;
  WindowSender s(sim_, net_.host(h1_), params(),
                 std::make_unique<RenoCc>(rp));
  attach(s);
  for (int i = 0; i < 3; ++i) ack(s, 0);
  EXPECT_TRUE(reno_cc(s).in_fast_recovery());
  EXPECT_EQ(reno_cc(s).ssthresh(), 6u);
  EXPECT_DOUBLE_EQ(s.cc().cwnd(), 9.0);  // ssthresh + 3, NOT 1 (Tahoe)
}

TEST_F(RenoTest, DupAcksInflateDuringRecovery) {
  RenoParams rp;
  rp.initial_cwnd = 12.0;
  WindowSender s(sim_, net_.host(h1_), params(),
                 std::make_unique<RenoCc>(rp));
  attach(s);
  for (int i = 0; i < 3; ++i) ack(s, 0);
  const double during = s.cc().cwnd();
  ack(s, 0);  // 4th dup
  ack(s, 0);  // 5th dup
  EXPECT_DOUBLE_EQ(s.cc().cwnd(), during + 2.0);
}

TEST_F(RenoTest, InflationClocksOutNewData) {
  RenoParams rp;
  rp.initial_cwnd = 6.0;
  WindowSender s(sim_, net_.host(h1_), params(),
                 std::make_unique<RenoCc>(rp));
  attach(s);
  ASSERT_EQ(sent_.size(), 6u);
  for (int i = 0; i < 3; ++i) ack(s, 0);  // recovery: cwnd = 3+3 = 6
  sent_.clear();
  // Further dup ACKs inflate past outstanding (6), releasing new packets.
  ack(s, 0);  // cwnd 7 -> window 7 > outstanding 6: sends seq 6
  ASSERT_EQ(sent_.size(), 1u);
  EXPECT_EQ(sent_[0].seq, 6u);
  EXPECT_FALSE(sent_[0].retransmit);
}

TEST_F(RenoTest, NewAckDeflatesToSsthresh) {
  RenoParams rp;
  rp.initial_cwnd = 12.0;
  WindowSender s(sim_, net_.host(h1_), params(),
                 std::make_unique<RenoCc>(rp));
  attach(s);
  for (int i = 0; i < 3; ++i) ack(s, 0);
  ASSERT_TRUE(reno_cc(s).in_fast_recovery());
  ack(s, 12);  // recovery ACK
  EXPECT_FALSE(reno_cc(s).in_fast_recovery());
  EXPECT_DOUBLE_EQ(s.cc().cwnd(), 6.0);  // deflated to ssthresh
}

TEST_F(RenoTest, TimeoutStillSlowStartsFromOne) {
  RenoParams rp;
  rp.initial_cwnd = 8.0;
  WindowSender s(sim_, net_.host(h1_), params(),
                 std::make_unique<RenoCc>(rp));
  attach(s);
  sim_.run_until(sim::Time::seconds(4.0));  // initial RTO
  EXPECT_DOUBLE_EQ(s.cc().cwnd(), 1.0);
  EXPECT_FALSE(reno_cc(s).in_fast_recovery());
  EXPECT_GE(s.counters().timeout_losses, 1u);
}

TEST_F(RenoTest, TimeoutDuringRecoveryExitsRecovery) {
  RenoParams rp;
  rp.initial_cwnd = 8.0;
  WindowSender s(sim_, net_.host(h1_), params(),
                 std::make_unique<RenoCc>(rp));
  attach(s);
  for (int i = 0; i < 3; ++i) ack(s, 0);
  ASSERT_TRUE(reno_cc(s).in_fast_recovery());
  sim_.run_until(sim::Time::seconds(10.0));  // RTO fires
  EXPECT_FALSE(reno_cc(s).in_fast_recovery());
  EXPECT_DOUBLE_EQ(s.cc().cwnd(), 1.0);
}

TEST_F(RenoTest, CongestionAvoidanceAfterRecovery) {
  RenoParams rp;
  rp.initial_cwnd = 8.0;
  rp.initial_ssthresh = 100;
  WindowSender s(sim_, net_.host(h1_), params(),
                 std::make_unique<RenoCc>(rp));
  attach(s);
  for (int i = 0; i < 3; ++i) ack(s, 0);
  ack(s, 8);  // exit recovery: cwnd = ssthresh = 4
  ASSERT_DOUBLE_EQ(s.cc().cwnd(), 4.0);
  // Now in congestion avoidance (cwnd == ssthresh): next ACK adds 1/4.
  ack(s, 9);
  EXPECT_DOUBLE_EQ(s.cc().cwnd(), 4.25);
}

TEST_F(RenoTest, RenoVsTahoeRecoverySpeed) {
  // Same loss pattern; Reno keeps a larger window afterwards.
  RenoParams rp;
  rp.initial_cwnd = 16.0;
  rp.initial_ssthresh = 100;
  WindowSender reno(sim_, net_.host(h1_), params(),
                    std::make_unique<RenoCc>(rp));
  attach(reno);
  for (int i = 0; i < 3; ++i) ack(reno, 0);
  ack(reno, 16);

  SenderParams p2 = params();
  p2.conn = 1;
  net_.host(h2_).register_endpoint(1, net::PacketKind::kData, &null_);
  TahoeParams tp;
  tp.initial_cwnd = 16.0;
  tp.initial_ssthresh = 100;
  WindowSender tahoe(sim_, net_.host(h1_), p2,
                     std::make_unique<TahoeCc>(tp));
  tahoe.start(sim_.now());
  sim_.run_until(sim_.now());
  for (int i = 0; i < 3; ++i) {
    net::Packet a;
    a.conn = 1;
    a.kind = net::PacketKind::kAck;
    a.ack = 0;
    tahoe.deliver(a);
  }
  net::Packet a;
  a.conn = 1;
  a.kind = net::PacketKind::kAck;
  a.ack = 16;
  tahoe.deliver(a);

  EXPECT_DOUBLE_EQ(reno.cc().cwnd(), 8.0);   // halved
  EXPECT_DOUBLE_EQ(tahoe.cc().cwnd(), 2.0);  // slow-starting back from 1
  EXPECT_GT(reno.cc().cwnd(), tahoe.cc().cwnd());
}

}  // namespace
}  // namespace tcpdyn::tcp
