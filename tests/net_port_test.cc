// OutputPort: serialization, propagation, busy-time accounting, hooks.
#include "net/port.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.h"

namespace tcpdyn::net {
namespace {

struct RecordingSink : Node {
  explicit RecordingSink(sim::Simulator& sim) : Node(99, "sink"), sim(sim) {}
  void receive(Packet pkt) override {
    arrivals.push_back({sim.now(), pkt});
  }
  sim::Simulator& sim;
  std::vector<std::pair<sim::Time, Packet>> arrivals;
};

Packet data_pkt(std::uint32_t seq = 0, std::uint32_t size = 500) {
  Packet p;
  p.kind = PacketKind::kData;
  p.seq = seq;
  p.size_bytes = size;
  p.dst = 99;
  return p;
}

class PortTest : public ::testing::Test {
 protected:
  PortTest()
      : sink(sim),
        port(sim, "p", 50'000, sim::Time::seconds(0.01),
             QdiscConfig::drop_tail(QueueLimit::of(20))) {
    port.set_peer(&sink);
    // Busy-interval recording is opt-in (monitored ports only); these tests
    // assert exact utilization accounting, so turn it on.
    port.enable_busy_record();
  }
  sim::Simulator sim;
  RecordingSink sink;
  OutputPort port;
};

TEST_F(PortTest, SerializationPlusPropagation) {
  port.enqueue(data_pkt());
  sim.run_until(sim::Time::seconds(1.0));
  ASSERT_EQ(sink.arrivals.size(), 1u);
  // 80 ms transmission + 10 ms propagation.
  EXPECT_EQ(sink.arrivals[0].first, sim::Time::milliseconds(90));
}

TEST_F(PortTest, BackToBackPacketsSpacedByTransmissionTime) {
  for (std::uint32_t i = 0; i < 3; ++i) port.enqueue(data_pkt(i));
  sim.run_until(sim::Time::seconds(1.0));
  ASSERT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(sink.arrivals[0].first, sim::Time::milliseconds(90));
  EXPECT_EQ(sink.arrivals[1].first, sim::Time::milliseconds(170));
  EXPECT_EQ(sink.arrivals[2].first, sim::Time::milliseconds(250));
  // FIFO order preserved.
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sink.arrivals[i].second.seq, i);
  }
}

TEST_F(PortTest, UtilizationExact) {
  for (std::uint32_t i = 0; i < 5; ++i) port.enqueue(data_pkt(i));
  sim.run_until(sim::Time::seconds(1.0));
  // 5 x 80 ms = 400 ms busy in 1 s.
  EXPECT_DOUBLE_EQ(port.utilization(sim::Time::zero(), sim::Time::seconds(1.0)),
                   0.4);
  // Sub-window fully inside the busy period.
  EXPECT_DOUBLE_EQ(
      port.utilization(sim::Time::milliseconds(100),
                       sim::Time::milliseconds(300)),
      1.0);
  // Window fully after the busy period.
  EXPECT_DOUBLE_EQ(
      port.utilization(sim::Time::milliseconds(500), sim::Time::seconds(1.0)),
      0.0);
}

TEST_F(PortTest, OpenBusyIntervalCountsUntilNow) {
  // Enqueue mid-run so a transmission is in flight when we measure.
  sim.schedule(sim::Time::milliseconds(100), [&] { port.enqueue(data_pkt()); });
  sim.run_until(sim::Time::milliseconds(140));
  // Transmission started at 100 ms and is still going at 140 ms.
  EXPECT_EQ(port.busy_in(sim::Time::zero(), sim::Time::milliseconds(140)),
            sim::Time::milliseconds(40));
}

TEST_F(PortTest, QueueChangeAndDepartHooks) {
  std::vector<std::size_t> lengths;
  std::vector<std::uint32_t> departures;
  port.on_queue_change = [&](sim::Time, std::size_t len) {
    lengths.push_back(len);
  };
  port.on_depart = [&](sim::Time, const Packet& p) {
    departures.push_back(p.seq);
  };
  for (std::uint32_t i = 0; i < 2; ++i) port.enqueue(data_pkt(i));
  sim.run_until(sim::Time::seconds(1.0));
  // enqueue->1, enqueue->2, finish->1, finish->0.
  EXPECT_EQ(lengths, (std::vector<std::size_t>{1, 2, 1, 0}));
  EXPECT_EQ(departures, (std::vector<std::uint32_t>{0, 1}));
}

TEST_F(PortTest, DropHookFiresForOverflow) {
  OutputPort tiny(sim, "tiny", 50'000, sim::Time::zero(),
                  QdiscConfig::drop_tail(QueueLimit::of(1)));
  tiny.set_peer(&sink);
  std::vector<std::uint32_t> dropped;
  tiny.on_drop = [&](sim::Time, const Packet& p) { dropped.push_back(p.seq); };
  tiny.enqueue(data_pkt(0));
  tiny.enqueue(data_pkt(1));  // dropped: buffer holds the in-service packet
  sim.run_until(sim::Time::seconds(1.0));
  EXPECT_EQ(dropped, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(sink.arrivals.size(), 1u);
}

TEST_F(PortTest, ZeroSizePacketTransmitsInstantly) {
  port.enqueue(data_pkt(0, 0));
  sim.run_until(sim::Time::seconds(1.0));
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].first, sim::Time::milliseconds(10));  // prop only
}

TEST_F(PortTest, MixedSizesSerializeProportionally) {
  port.enqueue(data_pkt(0, 500));  // 80 ms
  port.enqueue(data_pkt(1, 50));   // 8 ms
  sim.run_until(sim::Time::seconds(1.0));
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[1].first - sink.arrivals[0].first,
            sim::Time::milliseconds(8));
}

TEST_F(PortTest, IdleGapSplitsBusyIntervals) {
  port.enqueue(data_pkt(0));
  sim.schedule(sim::Time::milliseconds(200),
               [&] { port.enqueue(data_pkt(1)); });
  sim.run_until(sim::Time::seconds(1.0));
  // Busy [0,80] and [200,280]: 160 ms total.
  EXPECT_EQ(port.busy_in(sim::Time::zero(), sim::Time::seconds(1.0)),
            sim::Time::milliseconds(160));
  // The gap itself is idle.
  EXPECT_EQ(port.busy_in(sim::Time::milliseconds(80),
                         sim::Time::milliseconds(200)),
            sim::Time::zero());
}

TEST_F(PortTest, NoPeerDiscardsAfterTransmission) {
  OutputPort orphan(sim, "orphan", 50'000, sim::Time::zero(),
                    QdiscConfig::drop_tail(QueueLimit::of(5)));
  orphan.enqueue(data_pkt());
  sim.run_until(sim::Time::seconds(1.0));  // must not crash
  EXPECT_EQ(orphan.queue_length(), 0u);
}

}  // namespace
}  // namespace tcpdyn::net
