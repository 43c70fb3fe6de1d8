// Routing over a topology with a cycle: Dijkstra shortest-path with
// deterministic tie-breaking, exercised on a four-switch ring.
#include <gtest/gtest.h>

#include "net/network.h"

namespace tcpdyn::net {
namespace {

class CollectingSink : public PacketSink {
 public:
  void deliver(const Packet& pkt) override { packets.push_back(pkt); }
  std::vector<Packet> packets;
};

TEST(RingTopology, ShortestPathChosen) {
  sim::Simulator sim;
  Network net(sim);
  // Ring: S0 - S1 - S2 - S3 - S0, hosts on S0 and S1 (adjacent: 1 hop the
  // short way, 3 hops the long way).
  std::vector<NodeId> sw;
  for (int i = 0; i < 4; ++i) sw.push_back(net.add_switch("S" + std::to_string(i)));
  const NodeId ha = net.add_host("HA");
  const NodeId hb = net.add_host("HB");
  const auto inf = QueueLimit::infinite();
  const auto fast = 1'000'000'000;
  for (int i = 0; i < 4; ++i) {
    net.connect(sw[static_cast<std::size_t>(i)],
                sw[static_cast<std::size_t>((i + 1) % 4)], fast,
                sim::Time::milliseconds(1), inf, inf);
  }
  net.connect(ha, sw[0], fast, sim::Time::microseconds(10), inf, inf);
  net.connect(hb, sw[1], fast, sim::Time::microseconds(10), inf, inf);
  net.compute_routes();

  // Count traffic on the short arc (S0->S1) and the long arc (S0->S3).
  int short_arc = 0, long_arc = 0;
  net.port_between(sw[0], sw[1])->on_depart = [&](sim::Time, const Packet&) {
    ++short_arc;
  };
  net.port_between(sw[0], sw[3])->on_depart = [&](sim::Time, const Packet&) {
    ++long_arc;
  };

  CollectingSink sink;
  net.host(hb).register_endpoint(0, PacketKind::kData, &sink);
  for (int i = 0; i < 5; ++i) {
    Packet p;
    p.conn = 0;
    p.kind = PacketKind::kData;
    p.size_bytes = 500;
    p.src = ha;
    p.dst = hb;
    net.host(ha).send(p);
  }
  sim.run_until(sim::Time::seconds(1.0));
  EXPECT_EQ(sink.packets.size(), 5u);
  EXPECT_EQ(short_arc, 5);
  EXPECT_EQ(long_arc, 0);
}

TEST(RingTopology, OppositeCornersDeterministic) {
  // Hosts on opposite corners of the ring: both arcs are 2 hops; the route
  // must be chosen deterministically (link insertion order) and identically
  // across two separately built networks.
  auto build_and_probe = [] {
    sim::Simulator sim;
    Network net(sim);
    std::vector<NodeId> sw;
    for (int i = 0; i < 4; ++i) {
      sw.push_back(net.add_switch("S" + std::to_string(i)));
    }
    const NodeId ha = net.add_host("HA");
    const NodeId hc = net.add_host("HC");
    const auto inf = QueueLimit::infinite();
    for (int i = 0; i < 4; ++i) {
      net.connect(sw[static_cast<std::size_t>(i)],
                  sw[static_cast<std::size_t>((i + 1) % 4)], 1'000'000'000,
                  sim::Time::milliseconds(1), inf, inf);
    }
    net.connect(ha, sw[0], 1'000'000'000, sim::Time::microseconds(10), inf,
                inf);
    net.connect(hc, sw[2], 1'000'000'000, sim::Time::microseconds(10), inf,
                inf);
    net.compute_routes();

    int via_s1 = 0, via_s3 = 0;
    net.port_between(sw[0], sw[1])->on_depart =
        [&](sim::Time, const Packet&) { ++via_s1; };
    net.port_between(sw[0], sw[3])->on_depart =
        [&](sim::Time, const Packet&) { ++via_s3; };
    CollectingSink sink;
    net.host(hc).register_endpoint(0, PacketKind::kData, &sink);
    Packet p;
    p.conn = 0;
    p.kind = PacketKind::kData;
    p.size_bytes = 500;
    p.src = ha;
    p.dst = hc;
    net.host(ha).send(p);
    sim.run_until(sim::Time::seconds(1.0));
    EXPECT_EQ(sink.packets.size(), 1u);
    EXPECT_EQ(via_s1 + via_s3, 1);  // exactly one arc used
    return via_s1;
  };
  EXPECT_EQ(build_and_probe(), build_and_probe());
}

}  // namespace
}  // namespace tcpdyn::net
