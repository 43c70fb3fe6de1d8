#include "core/topology.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/chain.h"
#include "core/dumbbell.h"
#include "core/scenarios.h"
#include "core/topo_scenarios.h"
#include "util/rng.h"

namespace tcpdyn::core {
namespace {

TEST(Topology, DeclarationOrderIsNodeId) {
  Topology t;
  EXPECT_EQ(t.add_host("a"), 0u);
  EXPECT_EQ(t.add_switch("s"), 1u);
  EXPECT_EQ(t.add_host("b"), 2u);
  EXPECT_EQ(t.index("s"), 1u);
  EXPECT_TRUE(t.has_node("a"));
  EXPECT_FALSE(t.has_node("zz"));
  EXPECT_EQ(t.node_count(), 3u);
  EXPECT_EQ(t.host_count(), 2u);

  t.add_link(0, 1, 1'000'000, sim::Time::microseconds(100));
  t.add_link(2, 1, 1'000'000, sim::Time::microseconds(100));
  Experiment exp;
  const CompiledTopology c = t.compile(exp);
  EXPECT_EQ(c.id("a"), 0u);
  EXPECT_EQ(c.id("s"), 1u);
  EXPECT_EQ(c.id("b"), 2u);
  EXPECT_THROW(c.id("zz"), std::out_of_range);
}

TEST(Topology, RejectsBadDeclarations) {
  Topology t;
  t.add_host("a");
  EXPECT_THROW(t.add_switch("a"), std::invalid_argument);  // duplicate name
  t.add_switch("s");
  t.add_switch("r");
  EXPECT_THROW(t.add_link(0, 0, 1, sim::Time::zero()), std::invalid_argument);
  EXPECT_THROW(t.add_link(0, 9, 1, sim::Time::zero()), std::invalid_argument);
  t.add_link(0, 1, 1'000'000, sim::Time::microseconds(1));
  // A host has exactly one access link.
  EXPECT_THROW(t.add_link(0, 2, 1'000'000, sim::Time::microseconds(1)),
               std::invalid_argument);
  // monitor() requires an existing link.
  EXPECT_THROW(t.monitor(1, 2), std::invalid_argument);
}

TEST(Topology, CompileRejectsDisconnectedGraph) {
  Topology t;
  t.add_host("a");
  t.add_switch("s");
  t.add_host("lonely");
  t.add_link(0, 1, 1'000'000, sim::Time::microseconds(1));
  Experiment exp;
  try {
    t.compile(exp);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("lonely"), std::string::npos);
  }
}

// Ring of four switches: the route from R1 to the antipodal R3 has two
// equal-cost paths (via R2, node 2, or via R4, node 6). The tie must go to
// the smallest node id, deterministically.
TEST(Topology, DijkstraBreaksTiesBySmallestNodeId) {
  Topology t;
  std::vector<std::size_t> sw, ho;
  for (int i = 0; i < 4; ++i) {
    sw.push_back(t.add_switch("R" + std::to_string(i + 1)));
    ho.push_back(t.add_host("H" + std::to_string(i + 1)));
  }
  for (int i = 0; i < 4; ++i) {
    t.add_link(ho[i], sw[i], 10'000'000, sim::Time::microseconds(100));
    t.add_link(sw[i], sw[(i + 1) % 4], 1'000'000,
               sim::Time::microseconds(500));
  }
  t.monitor(sw[0], sw[1]);  // R1 -> R2: the smaller-id candidate
  t.monitor(sw[0], sw[3]);  // R1 -> R4: the larger-id candidate
  Experiment exp;
  const CompiledTopology c = t.compile(exp);

  tcp::ConnectionConfig cfg;
  cfg.id = 0;
  cfg.src_host = c.id("H1");
  cfg.dst_host = c.id("H3");
  exp.add_connection(cfg);
  const ExperimentResult r =
      exp.run(sim::Time::seconds(1.0), sim::Time::seconds(5.0));
  EXPECT_GT(r.ports[0].departures.size(), 0u);   // all data goes via R2
  EXPECT_EQ(r.ports[1].departures.size(), 0u);   // nothing via R4
}

// Triangle where the direct link is slow: the delay metric must route around
// it, where a hop-count metric would go direct.
TEST(Topology, DelayMetricAvoidsSlowDirectLink) {
  Topology t;
  const std::size_t a = t.add_switch("A");
  const std::size_t b = t.add_switch("B");
  const std::size_t cc = t.add_switch("C");
  const std::size_t ha = t.add_host("HA");
  const std::size_t hc = t.add_host("HC");
  t.add_link(ha, a, 10'000'000, sim::Time::microseconds(100));
  t.add_link(hc, cc, 10'000'000, sim::Time::microseconds(100));
  // Direct A-C: 50 kbps (80 ms per 500 B packet). Detour A-B-C: 10 Mbps.
  t.add_link(a, cc, 50'000, sim::Time::microseconds(100));
  t.add_link(a, b, 10'000'000, sim::Time::microseconds(100));
  t.add_link(b, cc, 10'000'000, sim::Time::microseconds(100));
  t.monitor(a, cc);
  t.monitor(a, b);
  Experiment exp;
  const CompiledTopology c = t.compile(exp);
  tcp::ConnectionConfig cfg;
  cfg.id = 0;
  cfg.src_host = c.id("HA");
  cfg.dst_host = c.id("HC");
  exp.add_connection(cfg);
  const ExperimentResult r =
      exp.run(sim::Time::seconds(1.0), sim::Time::seconds(5.0));
  EXPECT_EQ(r.ports[0].departures.size(), 0u);   // slow direct link unused
  EXPECT_GT(r.ports[1].departures.size(), 0u);   // traffic takes the detour
}

TEST(TrafficMatrix, ExpandsCountsWithPerSpecStreams) {
  ConnSpec spec;
  spec.src = "H1";
  spec.dst = "H2";
  spec.count = 3;
  spec.start_spread = sim::Time::seconds(4.0);
  spec.seed = 99;

  const auto starts_of = [&](const TrafficMatrix& m) {
    Topology t;
    const std::size_t h1 = t.add_host("H1");
    const std::size_t s1 = t.add_switch("S1");
    const std::size_t h2 = t.add_host("H2");
    t.add_link(h1, s1, 1'000'000, sim::Time::microseconds(100));
    t.add_link(s1, h2, 1'000'000, sim::Time::microseconds(100));
    Experiment exp;
    m.instantiate(exp, t.compile(exp));
    std::vector<sim::Time> starts;
    for (std::size_t i = 0; i < exp.connection_count(); ++i) {
      starts.push_back(exp.connection(i).config().start_time);
    }
    return starts;
  };

  TrafficMatrix alone;
  alone.add(spec);
  EXPECT_EQ(alone.flow_count(), 3u);
  EXPECT_EQ(alone.adaptive_flow_count(), 3u);
  const auto starts1 = starts_of(alone);
  ASSERT_EQ(starts1.size(), 3u);
  EXPECT_NE(starts1[0], starts1[1]);  // jittered

  // A preceding spec must not perturb this spec's start times.
  TrafficMatrix crowded;
  ConnSpec other;
  other.src = "H2";
  other.dst = "H1";
  other.count = 2;
  other.start_spread = sim::Time::seconds(4.0);
  other.seed = 7;
  crowded.add(other);
  crowded.add(spec);
  const auto starts2 = starts_of(crowded);
  ASSERT_EQ(starts2.size(), 5u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(starts2[2 + i], starts1[i]);
  }
}

TEST(TrafficMatrix, RejectsUnresolvableEndpoints) {
  TrafficMatrix m;
  ConnSpec c;
  c.src = "nowhere";
  c.dst = "nobody";
  m.add(c);
  Experiment exp;
  CompiledTopology topo;
  EXPECT_THROW(m.instantiate(exp, topo), std::out_of_range);
  ConnSpec bad;
  bad.count = 0;
  EXPECT_THROW(m.add(bad), std::invalid_argument);
}

TEST(TopologyFile, ParsesFullDescription) {
  std::istringstream in(R"(# a dumbbell, in file form
name parsed-dumbbell
host H1
host H2
switch S1
switch S2
seed 5
link H1 S1 10000000 0.0001 inf inf
link S1 S2 50000 0.01 20 20 droptail
link S2 H2 10000000 0.0001 inf inf
monitor S1 S2
monitor S2 S1
flow H1 H2 count=2 spread=4 kind=tahoe
flow H2 H1 start=1.5 maxwnd=64 delayed_ack=1
warmup 10
duration 40
epoch_gap 3
)");
  const TopoSpec spec = parse_topology(in);
  EXPECT_EQ(spec.name, "parsed-dumbbell");
  EXPECT_EQ(spec.topo.node_count(), 4u);
  EXPECT_EQ(spec.topo.link_count(), 3u);
  EXPECT_EQ(spec.topo.monitor_count(), 2u);
  EXPECT_EQ(spec.seed, 5u);
  ASSERT_EQ(spec.traffic.specs().size(), 2u);
  EXPECT_EQ(spec.traffic.flow_count(), 3u);
  EXPECT_EQ(spec.traffic.specs()[0].count, 2u);
  EXPECT_EQ(spec.traffic.specs()[0].seed, util::mix_seed(5, 0));
  EXPECT_EQ(spec.traffic.specs()[1].maxwnd, 64u);
  EXPECT_TRUE(spec.traffic.specs()[1].delayed_ack);
  EXPECT_EQ(spec.warmup, sim::Time::seconds(10.0));
  EXPECT_EQ(spec.duration, sim::Time::seconds(40.0));
  EXPECT_DOUBLE_EQ(spec.epoch_gap_sec, 3.0);

  // And it runs end to end.
  Scenario sc = make_topo_scenario(spec);
  EXPECT_EQ(spec.traffic.adaptive_flow_count(), 3u);
  const ScenarioSummary s = run_scenario(sc);
  EXPECT_GT(s.util_fwd, 0.0);
  EXPECT_EQ(s.flows.flows, 3u);
}

TEST(TopologyFile, ErrorsNameTheLine) {
  const auto line_of = [](const std::string& text) {
    std::istringstream in(text);
    try {
      parse_topology(in);
      return std::string("no error");
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
  };
  EXPECT_NE(line_of("host A\nfrob B\n").find("line 2"), std::string::npos);
  EXPECT_NE(line_of("host A\nhost B\nlink A B xyz 0.1 inf inf\n")
                .find("line 3"),
            std::string::npos);
  EXPECT_NE(line_of("host A\nhost B\nflow A B count=1\nseed 3\n")
                .find("before the first flow"),
            std::string::npos);
  EXPECT_NE(line_of("").find("no nodes"), std::string::npos);
}

// ------------------------------------------------------------ equivalence
//
// The dumbbell and chain scenarios are Topology specs; the networks they
// compile must match the historic direct net::Network construction bit for
// bit. These tests rebuild the legacy networks by hand (same node, link, and
// monitor order) and compare whole runs.

void expect_same_run(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.delivered, b.delivered);
  ASSERT_EQ(a.drops.size(), b.drops.size());
  for (std::size_t i = 0; i < a.drops.size(); ++i) {
    EXPECT_EQ(a.drops[i].time, b.drops[i].time);
    EXPECT_EQ(a.drops[i].conn, b.drops[i].conn);
    EXPECT_EQ(a.drops[i].seq, b.drops[i].seq);
    EXPECT_EQ(a.drops[i].port, b.drops[i].port);
  }
  ASSERT_EQ(a.ports.size(), b.ports.size());
  for (std::size_t i = 0; i < a.ports.size(); ++i) {
    EXPECT_EQ(a.ports[i].name, b.ports[i].name);
    EXPECT_EQ(a.ports[i].utilization, b.ports[i].utilization);  // exact
    EXPECT_EQ(a.ports[i].departures.size(), b.ports[i].departures.size());
  }
  EXPECT_EQ(a.audit.created, b.audit.created);
  EXPECT_EQ(a.audit.delivered, b.audit.delivered);
  EXPECT_EQ(a.audit.dropped, b.audit.dropped);
}

std::vector<ConnSpec> twoway_conns() {
  std::vector<ConnSpec> conns = {dumbbell_flow(/*forward=*/true),
                                 dumbbell_flow(/*forward=*/false)};
  conns[0].start_time = sim::Time::seconds(0.7);
  conns[1].start_time = sim::Time::seconds(1.3);
  return conns;
}

TEST(TopologyEquivalence, DumbbellMatchesLegacyConstruction) {
  const DumbbellParams p;  // paper defaults

  // Legacy: direct net::Network calls.
  Experiment legacy;
  {
    auto& net = legacy.network();
    const auto h1 = net.add_host("H1");
    const auto h2 = net.add_host("H2");
    const auto s1 = net.add_switch("S1");
    const auto s2 = net.add_switch("S2");
    net.connect(h1, s1, p.access_bps, p.access_delay, p.access_buffer,
                p.access_buffer);
    net.connect(s1, s2, p.bottleneck_bps, p.tau, p.buffer_fwd, p.buffer_rev);
    net.connect(s2, h2, p.access_bps, p.access_delay, p.access_buffer,
                p.access_buffer);
    net.compute_routes();
    legacy.monitor(s1, s2);
    legacy.monitor(s2, s1);
    std::size_t i = 0;
    for (const ConnSpec& c : twoway_conns()) {
      tcp::ConnectionConfig cfg = c.to_config();
      cfg.id = static_cast<net::ConnId>(i++);
      cfg.src_host = c.src == "H1" ? h1 : h2;
      cfg.dst_host = c.dst == "H1" ? h1 : h2;
      legacy.add_connection(cfg);
    }
  }

  TopoSpec spec;
  spec.topo = dumbbell_topology(p);
  for (const ConnSpec& c : twoway_conns()) spec.traffic.add(c);
  Scenario adapter = make_topo_scenario(spec);

  const auto window = sim::Time::seconds(50.0);
  const auto dur = sim::Time::seconds(120.0);
  expect_same_run(legacy.run(window, dur), adapter.exp->run(window, dur));
}

TEST(TopologyEquivalence, MultihostDumbbellMatchesLegacyConstruction) {
  DumbbellParams p;
  p.tau = sim::Time::seconds(0.01);
  const std::vector<sim::Time> delays = {sim::Time::microseconds(100),
                                         sim::Time::seconds(0.02),
                                         sim::Time::seconds(0.04)};

  Experiment legacy;
  {
    auto& net = legacy.network();
    const auto s1 = net.add_switch("S1");
    const auto s2 = net.add_switch("S2");
    net.connect(s1, s2, p.bottleneck_bps, p.tau, p.buffer_fwd, p.buffer_rev);
    std::vector<net::NodeId> sources, sinks;
    for (std::size_t i = 0; i < delays.size(); ++i) {
      const std::string n = std::to_string(i + 1);
      const auto src = net.add_host("A" + n);
      const auto dst = net.add_host("B" + n);
      net.connect(src, s1, p.access_bps, delays[i], p.access_buffer,
                  p.access_buffer);
      net.connect(s2, dst, p.access_bps, delays[i], p.access_buffer,
                  p.access_buffer);
      sources.push_back(src);
      sinks.push_back(dst);
    }
    net.compute_routes();
    legacy.monitor(s1, s2);
    legacy.monitor(s2, s1);
    for (std::size_t i = 0; i < delays.size(); ++i) {
      tcp::ConnectionConfig cfg;
      cfg.id = static_cast<net::ConnId>(i);
      cfg.src_host = sources[i];
      cfg.dst_host = sinks[i];
      cfg.start_time = sim::Time::seconds(0.5 * static_cast<double>(i));
      legacy.add_connection(cfg);
    }
  }

  Experiment adapter;
  const CompiledTopology h =
      multihost_dumbbell_topology(p, delays).compile(adapter);
  for (std::size_t i = 0; i < delays.size(); ++i) {
    tcp::ConnectionConfig cfg;
    cfg.id = static_cast<net::ConnId>(i);
    cfg.src_host = h.id("A" + std::to_string(i + 1));
    cfg.dst_host = h.id("B" + std::to_string(i + 1));
    cfg.start_time = sim::Time::seconds(0.5 * static_cast<double>(i));
    adapter.add_connection(cfg);
  }

  const auto window = sim::Time::seconds(50.0);
  const auto dur = sim::Time::seconds(100.0);
  expect_same_run(legacy.run(window, dur), adapter.run(window, dur));
}

TEST(TopologyEquivalence, ChainMatchesLegacyConstruction) {
  const ChainParams p;  // four_switch_chain runs on the defaults
  const std::size_t conns = 20;
  const std::uint64_t seed = 7;

  Experiment legacy;
  {
    auto& net = legacy.network();
    std::vector<net::NodeId> switches, hosts;
    for (std::size_t i = 0; i < p.switches; ++i) {
      switches.push_back(net.add_switch("S" + std::to_string(i + 1)));
      hosts.push_back(net.add_host("H" + std::to_string(i + 1)));
    }
    for (std::size_t i = 0; i < p.switches; ++i) {
      net.connect(hosts[i], switches[i], p.access_bps, p.access_delay,
                  p.access_buffer, p.access_buffer);
      if (i + 1 < p.switches) {
        net.connect(switches[i], switches[i + 1], p.trunk_bps, p.trunk_delay,
                    p.trunk_buffer, p.trunk_buffer);
      }
    }
    net.compute_routes();
    for (std::size_t i = 0; i + 1 < p.switches; ++i) {
      legacy.monitor(switches[i], switches[i + 1]);
      legacy.monitor(switches[i + 1], switches[i]);
    }
    // The historic connection generator, drawing from one stream.
    util::Rng rng(seed);
    const std::size_t n = hosts.size();
    for (std::size_t i = 0; i < conns; ++i) {
      const std::size_t hops = 1 + i % (n - 1);
      const std::size_t src = rng.next_below(n - hops);
      const std::size_t dst = src + hops;
      const bool forward = rng.next_double() < 0.5;
      tcp::ConnectionConfig cfg;
      cfg.id = static_cast<net::ConnId>(i);
      cfg.src_host = forward ? hosts[src] : hosts[dst];
      cfg.dst_host = forward ? hosts[dst] : hosts[src];
      cfg.start_time = sim::Time::seconds(rng.uniform(0.0, 1.0));
      legacy.add_connection(cfg);
    }
  }

  Scenario adapter = make_topo_scenario(four_switch_chain(conns, seed));

  const auto window = sim::Time::seconds(40.0);
  const auto dur = sim::Time::seconds(80.0);
  expect_same_run(legacy.run(window, dur), adapter.exp->run(window, dur));
}

}  // namespace
}  // namespace tcpdyn::core
