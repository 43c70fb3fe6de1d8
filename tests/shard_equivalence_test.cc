// Shard-count invariance lock for the ShardedEngine: the same TopoSpec must
// produce a bit-for-bit identical ExperimentResult at --shards 1, 2, and 4,
// and match the serial Experiment::run path. The
// digest covers every per-connection counter, every monitored-port counter,
// the full cwnd trajectories (hashed over the raw doubles), the drop log
// size, and the conservation-audit totals — if any event executes in a
// different order on any shard layout, some counter or cwnd sample moves
// and the digest diverges.
//
// Scenarios span the regimes the engine has to get right: the paper's
// one-way and two-way dumbbells (Figs. 2, 4, 6) and its §5 four-switch
// chain, built by the same factories the tools run, the chaos dumbbell
// (fault timers + Gilbert-Elliott impairments on the cut link), the
// parking-lot chain (multi-switch, cross traffic on every hop), and
// datacenter incast with open-loop session churn (star partition, tiny
// lookahead).
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/shard_engine.h"
#include "core/topo_scenarios.h"
#include "core/topology.h"

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

std::string digest(const ExperimentResult& r) {
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
  for (const auto& [id, samples] : r.rtt_samples) {
    h = fnv1a(h, id);
    for (const auto& [t, v] : samples) {
      h = hash_double(h, t);
      h = hash_double(h, v);
    }
  }
  std::snprintf(buf, sizeof(buf),
                "drops=%zu hash=%016" PRIx64 " created=%" PRIu64
                " delivered=%" PRIu64 " dropped=%" PRIu64 "\n",
                r.drops.size(), h, r.audit.created, r.audit.delivered,
                r.audit.dropped);
  out += buf;
  return out;
}

std::string serial_digest(const TopoSpec& spec) {
  Scenario sc = make_topo_scenario(spec);
  sc.exp->set_audit_mode(AuditMode::kFull);
  return digest(sc.exp->run(sc.warmup, sc.duration));
}

std::string sharded_digest(const TopoSpec& spec, std::size_t shards) {
  ShardedEngine engine(spec, shards, AuditMode::kFull);
  return digest(engine.run());
}

// Asserts shards {1, 2, 4} byte-identical — and, when `expect_serial_match`,
// also identical to the serial Experiment::run path.
//
// Serial equality only holds for runs with no cross-node event-key ties:
// the serial scheduler breaks (firing time, birth time) ties by global
// insertion order, which is inherently partition-dependent — two hosts in
// different shards have no shared insertion sequence — so deterministic-key
// mode breaks those ties by node identity instead. Scenarios that manufacture
// simultaneous events on distinct nodes (incast's synchronized arrivals, the
// chaos trunk's paired fault shots) therefore follow a different-but-equally-
// valid total order than the serial engine; for those the invariant under
// test is shard-count invariance, which is exact.
void expect_invariant(const TopoSpec& spec, bool expect_serial_match = true) {
  const std::string ref = sharded_digest(spec, 1);
  ASSERT_FALSE(ref.empty());
  if (expect_serial_match) {
    EXPECT_EQ(serial_digest(spec), ref) << spec.name << ": serial";
  }
  EXPECT_EQ(sharded_digest(spec, 2), ref) << spec.name << ": shards=2";
  EXPECT_EQ(sharded_digest(spec, 4), ref) << spec.name << ": shards=4";
}

// The paper's own scenarios, exactly as the tools and benches build them,
// with the measurement shortened so each cross product stays quick.
TopoSpec shortened(TopoSpec spec) {
  spec.warmup = sim::Time::seconds(20.0);
  spec.duration = sim::Time::seconds(80.0);
  return spec;
}

TEST(ShardEquivalence, Fig2OneWayDumbbell) {
  expect_invariant(shortened(fig2_one_way()));
}

TEST(ShardEquivalence, Fig4TwoWaySmallPipe) {
  expect_invariant(shortened(fig4_twoway()));
}

TEST(ShardEquivalence, Fig6TwoWayLargePipe) {
  expect_invariant(shortened(fig6_twoway()));
}

TEST(ShardEquivalence, FourSwitchChain) {
  expect_invariant(shortened(four_switch_chain()));
}

TEST(ShardEquivalence, ChaosFaultedDumbbell) {
  ChaosParams p;
  p.flows = 2;
  p.warmup_sec = 20.0;
  p.duration_sec = 150.0;
  p.flap_period_sec = 40.0;
  p.flaps = 2;
  expect_invariant(chaos_spec(p), /*expect_serial_match=*/false);
}

TEST(ShardEquivalence, ParkingLotChain) {
  ParkingLotParams p;
  p.hops = 3;
  p.long_flows = 12;
  p.cross_per_hop = 8;
  p.warmup_sec = 5.0;
  p.duration_sec = 20.0;
  expect_invariant(parking_lot_spec(p));
}

TEST(ShardEquivalence, IncastChurn) {
  IncastParams p;
  p.senders = 12;
  p.flows_per_sender = 2;
  p.arrival_rate = 0.4;
  p.session_sec = 2.0;
  p.warmup_sec = 5.0;
  p.duration_sec = 25.0;
  expect_invariant(incast_spec(p), /*expect_serial_match=*/false);
}

// The partitioner itself is deterministic and conservative: the plan for a
// given (topology, faults, shards) is a pure function, every cut link
// respects the minimum-delay floor, and degenerate requests collapse.
TEST(ShardPlanner, DeterministicAndConservative) {
  ParkingLotParams p;
  TopoSpec spec = parking_lot_spec(p);
  const ShardPlan plan1 = plan_shards(spec.topo, spec.faults, 4);
  const ShardPlan plan2 = plan_shards(spec.topo, spec.faults, 4);
  EXPECT_EQ(plan1.shard_of, plan2.shard_of);
  EXPECT_EQ(plan1.cut_links, plan2.cut_links);
  EXPECT_EQ(plan1.lookahead, plan2.lookahead);
  EXPECT_GT(plan1.shards, 1u);
  EXPECT_GE(plan1.lookahead.ns(), kMinCutDelayNs);
  for (std::size_t l : plan1.cut_links) {
    const LinkSpec& link = spec.topo.links()[l];
    EXPECT_NE(plan1.shard_of[link.a], plan1.shard_of[link.b]);
    EXPECT_GE(link.delay, plan1.lookahead);
  }
}

TEST(ShardPlanner, SingleShardHasNoCut) {
  ChaosParams p;
  TopoSpec spec = chaos_spec(p);
  const ShardPlan plan = plan_shards(spec.topo, spec.faults, 1);
  EXPECT_EQ(plan.shards, 1u);
  EXPECT_TRUE(plan.cut_links.empty());
  for (std::size_t s : plan.shard_of) EXPECT_EQ(s, 0u);
}

}  // namespace
}  // namespace tcpdyn::core
