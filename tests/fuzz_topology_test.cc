// Randomized-topology robustness: generate random small networks (chains of
// 2-5 switches, hosts sprinkled on, random link speeds/delays/buffers,
// random connection placement, mixed sender kinds and options), run them,
// and assert the global invariants that must hold for ANY configuration:
//   * no crash, simulation makes progress
//   * every connection's sender hears from its receiver (no deadlock; a
//     conn CAN legitimately deliver nothing inside the measurement window
//     when a competitor locks it out of a tiny drop-tail buffer — the
//     paper's phase effects — so in-window delivery is not asserted)
//   * per-port utilization within [0, 1]; queue never exceeds its buffer
//   * deliveries never exceed distinct transmissions
//   * determinism: the same seed reproduces identical results
//   * under a random fault plan (trunk impairments, short outages) the full
//     conservation ledger still closes and every drop is attributed to
//     exactly one cause: queue + down + fault == dropped
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/chain.h"
#include "core/experiment.h"
#include "core/shard_engine.h"
#include "core/topology.h"
#include "net/fault.h"
#include "net/port.h"
#include "net/queue.h"
#include "util/rng.h"

namespace tcpdyn::core {
namespace {

struct FuzzOutcome {
  std::map<net::ConnId, std::uint64_t> delivered;
  std::vector<double> utilizations;
  std::size_t drops;
  AuditTotals audit;
};

// Perturbs the fuzzed network with a seeded fault plan drawn from the same
// stream as the topology: a mild impairment on one random trunk direction
// (kept gentle so every connection still delivers) and up to two short
// outages. All decisions come from `rng`, so the whole faulted run stays a
// pure function of the fuzz seed.
void inject_random_faults(util::Rng& rng, Experiment& exp,
                          const std::vector<net::NodeId>& switches) {
  auto& net = exp.network();
  std::vector<net::OutputPort*> trunks;
  for (std::size_t i = 0; i + 1 < switches.size(); ++i) {
    trunks.push_back(net.port_between(switches[i], switches[i + 1]));
    trunks.push_back(net.port_between(switches[i + 1], switches[i]));
  }
  if (rng.next_below(2) == 0) {
    net::Impairment model;
    switch (rng.next_below(3)) {
      case 0:
        model.loss = rng.uniform(0.01, 0.12);
        break;
      case 1: {
        net::GilbertElliott ge;
        ge.p_good_to_bad = rng.uniform(0.005, 0.05);
        ge.p_bad_to_good = rng.uniform(0.3, 0.7);
        ge.loss_bad = rng.uniform(0.1, 0.4);
        model.gilbert = ge;
        break;
      }
      default:
        model.reorder = rng.uniform(0.1, 0.6);
        model.reorder_max = sim::Time::milliseconds(
            static_cast<std::int64_t>(1 + rng.next_below(50)));
        break;
    }
    trunks[rng.next_below(trunks.size())]->attach_impairment(model,
                                                             rng.next_u64());
  }
  const std::size_t outages = rng.next_below(3);  // 0..2
  for (std::size_t k = 0; k < outages; ++k) {
    net::OutputPort* port = trunks[rng.next_below(trunks.size())];
    const double at = rng.uniform(5.0, 120.0);
    const double dur = rng.uniform(0.2, 2.0);
    const auto policy = rng.next_below(2) == 0 ? net::DownPolicy::kDrain
                                               : net::DownPolicy::kDiscard;
    exp.sim().schedule_at(sim::Time::seconds(at), [port, policy] {
      port->set_down_policy(policy);
      port->set_link_up(false);
    });
    exp.sim().schedule_at(sim::Time::seconds(at + dur),
                          [port] { port->set_link_up(true); });
  }
}

FuzzOutcome run_fuzz(std::uint64_t seed) {
  util::Rng rng(seed);
  Experiment exp;
  auto& net = exp.network();

  const std::size_t n_switches = 2 + rng.next_below(4);  // 2..5
  std::vector<net::NodeId> switches;
  for (std::size_t i = 0; i < n_switches; ++i) {
    switches.push_back(net.add_switch("S" + std::to_string(i)));
  }
  // One or two hosts per switch.
  std::vector<net::NodeId> hosts;
  for (std::size_t i = 0; i < n_switches; ++i) {
    const std::size_t n_hosts = 1 + rng.next_below(2);
    for (std::size_t k = 0; k < n_hosts; ++k) {
      const net::NodeId h = net.add_host("H" + std::to_string(hosts.size()));
      net.connect(h, switches[i], 1'000'000 + rng.next_below(20'000'000),
                  sim::Time::microseconds(
                      static_cast<std::int64_t>(50 + rng.next_below(1000))),
                  net::QueueLimit::infinite(), net::QueueLimit::infinite());
      hosts.push_back(h);
    }
  }
  // Chain trunks with random parameters, drawing each link's queue
  // discipline from the full zoo (drop-tail weighted highest, matching the
  // historic fuzz distribution; RED thresholds scale with the buffer so the
  // early-drop region is actually reachable).
  for (std::size_t i = 0; i + 1 < n_switches; ++i) {
    const std::size_t buffer = 5 + rng.next_below(40);
    net::QdiscConfig qdisc;
    switch (rng.next_below(8)) {
      case 0:
        qdisc.kind = net::QdiscKind::kRandomDrop;
        break;
      case 1:
      case 2: {
        qdisc.kind = net::QdiscKind::kRed;
        // Kept gentle (like the fault plan): thresholds in the upper half of
        // the buffer so early drops thin the queue without starving anyone.
        qdisc.red.min_th = 1 + buffer / 2;
        qdisc.red.max_th = 2 + (3 * buffer) / 4;
        qdisc.red.ecn = rng.next_below(2) == 0;
        break;
      }
      case 3:
        qdisc.kind = net::QdiscKind::kDrr;
        qdisc.drr.quantum_bytes = 100 + rng.next_below(1000);
        break;
      default:
        qdisc.kind = net::QdiscKind::kDropTail;
        break;
    }
    net.connect(switches[i], switches[i + 1],
                20'000 + static_cast<std::int64_t>(rng.next_below(200'000)),
                sim::Time::milliseconds(
                    static_cast<std::int64_t>(1 + rng.next_below(200))),
                net::QueueLimit::of(buffer), net::QueueLimit::of(buffer),
                qdisc);
  }
  net.compute_routes();
  for (std::size_t i = 0; i + 1 < n_switches; ++i) {
    exp.monitor(switches[i], switches[i + 1]);
    exp.monitor(switches[i + 1], switches[i]);
  }
  // Full ledger on every fuzzed run: Experiment::run throws on any
  // conservation violation, faulted or not.
  exp.set_audit_mode(AuditMode::kFull);
  inject_random_faults(rng, exp, switches);

  const std::size_t n_conns = 2 + rng.next_below(7);
  for (std::size_t c = 0; c < n_conns; ++c) {
    tcp::ConnectionConfig cfg;
    cfg.id = static_cast<net::ConnId>(c);
    const std::size_t a = rng.next_below(hosts.size());
    std::size_t b = rng.next_below(hosts.size());
    if (b == a) b = (b + 1) % hosts.size();
    cfg.src_host = hosts[a];
    cfg.dst_host = hosts[b];
    const std::uint64_t kind = rng.next_below(4);
    cfg.kind = kind == 0   ? tcp::CcAlgorithm::kReno
               : kind == 1 ? tcp::CcAlgorithm::kFixedWindow
                           : tcp::CcAlgorithm::kTahoe;
    cfg.fixed_window = 2 + static_cast<std::uint32_t>(rng.next_below(12));
    cfg.delayed_ack = rng.next_below(3) == 0;
    // ECT traffic exercises the RED-ECN mark path on fuzzed red trunks; the
    // conservation ledger must close either way (marks are not drops).
    cfg.ecn = rng.next_below(3) == 0;
    cfg.start_time = sim::Time::seconds(rng.uniform(0.0, 3.0));
    exp.add_connection(cfg);
  }

  const ExperimentResult r =
      exp.run(sim::Time::seconds(20.0), sim::Time::seconds(120.0));

  FuzzOutcome out;
  out.delivered = r.delivered;
  out.drops = r.drops.size();
  out.audit = r.audit;
  // Whatever the fault plan did, every drop carries exactly one cause.
  EXPECT_EQ(r.audit.drops_queue + r.audit.drops_down + r.audit.drops_fault,
            r.audit.dropped)
      << "seed " << seed;
  EXPECT_EQ(r.audit.created, r.audit.delivered + r.audit.dropped +
                                 r.audit.in_queue + r.audit.in_flight)
      << "seed " << seed;
  for (const auto& port : r.ports) {
    out.utilizations.push_back(port.utilization);
    EXPECT_GE(port.utilization, 0.0);
    EXPECT_LE(port.utilization, 1.0 + 1e-9) << port.name << " seed " << seed;
  }
  for (const auto& [id, counters] : r.senders) {
    EXPECT_GT(counters.acks_received, 0u)
        << "conn " << id << " starved, seed " << seed;
  }
  return out;
}

class FuzzTopology : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTopology, InvariantsHoldAndDeterministic) {
  const FuzzOutcome a = run_fuzz(GetParam());
  const FuzzOutcome b = run_fuzz(GetParam());
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.utilizations, b.utilizations);
  // The fault plan (impairment streams included) replays with the seed.
  EXPECT_EQ(a.audit.created, b.audit.created);
  EXPECT_EQ(a.audit.dropped, b.audit.dropped);
  EXPECT_EQ(a.audit.drops_queue, b.audit.drops_queue);
  EXPECT_EQ(a.audit.drops_down, b.audit.drops_down);
  EXPECT_EQ(a.audit.drops_fault, b.audit.drops_fault);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTopology,
                         ::testing::Range<std::uint64_t>(1, 21));

// --- sharded fuzz ---------------------------------------------------------
// The same philosophy pointed at the sharded engine: a random TopoSpec
// (chain topology, qdisc zoo, random flows) under a random declarative
// fault plan (impairments, outages, rate and delay changes), run at a
// random shard count, must reproduce the shards=1 run of the identical
// spec bit for bit — counters, cwnd
// trajectories, drop log, and the merged conservation ledger, which must
// also close with every drop attributed to exactly one cause.

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

// Everything observable about a run, folded into comparable form.
std::string outcome_string(const ExperimentResult& r) {
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
                  " max=%zu qn=%zu\n",
                  i, q.arrivals, q.departures, q.drops, q.max_length,
                  r.ports[i].queue.size());
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
                "drops=%zu cwnd=%016" PRIx64 " created=%" PRIu64
                " dlv=%" PRIu64 " drop=%" PRIu64 " q=%" PRIu64 " down=%" PRIu64
                " fault=%" PRIu64 "\n",
                r.drops.size(), h, r.audit.created, r.audit.delivered,
                r.audit.dropped, r.audit.drops_queue, r.audit.drops_down,
                r.audit.drops_fault);
  out += buf;
  return out;
}

// A random chain-of-switches TopoSpec with a seeded declarative fault plan:
// the spec-level twin of run_fuzz's imperative network.
TopoSpec random_spec(std::uint64_t seed) {
  util::Rng rng(seed);
  TopoSpec spec;
  spec.name = "fuzz-sharded";
  Topology& t = spec.topo;

  const std::size_t n_switches = 2 + rng.next_below(4);  // 2..5
  std::vector<std::size_t> switches;
  std::vector<std::string> switch_names;
  for (std::size_t i = 0; i < n_switches; ++i) {
    switch_names.push_back("S" + std::to_string(i));
    switches.push_back(t.add_switch(switch_names.back()));
  }
  std::vector<std::string> hosts;
  for (std::size_t i = 0; i < n_switches; ++i) {
    const std::size_t n_hosts = 1 + rng.next_below(2);
    for (std::size_t k = 0; k < n_hosts; ++k) {
      const std::string name = "H" + std::to_string(hosts.size());
      const std::size_t h = t.add_host(name);
      t.add_link(h, switches[i],
                 1'000'000 + static_cast<std::int64_t>(rng.next_below(20'000'000)),
                 sim::Time::microseconds(
                     static_cast<std::int64_t>(50 + rng.next_below(1000))));
      hosts.push_back(name);
    }
  }
  for (std::size_t i = 0; i + 1 < n_switches; ++i) {
    const std::size_t buffer = 5 + rng.next_below(40);
    net::QdiscConfig qdisc;
    switch (rng.next_below(8)) {
      case 0:
        qdisc.kind = net::QdiscKind::kRandomDrop;
        break;
      case 1:
      case 2:
        qdisc.kind = net::QdiscKind::kRed;
        qdisc.red.min_th = 1 + buffer / 2;
        qdisc.red.max_th = 2 + (3 * buffer) / 4;
        qdisc.red.ecn = rng.next_below(2) == 0;
        break;
      case 3:
        qdisc.kind = net::QdiscKind::kDrr;
        qdisc.drr.quantum_bytes = 100 + rng.next_below(1000);
        break;
      default:
        qdisc.kind = net::QdiscKind::kDropTail;
        break;
    }
    t.add_link(switches[i], switches[i + 1],
               20'000 + static_cast<std::int64_t>(rng.next_below(200'000)),
               sim::Time::milliseconds(
                   static_cast<std::int64_t>(1 + rng.next_below(200))),
               net::QueueLimit::of(buffer), qdisc);
    t.monitor(switches[i], switches[i + 1]);
    t.monitor(switches[i + 1], switches[i]);
  }

  // Declarative fault plan over the trunk links.
  const auto trunk_ref = [&](FaultDir dir) {
    const std::size_t i = rng.next_below(n_switches - 1);
    return FaultLinkRef{switch_names[i], switch_names[i + 1], dir};
  };
  spec.faults.set_seed(rng.next_u64());
  if (rng.next_below(2) == 0) {
    LinkImpairment imp;
    imp.link = trunk_ref(rng.next_below(2) == 0 ? FaultDir::kAB
                                                : FaultDir::kBA);
    switch (rng.next_below(3)) {
      case 0:
        imp.model.loss = rng.uniform(0.01, 0.12);
        break;
      case 1: {
        net::GilbertElliott ge;
        ge.p_good_to_bad = rng.uniform(0.005, 0.05);
        ge.p_bad_to_good = rng.uniform(0.3, 0.7);
        ge.loss_bad = rng.uniform(0.1, 0.4);
        imp.model.gilbert = ge;
        break;
      }
      default:
        imp.model.reorder = rng.uniform(0.1, 0.6);
        imp.model.reorder_max = sim::Time::milliseconds(
            static_cast<std::int64_t>(1 + rng.next_below(50)));
        break;
    }
    spec.faults.add_impairment(imp);
  }
  const std::size_t outages = rng.next_below(3);  // 0..2
  for (std::size_t k = 0; k < outages; ++k) {
    LinkOutage o;
    o.link = trunk_ref(FaultDir::kBoth);
    o.at = sim::Time::seconds(rng.uniform(5.0, 120.0));
    o.duration = sim::Time::seconds(rng.uniform(0.2, 2.0));
    o.policy = rng.next_below(2) == 0 ? net::DownPolicy::kDrain
                                      : net::DownPolicy::kDiscard;
    spec.faults.add_outage(o);
  }
  if (rng.next_below(3) == 0) {
    RateChange c;
    c.link = trunk_ref(FaultDir::kBoth);
    c.at = sim::Time::seconds(rng.uniform(10.0, 100.0));
    c.bits_per_second =
        10'000 + static_cast<std::int64_t>(rng.next_below(100'000));
    spec.faults.add_rate_change(c);
  }
  if (rng.next_below(3) == 0) {
    // Delay changes shrink the conservative lookahead: plan_shards folds the
    // scripted value into the link's effective minimum delay up front.
    DelayChange c;
    c.link = trunk_ref(FaultDir::kBoth);
    c.at = sim::Time::seconds(rng.uniform(10.0, 100.0));
    c.delay = sim::Time::milliseconds(
        static_cast<std::int64_t>(1 + rng.next_below(200)));
    spec.faults.add_delay_change(c);
  }

  const std::size_t n_conns = 2 + rng.next_below(7);
  for (std::size_t c = 0; c < n_conns; ++c) {
    ConnSpec cs;
    const std::size_t a = rng.next_below(hosts.size());
    std::size_t b = rng.next_below(hosts.size());
    if (b == a) b = (b + 1) % hosts.size();
    cs.src = hosts[a];
    cs.dst = hosts[b];
    const std::uint64_t kind = rng.next_below(4);
    cs.kind = kind == 0   ? tcp::CcAlgorithm::kReno
              : kind == 1 ? tcp::CcAlgorithm::kFixedWindow
                          : tcp::CcAlgorithm::kTahoe;
    cs.fixed_window = 2 + static_cast<std::uint32_t>(rng.next_below(12));
    cs.delayed_ack = rng.next_below(3) == 0;
    cs.ecn = rng.next_below(3) == 0;
    cs.start_time = sim::Time::seconds(rng.uniform(0.0, 3.0));
    spec.traffic.add(cs);
  }
  spec.warmup = sim::Time::seconds(20.0);
  spec.duration = sim::Time::seconds(120.0);
  return spec;
}

class FuzzShardedTopology : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzShardedTopology, ShardCountAndBackendInvariant) {
  const std::uint64_t seed = GetParam();
  // Harness draws come from an independent stream so the spec stays a pure
  // function of the seed.
  util::Rng harness(seed * 7919 + 13);
  // This draw once picked a scheduler backend; it is kept and discarded so
  // every seed still maps to the same shard count.
  harness.next_below(2);
  const std::size_t shards = 2 + harness.next_below(3);  // 2..4

  const TopoSpec spec = random_spec(seed);
  ShardedEngine ref_engine(spec, 1, AuditMode::kFull);
  const ExperimentResult ref = ref_engine.run();
  ShardedEngine engine(spec, shards, AuditMode::kFull);
  const ExperimentResult r = engine.run();

  EXPECT_EQ(outcome_string(r), outcome_string(ref))
      << "seed " << seed << " shards " << shards;
  // The merged cross-shard ledger closes with single-cause attribution,
  // whatever the fault plan did.
  EXPECT_EQ(r.audit.drops_queue + r.audit.drops_down + r.audit.drops_fault,
            r.audit.dropped)
      << "seed " << seed;
  EXPECT_EQ(r.audit.created, r.audit.delivered + r.audit.dropped +
                                 r.audit.in_queue + r.audit.in_flight)
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzShardedTopology,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace tcpdyn::core
