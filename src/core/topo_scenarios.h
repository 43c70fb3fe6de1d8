// Scenario factories beyond the paper's dumbbell and chain: graphs with
// cycles, parking lots, random Waxman meshes, incast, and link dynamics.
// These exercise the deterministic Dijkstra routing (equal-cost paths exist
// in the ring) and the flow-schedule layer at scale (the parking lot
// defaults to 512 concurrent Tahoe flows).
#pragma once

#include <cstdint>
#include <vector>

#include "core/scenarios.h"
#include "core/topology.h"
#include "tcp/congestion_control.h"

namespace tcpdyn::core {

// --- chaos: the two-way dumbbell under link dynamics ----------------------
// The paper's Fig. 4 setup — two-way Tahoe traffic over one bottleneck —
// but the bottleneck misbehaves: the reverse (ACK-carrying) direction runs
// a Gilbert-Elliott burst-loss model, and the whole trunk flaps down
// periodically during the measurement window. Exercises blackout recovery,
// RTO backoff, and lossy-ACK asymmetry while the conservation audit holds.
struct ChaosParams {
  double tau_sec = 0.01;            // trunk propagation delay
  std::size_t buffer = 20;          // trunk buffer (packets, each way)
  std::size_t flows = 4;            // flows per direction
  std::int64_t trunk_bps = 50'000;
  std::int64_t access_bps = 10'000'000;
  double ge_p_good_to_bad = 0.02;   // reverse-trunk burst-loss model
  double ge_p_bad_to_good = 0.3;
  double ge_loss_bad = 0.5;
  double outage_sec = 2.0;          // duration of each trunk flap
  double flap_period_sec = 60.0;    // gap between flap starts
  std::size_t flaps = 3;            // first flap at warmup + period
  bool discard_on_down = false;     // kDiscard instead of kDrain
  // Congestion controllers cycled across connections in add order
  // (fwd1, rev1, fwd2, rev2, ...); empty means all-Tahoe.
  std::vector<tcp::CcAlgorithm> cc;
  std::uint64_t seed = 42;
  double start_spread_sec = 5.0;
  double warmup_sec = 100.0;
  double duration_sec = 400.0;
};

TopoSpec chaos_spec(const ChaosParams& params);

// --- red wave (E21): qdisc zoo on a trunk chain ---------------------------
// A chain of `hops` trunk links carrying two-way end-to-end traffic, every
// trunk running the same queue discipline — the congestion-wave testbed for
// RED vs drop-tail. Every forward trunk hop is monitored in chain order, so
// ExperimentResult::ports feeds analyze_waves directly (wave speed,
// correlation length, oscillation amplitude per hop).
struct RedWaveParams {
  std::size_t hops = 4;             // trunk links; switches = hops + 1
  std::int64_t trunk_bps = 100'000;
  double tau_sec = 0.005;           // per-hop propagation delay
  std::size_t buffer = 20;          // trunk buffer (packets, each direction)
  std::int64_t access_bps = 10'000'000;
  std::size_t flows = 2;            // end-to-end flows per direction
  // Discipline for every trunk direction; the limit field is overridden by
  // `buffer`. Defaults to drop-tail — the RED runs set kind/red here.
  net::QdiscConfig qdisc;
  bool ecn = false;                 // flows negotiate ECT/ECE/CWR
  tcp::CcAlgorithm cc = tcp::CcAlgorithm::kTahoe;
  std::uint64_t seed = 21;
  double start_spread_sec = 5.0;
  double warmup_sec = 100.0;
  double duration_sec = 400.0;
};

TopoSpec red_wave_spec(const RedWaveParams& params);

// --- ring: N switches in a cycle, one host each --------------------------
// The smallest topology with equal-cost path ties (an even-length ring has
// two shortest paths to the antipodal node), pinning the smallest-node-id
// tie-break of the routing layer.
struct RingParams {
  std::size_t switches = 6;
  std::int64_t trunk_bps = 50'000;
  sim::Time trunk_delay = sim::Time::seconds(0.01);
  net::QueueLimit trunk_buffer = net::QueueLimit::of(30);
  std::int64_t access_bps = 10'000'000;
  sim::Time access_delay = sim::Time::microseconds(100);
  std::size_t flows = 12;       // Tahoe flows between random host pairs
  std::uint64_t seed = 7;
  double start_spread_sec = 5.0;
};

Topology ring_topology(const RingParams& params);
TopoSpec ring_spec(const RingParams& params);

// --- parking lot: a trunk chain with per-hop cross traffic ----------------
// `hops` trunk links; long flows traverse the whole trunk while each hop
// also carries its own single-hop cross flows — the classic fairness
// stress: long flows compete at every hop. Defaults give 128 + 4*96 = 512
// concurrent Tahoe flows.
struct ParkingLotParams {
  std::size_t hops = 4;             // trunk links; switches = hops + 1
  std::int64_t trunk_bps = 5'000'000;
  sim::Time trunk_delay = sim::Time::milliseconds(5);
  net::QueueLimit trunk_buffer = net::QueueLimit::of(64);
  std::int64_t access_bps = 100'000'000;
  sim::Time access_delay = sim::Time::microseconds(100);
  std::size_t long_flows = 128;     // end-to-end
  std::size_t cross_per_hop = 96;   // per trunk link
  std::uint64_t seed = 17;
  double start_spread_sec = 5.0;
  double warmup_sec = 10.0;
  double duration_sec = 30.0;
};

Topology parking_lot_topology(const ParkingLotParams& params);
TopoSpec parking_lot_spec(const ParkingLotParams& params);

// --- datacenter incast: N-to-1 fan-in with open-loop session churn --------
// `senders` hosts on one switch all transmit to a single sink host behind
// the switch's one egress link — the shared queue every flow's data funnels
// through. Each sender contributes `flows_per_sender` sessions; with
// arrival_rate > 0 the sessions arrive open-loop as independent Poisson
// streams (one per sender, so the aggregate is Poisson at senders * rate)
// and each transmits for session_sec before stopping — the flow-churn
// regime where most of the population is idle at any instant and total
// flow count is bounded only by memory. arrival_rate == 0 falls back to a
// closed population jittered over start_spread_sec.
struct IncastParams {
  std::size_t senders = 64;          // fan-in width (hosts on the switch)
  std::size_t flows_per_sender = 4;  // sessions per sender host
  std::int64_t link_bps = 1'000'000;  // the shared egress link
  double link_delay_sec = 500e-6;
  std::size_t buffer = 64;           // egress buffer (packets)
  std::int64_t access_bps = 10'000'000;
  double access_delay_sec = 100e-6;
  double arrival_rate = 0.0;         // per-sender sessions/sec; 0 = closed
  double session_sec = 0.0;          // per-session transmit time; 0 = forever
  tcp::CcAlgorithm cc = tcp::CcAlgorithm::kTahoe;
  std::uint64_t seed = 22;
  double start_spread_sec = 5.0;     // closed-population jitter
  double warmup_sec = 10.0;
  double duration_sec = 60.0;
  // Scale knobs (see TopoSpec): streaming monitors and per-flow traces off
  // keep experiment memory flat in the flow count.
  bool streaming = false;
  bool per_flow_traces = true;
};

Topology incast_topology(const IncastParams& params);
TopoSpec incast_spec(const IncastParams& params);

// --- Waxman: random geometric mesh ----------------------------------------
// Switches at random unit-square coordinates, wired as a random spanning
// tree (guaranteeing connectivity) plus extra links taken with the Waxman
// probability alpha * exp(-d / (beta * L)); hosts attach to random
// switches. Everything — coordinates, links, host placement, endpoints,
// start times — derives from one seeded stream, so a (seed, params) pair
// names exactly one network.
struct WaxmanParams {
  std::size_t switches = 8;
  std::size_t hosts = 16;
  double alpha = 0.6;   // overall link density
  double beta = 0.4;    // long-link affinity
  std::int64_t trunk_bps = 1'000'000;
  sim::Time trunk_delay = sim::Time::milliseconds(5);
  net::QueueLimit trunk_buffer = net::QueueLimit::of(50);
  std::int64_t access_bps = 10'000'000;
  sim::Time access_delay = sim::Time::microseconds(100);
  std::size_t flows = 32;
  std::uint64_t seed = 11;
  double start_spread_sec = 5.0;
};

Topology waxman_topology(const WaxmanParams& params);
TopoSpec waxman_spec(const WaxmanParams& params);

}  // namespace tcpdyn::core
