// The paper's Figure 1 topology: Host-1 — Switch-1 ==bottleneck== Switch-2 —
// Host-2, with parameters defaulted to §2.2 (50 Kbps bottleneck, 10 Mbps
// access links with 0.1 ms delay, 0.1 ms host processing, 500 B data / 50 B
// ACK packets, 20-packet buffers), declared as a core::Topology.
#pragma once

#include <cstdint>
#include <vector>

#include "core/conn_spec.h"
#include "core/topology.h"

namespace tcpdyn::core {

struct DumbbellParams {
  std::int64_t bottleneck_bps = 50'000;
  sim::Time tau = sim::Time::seconds(0.01);  // bottleneck propagation delay
  net::QueueLimit buffer_fwd = net::QueueLimit::of(20);  // S1 -> S2
  net::QueueLimit buffer_rev = net::QueueLimit::of(20);  // S2 -> S1
  std::int64_t access_bps = 10'000'000;
  sim::Time access_delay = sim::Time::microseconds(100);
  net::QueueLimit access_buffer = net::QueueLimit::infinite();
  // Discipline of both bottleneck directions: drop-tail in the paper; random
  // drop reproduces the gateway discipline of the studies it cites, and the
  // rest of the zoo (RED, DRR) plugs in the same way. buffer_fwd/buffer_rev
  // override its limit.
  net::QdiscConfig bottleneck_qdisc;

  // Pipe size P = mu * tau / M in data packets (paper §2.2).
  double pipe_size(std::uint32_t data_bytes = 500) const {
    return static_cast<double>(bottleneck_bps) * tau.sec() /
           (8.0 * static_cast<double>(data_bytes));
  }
};

// The dumbbell (nodes H1, H2, S1, S2 in that order), with both bottleneck
// transmit ports monitored: ExperimentResult port 0 is S1->S2 "forward",
// port 1 is S2->S1 "reverse".
Topology dumbbell_topology(const DumbbellParams& params);

// A Tahoe flow with default knobs on the dumbbell: Host-1 -> Host-2 when
// `forward`, Host-2 -> Host-1 otherwise.
ConnSpec dumbbell_flow(bool forward);

// RTT-heterogeneous variant for the §5 clustering-breakdown claim: one
// source host per connection attached to switch 1 (each with its own access
// propagation delay) and one sink host per connection on switch 2, so
// connections share the bottleneck but differ in round-trip time. Nodes are
// S1, S2, then A1, B1, A2, B2, ... (source Ai, sink Bi, access delay
// access_delays[i-1]); both bottleneck ports are monitored.
Topology multihost_dumbbell_topology(
    const DumbbellParams& params, const std::vector<sim::Time>& access_delays);

}  // namespace tcpdyn::core
