// The §5 / [19] style multi-hop topology: N switches in a chain, one host
// per switch. core::four_switch_chain puts many connections on it whose
// paths span 1..N-1 inter-switch hops, to show that ACK-compression and
// out-of-phase synchronization persist beyond the single-bottleneck case.
#pragma once

#include <cstdint>

#include "core/topology.h"

namespace tcpdyn::core {

struct ChainParams {
  std::size_t switches = 4;
  std::int64_t trunk_bps = 50'000;                     // inter-switch links
  sim::Time trunk_delay = sim::Time::seconds(0.01);
  net::QueueLimit trunk_buffer = net::QueueLimit::of(30);
  std::int64_t access_bps = 10'000'000;
  sim::Time access_delay = sim::Time::microseconds(100);
  net::QueueLimit access_buffer = net::QueueLimit::infinite();
};

// The chain (nodes S1, H1, S2, H2, ...; host Hi attached to switch Si), with
// every inter-switch transmit port monitored in both directions:
// ExperimentResult ports are ordered S1->S2, S2->S1, S2->S3, S3->S2, ...
Topology chain_topology(const ChainParams& params);

}  // namespace tcpdyn::core
