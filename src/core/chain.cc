#include "core/chain.h"

#include <string>

namespace tcpdyn::core {

Topology chain_topology(const ChainParams& p) {
  Topology t;
  std::vector<std::size_t> switches, hosts;
  for (std::size_t i = 0; i < p.switches; ++i) {
    switches.push_back(t.add_switch("S" + std::to_string(i + 1)));
    hosts.push_back(t.add_host("H" + std::to_string(i + 1)));
  }
  for (std::size_t i = 0; i < p.switches; ++i) {
    t.add_link(hosts[i], switches[i], p.access_bps, p.access_delay,
               p.access_buffer);
    if (i + 1 < p.switches) {
      t.add_link(switches[i], switches[i + 1], p.trunk_bps, p.trunk_delay,
                 p.trunk_buffer);
    }
  }
  for (std::size_t i = 0; i + 1 < p.switches; ++i) {
    t.monitor(switches[i], switches[i + 1]);
    t.monitor(switches[i + 1], switches[i]);
  }
  return t;
}

}  // namespace tcpdyn::core
