// Network: owns all nodes and links, builds topologies, and computes static
// shortest-path routes. Covers the paper's configurations: the two-switch
// dumbbell of Fig. 1 and the four-switch chain of §5, plus arbitrary graphs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/host.h"
#include "net/observer.h"
#include "net/switch_node.h"
#include "sim/simulator.h"

namespace tcpdyn::net {

class Network {
 public:
  explicit Network(sim::Simulator& sim,
                   sim::Time host_processing = sim::Time::microseconds(100))
      : sim_(sim), host_processing_(host_processing) {}

  // Sharded construction: maps a node id to the simulator its shard runs on.
  // Must be installed before any add_host/connect call; every node's hosts,
  // ports, and endpoints then schedule on their owning shard's clock. Serial
  // runs leave it unset and use the network-wide simulator throughout.
  using SimResolver = std::function<sim::Simulator&(NodeId)>;
  void set_sim_resolver(SimResolver resolver) {
    sim_resolver_ = std::move(resolver);
  }
  sim::Simulator& sim_for(NodeId id) {
    return sim_resolver_ ? sim_resolver_(id) : sim_;
  }

  NodeId add_host(std::string name);
  NodeId add_switch(std::string name);

  // Creates a duplex link between a and b: one output port on each side,
  // with independent buffers (paper: no buffer sharing between lines) and a
  // shared discipline config (drop-tail unless given), whose limit each
  // direction overrides with its own buffer. A host may have at most one
  // link (its access link).
  void connect(NodeId a, NodeId b, std::int64_t bits_per_second,
               sim::Time propagation_delay, QueueLimit queue_a_to_b,
               QueueLimit queue_b_to_a, const QdiscConfig& qdisc = {});

  // Populates every switch's routing table with shortest-path next hops
  // toward every host: Dijkstra over per-link cost = serialization time of
  // one reference packet (route_ref_bytes) + propagation delay, in integer
  // nanoseconds so the comparison is exact; ties broken by smallest next-hop
  // node id. Deterministic for a given construction sequence. Must be
  // called after all connect() calls.
  void compute_routes(std::int64_t route_ref_bytes = 500);

  Host& host(NodeId id);
  Switch& switch_node(NodeId id);
  // Generic access when the caller does not care which kind it is (the
  // sharded engine resolving deterministic contexts by node id).
  Node& node(NodeId id) { return *nodes_.at(id).node; }
  bool is_host(NodeId id) const;
  std::size_t node_count() const { return nodes_.size(); }

  // The transmit port carrying traffic from `from` toward adjacent node
  // `to`; null when no such link exists. This is the handle used to attach
  // queue monitors and read utilization.
  OutputPort* port_between(NodeId from, NodeId to);

  // Installs (or clears, with nullptr) the packet-lifecycle observer on
  // every existing and future port and host. At most one observer per
  // network; core::Audit and core::EventTrace chain through it.
  void set_observer(PacketObserver* observer);

  // Deterministic enumeration (port-map / node-id order) for the audit and
  // report layers.
  void for_each_port(const std::function<void(OutputPort&)>& fn);
  void for_each_host(const std::function<void(Host&)>& fn);

  sim::Simulator& sim() { return sim_; }

 private:
  void set_switch_route(NodeId sw_id, NodeId dst, NodeId via);

  struct NodeSlot {
    std::unique_ptr<Node> node;
    bool host = false;
  };

  sim::Simulator& sim_;
  sim::Time host_processing_;
  SimResolver sim_resolver_;
  PacketObserver* observer_ = nullptr;
  std::vector<NodeSlot> nodes_;
  std::vector<std::vector<NodeId>> adjacency_;
  std::map<std::pair<NodeId, NodeId>, OutputPort*> ports_;  // (from,to) -> port
};

}  // namespace tcpdyn::net
