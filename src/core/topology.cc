#include "core/topology.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/rng.h"

namespace tcpdyn::core {

net::NodeId CompiledTopology::id(const std::string& name) const {
  auto it = by_name.find(name);
  if (it == by_name.end()) {
    throw std::out_of_range("topology has no node named '" + name + "'");
  }
  return it->second;
}

std::size_t Topology::add_node(std::string name, bool host) {
  if (index_.contains(name)) {
    throw std::invalid_argument("duplicate node name '" + name + "'");
  }
  const std::size_t idx = nodes_.size();
  index_[name] = idx;
  nodes_.push_back({std::move(name), host});
  host_link_count_.push_back(0);
  return idx;
}

std::size_t Topology::add_host(std::string name) {
  return add_node(std::move(name), /*host=*/true);
}

std::size_t Topology::add_switch(std::string name) {
  return add_node(std::move(name), /*host=*/false);
}

void Topology::add_link(const LinkSpec& link) {
  if (link.a >= nodes_.size() || link.b >= nodes_.size()) {
    throw std::invalid_argument("link endpoint index out of range");
  }
  if (link.a == link.b) {
    throw std::invalid_argument("link endpoints must differ ('" +
                                nodes_[link.a].name + "')");
  }
  for (const std::size_t end : {link.a, link.b}) {
    if (nodes_[end].host && host_link_count_[end] > 0) {
      throw std::invalid_argument("host '" + nodes_[end].name +
                                  "' already has its access link");
    }
  }
  ++host_link_count_[link.a];
  ++host_link_count_[link.b];
  links_.push_back(link);
}

void Topology::add_link(std::size_t a, std::size_t b,
                        std::int64_t bits_per_second, sim::Time delay,
                        net::QueueLimit buffer,
                        const net::QdiscConfig& qdisc) {
  LinkSpec l;
  l.a = a;
  l.b = b;
  l.bits_per_second = bits_per_second;
  l.delay = delay;
  l.buffer_ab = buffer;
  l.buffer_ba = buffer;
  l.qdisc = qdisc;
  add_link(l);
}

void Topology::monitor(std::size_t a, std::size_t b) {
  for (const LinkSpec& l : links_) {
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) {
      monitors_.emplace_back(a, b);
      return;
    }
  }
  throw std::invalid_argument("monitor: no link between '" +
                              nodes_.at(a).name + "' and '" +
                              nodes_.at(b).name + "'");
}

std::size_t Topology::index(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    throw std::out_of_range("topology has no node named '" + name + "'");
  }
  return it->second;
}

bool Topology::has_node(const std::string& name) const {
  return index_.contains(name);
}

std::size_t Topology::host_count() const {
  std::size_t n = 0;
  for (const NodeDecl& d : nodes_) n += d.host;
  return n;
}

void Topology::check_connected() const {
  if (nodes_.empty()) throw std::invalid_argument("topology has no nodes");
  std::vector<std::vector<std::size_t>> adj(nodes_.size());
  for (const LinkSpec& l : links_) {
    adj[l.a].push_back(l.b);
    adj[l.b].push_back(l.a);
  }
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<std::size_t> stack{0};
  seen[0] = true;
  std::size_t reached = 1;
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    for (const std::size_t v : adj[u]) {
      if (!seen[v]) {
        seen[v] = true;
        ++reached;
        stack.push_back(v);
      }
    }
  }
  if (reached != nodes_.size()) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (!seen[i]) {
        throw std::invalid_argument("topology is disconnected: node '" +
                                    nodes_[i].name +
                                    "' is unreachable from '" +
                                    nodes_[0].name + "'");
      }
    }
  }
}

CompiledTopology Topology::compile(Experiment& exp,
                                   std::int64_t route_ref_bytes) const {
  check_connected();
  net::Network& net = exp.network();
  CompiledTopology out;
  out.node_ids.reserve(nodes_.size());
  for (const NodeDecl& d : nodes_) {
    const net::NodeId id =
        d.host ? net.add_host(d.name) : net.add_switch(d.name);
    out.node_ids.push_back(id);
    out.by_name[d.name] = id;
  }
  for (const LinkSpec& l : links_) {
    net.connect(out.node_ids[l.a], out.node_ids[l.b], l.bits_per_second,
                l.delay, l.buffer_ab, l.buffer_ba, l.qdisc);
  }
  net.compute_routes(route_ref_bytes);
  for (const auto& [a, b] : monitors_) {
    exp.monitor(out.node_ids[a], out.node_ids[b]);
  }
  return out;
}

// --------------------------------------------------------- TrafficMatrix

std::size_t TrafficMatrix::add(ConnSpec spec) {
  if (spec.count == 0) {
    throw std::invalid_argument("ConnSpec count must be >= 1");
  }
  specs_.push_back(std::move(spec));
  return specs_.size() - 1;
}

std::size_t TrafficMatrix::flow_count() const {
  std::size_t n = 0;
  for (const ConnSpec& s : specs_) n += s.count;
  return n;
}

std::size_t TrafficMatrix::adaptive_flow_count() const {
  std::size_t n = 0;
  for (const ConnSpec& s : specs_) {
    if (s.kind != tcp::CcAlgorithm::kFixedWindow) n += s.count;
  }
  return n;
}

std::size_t TrafficMatrix::instantiate(Experiment& exp,
                                       const CompiledTopology& topo) const {
  net::ConnId next_id = static_cast<net::ConnId>(exp.connection_count());
  std::size_t added = 0;
  for (const ConnSpec& s : specs_) {
    const net::NodeId src = topo.id(s.src);
    const net::NodeId dst = topo.id(s.dst);
    util::Rng rng(s.seed);
    double arrival_sec = 0.0;  // accumulated Poisson inter-arrival gaps
    for (std::size_t j = 0; j < s.count; ++j) {
      tcp::ConnectionConfig cfg = s.to_config();
      cfg.id = next_id++;
      cfg.src_host = src;
      cfg.dst_host = dst;
      if (s.arrival_rate > 0.0) {
        arrival_sec += rng.exponential(s.arrival_rate);
        cfg.start_time = s.start_time + sim::Time::seconds(arrival_sec);
        if (s.session_time > sim::Time::zero()) {
          cfg.stop_time = cfg.start_time + s.session_time;
        }
      } else if (s.start_spread > sim::Time::zero()) {
        cfg.start_time =
            s.start_time +
            sim::Time::seconds(rng.uniform(0.0, s.start_spread.sec()));
      }
      exp.add_connection(cfg);
      ++added;
    }
  }
  return added;
}

// ----------------------------------------------------------- file parser

namespace {

[[noreturn]] void parse_error(std::size_t line, const std::string& msg) {
  throw std::invalid_argument("topology file line " + std::to_string(line) +
                              ": " + msg);
}

double to_double(const std::string& tok, std::size_t line,
                 const std::string& what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(tok, &pos);
    if (pos != tok.size()) throw std::invalid_argument("");
    return v;
  } catch (const std::exception&) {
    parse_error(line, what + " is not a number: '" + tok + "'");
  }
}

std::int64_t to_int(const std::string& tok, std::size_t line,
                    const std::string& what) {
  const double v = to_double(tok, line, what);
  return static_cast<std::int64_t>(v);
}

net::QueueLimit to_buffer(const std::string& tok, std::size_t line) {
  if (tok == "inf") return net::QueueLimit::infinite();
  const std::int64_t n = to_int(tok, line, "buffer");
  if (n < 0) parse_error(line, "buffer must be >= 0 or 'inf'");
  return net::QueueLimit::of(static_cast<std::size_t>(n));
}

}  // namespace

TopoSpec parse_topology(std::istream& in) {
  TopoSpec spec;
  bool seen_seed = false;
  std::size_t flow_index = 0;
  std::string raw;
  std::size_t lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream line(raw);
    std::string word;
    if (!(line >> word)) continue;  // blank / comment-only line

    std::vector<std::string> args;
    for (std::string tok; line >> tok;) args.push_back(tok);
    const auto want = [&](std::size_t n, const char* usage) {
      if (args.size() < n) parse_error(lineno, std::string("usage: ") + usage);
    };

    if (word == "name") {
      want(1, "name NAME");
      spec.name = args[0];
    } else if (word == "host") {
      want(1, "host NAME");
      spec.topo.add_host(args[0]);
    } else if (word == "switch") {
      want(1, "switch NAME");
      spec.topo.add_switch(args[0]);
    } else if (word == "link") {
      want(6,
           "link A B BPS DELAY_SEC BUF_AB BUF_BA "
           "[droptail|randomdrop|red|red-ecn|drr] [key=value...]");
      LinkSpec l;
      l.a = spec.topo.index(args[0]);
      l.b = spec.topo.index(args[1]);
      l.bits_per_second = to_int(args[2], lineno, "link rate");
      l.delay = sim::Time::seconds(to_double(args[3], lineno, "link delay"));
      l.buffer_ab = to_buffer(args[4], lineno);
      l.buffer_ba = to_buffer(args[5], lineno);
      if (args.size() > 6) {
        net::QdiscConfig& q = l.qdisc;
        // The registry supplies the did-you-mean error text; tag it with
        // the .topo line number.
        try {
          const net::QdiscChoice& choice =
              net::qdisc_registry().require(args[6], "queue discipline");
          q.kind = choice.kind;
          q.red.ecn = choice.ecn;
        } catch (const std::invalid_argument& e) {
          parse_error(lineno, e.what());
        }
        if ((q.kind == net::QdiscKind::kDropTail ||
             q.kind == net::QdiscKind::kRandomDrop) &&
            args.size() > 7) {
          parse_error(lineno, "'" + args[6] + "' takes no options");
        }
        for (std::size_t i = 7; i < args.size(); ++i) {
          const auto eq = args[i].find('=');
          if (eq == std::string::npos) {
            parse_error(lineno, "qdisc options are key=value, got '" +
                                    args[i] + "'");
          }
          const std::string key = args[i].substr(0, eq);
          const std::string val = args[i].substr(eq + 1);
          if (key == "min_th") {
            q.red.min_th = static_cast<std::size_t>(to_int(val, lineno, key));
          } else if (key == "max_th") {
            q.red.max_th = static_cast<std::size_t>(to_int(val, lineno, key));
          } else if (key == "wq_shift") {
            q.red.wq_shift = static_cast<unsigned>(to_int(val, lineno, key));
          } else if (key == "max_p") {
            const double p = to_double(val, lineno, key);
            if (p <= 0.0 || p > 1.0) {
              parse_error(lineno, "max_p must be in (0, 1]");
            }
            q.red.max_p_65536 = static_cast<std::uint32_t>(p * 65536.0 + 0.5);
          } else if (key == "quantum") {
            q.drr.quantum_bytes =
                static_cast<std::size_t>(to_int(val, lineno, key));
          } else {
            parse_error(lineno, "unknown qdisc option '" + key + "'");
          }
        }
      }
      spec.topo.add_link(l);
    } else if (word == "monitor") {
      want(2, "monitor A B");
      spec.topo.monitor(spec.topo.index(args[0]), spec.topo.index(args[1]));
    } else if (word == "flow") {
      want(2, "flow SRC DST [key=value...]");
      ConnSpec c;
      c.src = args[0];
      c.dst = args[1];
      if (!spec.topo.has_node(c.src) || !spec.topo.has_node(c.dst)) {
        parse_error(lineno, "flow endpoints must be declared nodes");
      }
      c.seed = util::mix_seed(spec.seed, flow_index);
      for (std::size_t i = 2; i < args.size(); ++i) {
        const auto eq = args[i].find('=');
        if (eq == std::string::npos) {
          parse_error(lineno, "flow options are key=value, got '" + args[i] +
                                  "'");
        }
        const std::string key = args[i].substr(0, eq);
        const std::string val = args[i].substr(eq + 1);
        if (key == "count") {
          c.count = static_cast<std::size_t>(to_int(val, lineno, key));
        } else if (key == "kind") {
          // Full CcAlgorithm zoo, straight from the registry (with
          // did-you-mean errors tagged with the .topo line number).
          try {
            c.kind = tcp::cc_registry().require(val, "sender kind");
          } catch (const std::invalid_argument& e) {
            parse_error(lineno, e.what());
          }
        } else if (key == "window") {
          c.fixed_window = static_cast<std::uint32_t>(to_int(val, lineno, key));
        } else if (key == "start") {
          c.start_time = sim::Time::seconds(to_double(val, lineno, key));
        } else if (key == "spread") {
          c.start_spread = sim::Time::seconds(to_double(val, lineno, key));
        } else if (key == "stop") {
          c.stop_time = sim::Time::seconds(to_double(val, lineno, key));
        } else if (key == "seed") {
          c.seed = static_cast<std::uint64_t>(to_int(val, lineno, key));
        } else if (key == "maxwnd") {
          c.maxwnd = static_cast<std::uint32_t>(to_int(val, lineno, key));
        } else if (key == "delayed_ack") {
          c.delayed_ack = to_int(val, lineno, key) != 0;
        } else if (key == "ecn") {
          c.ecn = to_int(val, lineno, key) != 0;
        } else if (key == "pacing") {
          c.pacing_interval = sim::Time::seconds(to_double(val, lineno, key));
        } else if (key == "rate") {
          // Open-loop Poisson session arrivals (flows/sec); see ConnSpec.
          c.arrival_rate = to_double(val, lineno, key);
          if (c.arrival_rate < 0.0) {
            parse_error(lineno, "rate must be >= 0");
          }
        } else if (key == "session") {
          c.session_time = sim::Time::seconds(to_double(val, lineno, key));
        } else if (key == "data") {
          c.data_bytes = static_cast<std::uint32_t>(to_int(val, lineno, key));
        } else if (key == "ack") {
          c.ack_bytes = static_cast<std::uint32_t>(to_int(val, lineno, key));
        } else {
          parse_error(lineno, "unknown flow option '" + key + "'");
        }
      }
      spec.traffic.add(std::move(c));
      ++flow_index;
    } else if (word == "fault") {
      want(1, "fault down|rate|delay|loss|gilbert|corrupt|reorder|seed ...");
      // Node/link references resolve at FaultPlan::apply time (after
      // compile); here only the directive grammar is validated. Validate
      // node names eagerly where the directive's positional layout lets us,
      // for a line-numbered error.
      if (args.size() >= 3 && args[0] != "seed") {
        if (!spec.topo.has_node(args[1]) || !spec.topo.has_node(args[2])) {
          parse_error(lineno, "fault endpoints must be declared nodes");
        }
      }
      parse_fault_directive(spec.faults, args, static_cast<int>(lineno));
    } else if (word == "warmup") {
      want(1, "warmup SEC");
      spec.warmup = sim::Time::seconds(to_double(args[0], lineno, word));
    } else if (word == "duration") {
      want(1, "duration SEC");
      spec.duration = sim::Time::seconds(to_double(args[0], lineno, word));
    } else if (word == "epoch_gap") {
      want(1, "epoch_gap SEC");
      spec.epoch_gap_sec = to_double(args[0], lineno, word);
    } else if (word == "seed") {
      want(1, "seed N");
      if (seen_seed) parse_error(lineno, "duplicate seed directive");
      if (flow_index > 0) {
        parse_error(lineno, "seed must come before the first flow");
      }
      seen_seed = true;
      spec.seed = static_cast<std::uint64_t>(to_int(args[0], lineno, word));
    } else {
      parse_error(lineno, "unknown directive '" + word + "'");
    }
  }
  if (spec.topo.node_count() == 0) {
    throw std::invalid_argument("topology file declares no nodes");
  }
  return spec;
}

TopoSpec load_topology_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open topology file '" + path + "'");
  }
  return parse_topology(in);
}

}  // namespace tcpdyn::core
