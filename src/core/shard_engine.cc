#include "core/shard_engine.h"

#include <algorithm>
#include <barrier>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <thread>
#include <utility>

#include "net/port.h"

namespace tcpdyn::core {

// ------------------------------------------------------------ partitioner

ShardPlan plan_shards(const Topology& topo, const FaultPlan& faults,
                      std::size_t shards) {
  const std::size_t n = topo.node_count();
  ShardPlan plan;
  plan.shard_of.assign(n, 0);
  if (n == 0 || shards <= 1) return plan;

  // Effective minimum propagation delay per link: the static delay, lowered
  // by any scripted delay change targeting the link. A cut across a link
  // promises arrivals at least `lookahead` in the future, so the promise
  // must survive every delay the fault plan can install.
  const std::vector<LinkSpec>& links = topo.links();
  std::vector<std::int64_t> eff(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) eff[i] = links[i].delay.ns();
  for (const DelayChange& c : faults.delay_changes()) {
    if (!topo.has_node(c.link.a) || !topo.has_node(c.link.b)) continue;
    const std::size_t a = topo.index(c.link.a);
    const std::size_t b = topo.index(c.link.b);
    for (std::size_t i = 0; i < links.size(); ++i) {
      if ((links[i].a == a && links[i].b == b) ||
          (links[i].a == b && links[i].b == a)) {
        eff[i] = std::min(eff[i], c.delay.ns());
      }
    }
  }

  // Contract links too tight to cut: union-find over their endpoints, so
  // region growing below moves whole contracted components at once.
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  auto find = [&parent](std::size_t u) {
    while (parent[u] != u) {
      parent[u] = parent[parent[u]];
      u = parent[u];
    }
    return u;
  };
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (eff[i] < kMinCutDelayNs) parent[find(links[i].a)] = find(links[i].b);
  }
  std::vector<std::vector<std::size_t>> members(n);
  for (std::size_t u = 0; u < n; ++u) members[find(u)].push_back(u);

  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> adj(n);
  for (std::size_t i = 0; i < links.size(); ++i) {
    adj[links[i].a].push_back({i, links[i].b});
    adj[links[i].b].push_back({i, links[i].a});
  }

  // Greedy region growing, lowest-delay frontier edge first (Prim-like), so
  // tightly coupled nodes stay together and the eventual cut falls on the
  // highest-delay links. Seeds are the smallest unassigned node id and ties
  // break on link declaration index: the partition is a pure function of
  // the topology.
  std::vector<std::ptrdiff_t> shard(n, -1);
  const std::size_t target = (n + shards - 1) / shards;
  std::size_t assigned = 0;
  using Edge = std::pair<std::int64_t, std::size_t>;  // (eff delay, link idx)
  std::priority_queue<Edge, std::vector<Edge>, std::greater<Edge>> frontier;
  auto assign_component = [&](std::size_t u, std::size_t to) {
    std::size_t count = 0;
    for (std::size_t v : members[find(u)]) {
      if (shard[v] >= 0) continue;
      shard[v] = static_cast<std::ptrdiff_t>(to);
      ++count;
      for (const auto& [li, peer] : adj[v]) {
        if (shard[peer] < 0) frontier.push({eff[li], li});
      }
    }
    assigned += count;
    return count;
  };

  std::size_t region = 0;
  std::size_t seed = 0;
  while (assigned < n && region + 1 < shards) {
    while (seed < n && shard[seed] >= 0) ++seed;
    frontier = {};
    std::size_t count = assign_component(seed, region);
    while (count < target && !frontier.empty()) {
      const auto [d, li] = frontier.top();
      frontier.pop();
      if (shard[links[li].a] < 0) {
        count += assign_component(links[li].a, region);
      } else if (shard[links[li].b] < 0) {
        count += assign_component(links[li].b, region);
      }
    }
    ++region;
  }
  if (assigned < n) {
    // Everything left forms the final region.
    for (std::size_t u = 0; u < n; ++u) {
      if (shard[u] < 0) shard[u] = static_cast<std::ptrdiff_t>(region);
    }
    ++region;
  }

  plan.shards = region;
  for (std::size_t u = 0; u < n; ++u) {
    plan.shard_of[u] = static_cast<std::size_t>(shard[u]);
  }
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (plan.shard_of[links[i].a] != plan.shard_of[links[i].b]) {
      plan.cut_links.push_back(i);
      plan.lookahead =
          std::min(plan.lookahead, sim::Time::nanoseconds(eff[i]));
    }
  }
  return plan;
}

// ----------------------------------------------------------------- engine

ShardedEngine::ShardedEngine(const TopoSpec& spec, std::size_t shards,
                             AuditMode audit_mode)
    : plan_(plan_shards(spec.topo, spec.faults, shards)),
      warmup_(spec.warmup),
      end_(spec.warmup + spec.duration),
      audit_mode_(audit_mode) {
  const std::size_t n = plan_.shards;
  sims_.reserve(n);
  engine_ctx_.resize(n);  // before any pointer is taken; never resized again
  for (std::size_t s = 0; s < n; ++s) {
    sims_.push_back(std::make_unique<sim::Simulator>());
    // The engine's own setup identity: sorts after every node context at the
    // same key, mirroring the serial run scheduling its bookkeeping events
    // after the model's.
    engine_ctx_[s].id = sim::kDetCtxMaxId;
    sims_[s]->set_det_context(&engine_ctx_[s]);
  }

  exp_ = std::make_unique<Experiment>();
  exp_->network().set_sim_resolver([this](net::NodeId id) -> sim::Simulator& {
    return *sims_[plan_.shard_of.at(id)];
  });
  exp_->set_monitor_mode(spec.monitor_mode);
  exp_->set_flow_instrumentation(spec.per_flow_traces);
  // Nodes are created in declaration order, so the topology index the plan
  // partitioned IS the NodeId the resolver is asked about.
  compiled_ = spec.topo.compile(*exp_);

  if (audit_mode_ == AuditMode::kFull) {
    // One ledger per shard, installed port-by-port and host-by-host along
    // shard-ownership lines (Network::set_observer would alias one observer
    // across threads).
    for (std::size_t s = 0; s < n; ++s) audits_.emplace_back();
    net::Network& net = exp_->network();
    for (const LinkSpec& l : spec.topo.links()) {
      net.port_between(compiled_.node_ids[l.a], compiled_.node_ids[l.b])
          ->set_observer(&audits_[plan_.shard_of[l.a]]);
      net.port_between(compiled_.node_ids[l.b], compiled_.node_ids[l.a])
          ->set_observer(&audits_[plan_.shard_of[l.b]]);
    }
    for (std::size_t u = 0; u < plan_.shard_of.size(); ++u) {
      const net::NodeId id = compiled_.node_ids[u];
      if (net.is_host(id)) {
        net.host(id).set_observer(&audits_[plan_.shard_of[u]]);
      }
    }
  }

  spec.traffic.instantiate(*exp_, compiled_);
  spec.faults.apply(*exp_, compiled_);

  mail_.resize(n);
  for (auto& row : mail_) row.resize(n);
  for (std::size_t li : plan_.cut_links) {
    install_cross_handoff(spec.topo.links()[li].a, spec.topo.links()[li].b);
    install_cross_handoff(spec.topo.links()[li].b, spec.topo.links()[li].a);
  }

  // Monitored drops are the one trace several shards append to (the shared
  // Experiment::drops_ vector); give each monitor its own buffer and merge
  // deterministically after the run.
  if (exp_->monitor_mode_ == MonitorMode::kFull) {
    drop_bufs_.resize(exp_->monitored_.size());  // stable from here on
    for (std::size_t i = 0; i < exp_->monitored_.size(); ++i) {
      auto* raw = exp_->monitored_[i].get();
      auto* buf = &drop_bufs_[i];
      raw->port->on_drop = [raw, buf](sim::Time t, const net::Packet& p) {
        buf->push_back(
            {t.sec(), p.conn, net::is_data(p), p.seq, raw->port->name()});
      };
    }
  }

  // Per-connection traces that serial runs create lazily at the first
  // sample would rehash their map concurrently here; pre-create every entry
  // (empty ones are erased after assembly to match serial output exactly),
  // and snapshot warmup delivery counts shard-locally.
  std::vector<std::vector<tcp::Connection*>> by_dst_shard(n);
  for (auto& c : exp_->conns_) {
    const net::ConnId id = c->config().id;
    delivered_at_warmup_.emplace(id, 0);
    if (exp_->instrument_flows_) {
      instrumented_conns_.push_back(id);
      exp_->rtt_samples_.try_emplace(id);
    }
    by_dst_shard[plan_.shard_of.at(c->config().dst_host)].push_back(c.get());
  }
  for (std::size_t s = 0; s < n; ++s) {
    sims_[s]->set_det_context(&engine_ctx_[s]);
    sims_[s]->schedule_at(
        warmup_, [this, conns = std::move(by_dst_shard[s])] {
          for (tcp::Connection* c : conns) {
            delivered_at_warmup_.find(c->config().id)->second =
                c->receiver().next_expected();
          }
        });
  }
}

ShardedEngine::~ShardedEngine() = default;

void ShardedEngine::install_cross_handoff(std::size_t from_idx,
                                          std::size_t to_idx) {
  net::OutputPort* port = exp_->network().port_between(
      compiled_.node_ids[from_idx], compiled_.node_ids[to_idx]);
  auto* box = &mail_[plan_.shard_of[from_idx]][plan_.shard_of[to_idx]];
  port->set_cross_handoff(
      [box](net::OutputPort& p, sim::Time at, net::Packet pkt) {
        // Mint exactly the key a local delivery would have received: birth
        // time plus a tie drawn from the shard's active (transmitting-side)
        // context. The mailbox carries it to the peer shard's heap, so the
        // merged order is the order one shard would have produced.
        sim::DetContext* ctx = p.sim().det_context();
        box->push_back({at, static_cast<std::uint64_t>(p.sim().now().ns()),
                        sim::det_tie_next(*ctx), p.peer(), pkt});
      });
}

void ShardedEngine::drain_mail() {
  const std::size_t n = plan_.shards;
  for (std::size_t src = 0; src < n; ++src) {
    for (std::size_t dst = 0; dst < n; ++dst) {
      auto& box = mail_[src][dst];
      for (MailEntry& e : box) {
        if (!audits_.empty()) {
          audits_[src].transfer_in_flight(e.pkt.uid, audits_[dst]);
        }
        auto deliver = [peer = e.peer, p = e.pkt]() mutable {
          peer->receive(std::move(p));
        };
        static_assert(sim::Scheduler::Action::fits<decltype(deliver)>,
                      "mailbox delivery (pointer + Packet) must stay inline");
        sims_[dst]->schedule_at_keyed(e.at, e.seq, e.tie,
                                      e.peer->det_context(),
                                      std::move(deliver));
      }
      box.clear();
    }
  }
}

void ShardedEngine::compute_horizon() {
  sim::Time m = sim::Time::max();
  for (auto& sim : sims_) m = std::min(m, sim->next_event_time());
  if (worker_failed_.load(std::memory_order_relaxed) || m > end_) {
    if (!worker_failed_.load(std::memory_order_relaxed)) {
      // Mirror run_until leaving every clock at the end of the run, so
      // utilization windows and the audit's busy-time bound line up.
      for (auto& sim : sims_) {
        if (sim->now() < end_) sim->advance_clock_to(end_);
      }
    }
    done_ = true;
    return;
  }
  // Events exactly at `end` must execute (run_before is strict), hence the
  // one-nanosecond overshoot; m <= end keeps the sum overflow-free.
  const sim::Time limit = end_ + sim::Time::nanoseconds(1);
  horizon_ = plan_.lookahead < limit - m ? m + plan_.lookahead : limit;
}

void ShardedEngine::round_end() noexcept {
  // std::barrier requires a noexcept completion; any failure here (audit
  // transfer violation surfacing as a throw, allocation) ends the run and
  // is rethrown on the coordinating thread.
  try {
    drain_mail();
    compute_horizon();
  } catch (...) {
    round_error_ = std::current_exception();
    done_ = true;
  }
}

ExperimentResult ShardedEngine::run() {
  if (exp_->ran_) throw std::logic_error("ShardedEngine may only run once");
  exp_->ran_ = true;
  const std::size_t n = plan_.shards;

  compute_horizon();
  if (!done_) {
    if (n == 1) {
      // Degenerate partition: the barrier round collapses to windowed
      // serial execution on the caller's thread.
      while (!done_) {
        sims_[0]->run_before(horizon_);
        drain_mail();
        compute_horizon();
      }
    } else {
      std::barrier sync(static_cast<std::ptrdiff_t>(n),
                        [this]() noexcept { round_end(); });
      std::vector<std::thread> workers;
      workers.reserve(n);
      for (std::size_t s = 0; s < n; ++s) {
        workers.emplace_back([this, s, &sync] {
          // done_ and horizon_ are written only by the barrier completion,
          // whose end synchronizes-with every arrive_and_wait return.
          while (!done_) {
            try {
              sims_[s]->run_before(horizon_);
            } catch (...) {
              if (!worker_failed_.exchange(true)) {
                worker_error_ = std::current_exception();
              }
            }
            sync.arrive_and_wait();
          }
        });
      }
      for (std::thread& w : workers) w.join();
      if (round_error_) std::rethrow_exception(round_error_);
      if (worker_error_) std::rethrow_exception(worker_error_);
    }
  }

  // Merge per-monitor drop buffers into the shared trace: stable sort by
  // time keeps (monitor order, per-port order) on ties, a pure function of
  // the merged event sequence.
  if (!drop_bufs_.empty()) {
    std::size_t total = 0;
    for (const auto& buf : drop_bufs_) total += buf.size();
    std::vector<DropEvent> merged;
    merged.reserve(total);
    for (auto& buf : drop_bufs_) {
      std::move(buf.begin(), buf.end(), std::back_inserter(merged));
    }
    std::stable_sort(
        merged.begin(), merged.end(),
        [](const DropEvent& a, const DropEvent& b) { return a.time < b.time; });
    exp_->drops_ = std::move(merged);
  }

  ExperimentResult r =
      exp_->assemble_result(warmup_, end_, delivered_at_warmup_);
  // Serial runs create a connection's RTT series lazily at its first
  // accepted sample; drop the pre-created empty ones so the assembled
  // result is byte-identical.
  for (net::ConnId id : instrumented_conns_) {
    auto it = r.rtt_samples.find(id);
    if (it != r.rtt_samples.end() && it->second.empty()) {
      r.rtt_samples.erase(it);
    }
  }

  if (audit_mode_ == AuditMode::kFull) {
    Audit& merged = audits_.front();
    for (std::size_t s = 1; s < audits_.size(); ++s) {
      merged.absorb(std::move(audits_[s]));
    }
    AuditReport report = merged.finalize(exp_->net_, end_);
    if (!report.ok) {
      throw std::logic_error("conservation audit failed:\n" +
                             report.to_string());
    }
    r.audit = report.totals;
  } else if (audit_mode_ == AuditMode::kCounters) {
    AuditReport report = audit_counters_check(exp_->net_);
    if (!report.ok) {
      throw std::logic_error("conservation counter check failed:\n" +
                             report.to_string());
    }
    r.audit = report.totals;
  }
  return r;
}

std::uint64_t ShardedEngine::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& sim : sims_) total += sim->events_executed();
  return total;
}

}  // namespace tcpdyn::core
