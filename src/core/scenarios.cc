#include "core/scenarios.h"

#include "util/rng.h"

namespace tcpdyn::core {

namespace {

DumbbellParams paper_dumbbell(double tau_sec, net::QueueLimit buffer) {
  DumbbellParams p;
  p.tau = sim::Time::seconds(tau_sec);
  p.buffer_fwd = buffer;
  p.buffer_rev = buffer;
  return p;
}

std::vector<ConnSpec> one_each_way() {
  return {dumbbell_flow(/*forward=*/true), dumbbell_flow(/*forward=*/false)};
}

// Staggered start times break the perfect symmetry of simultaneous starts
// (the paper starts connections at random times): connection i starts at
// the i-th uniform draw from [0, 5) s of one Rng(42) stream, so runs stay
// reproducible.
TopoSpec staggered_spec(std::string name, Topology topo,
                        std::vector<ConnSpec> conns, double warmup_sec,
                        double duration_sec, double epoch_gap) {
  TopoSpec spec;
  spec.name = std::move(name);
  spec.topo = std::move(topo);
  spec.warmup = sim::Time::seconds(warmup_sec);
  spec.duration = sim::Time::seconds(duration_sec);
  spec.epoch_gap_sec = epoch_gap;
  util::Rng rng(42);
  for (ConnSpec& c : conns) {
    c.start_time = sim::Time::seconds(rng.uniform(0.0, 5.0));
    spec.traffic.add(std::move(c));
  }
  return spec;
}

// Figs. 8-9 and the §4.3.3 conjecture: fixed windows w1 (forward) and w2
// (reverse) over infinite buffers.
TopoSpec fixed_window_pair(std::string name, double tau_sec, std::uint32_t w1,
                           std::uint32_t w2, std::uint32_t ack_bytes) {
  std::vector<ConnSpec> cs = one_each_way();
  cs[0].fixed_window = w1;
  cs[1].fixed_window = w2;
  for (ConnSpec& c : cs) {
    c.kind = tcp::CcAlgorithm::kFixedWindow;
    c.ack_bytes = ack_bytes;
  }
  return staggered_spec(
      std::move(name),
      dumbbell_topology(paper_dumbbell(tau_sec, net::QueueLimit::infinite())),
      std::move(cs), 60.0, 120.0, /*epoch_gap=*/2.0);
}

}  // namespace

Scenario make_topo_scenario(const TopoSpec& spec) {
  Scenario s;
  s.name = spec.name;
  s.exp = std::make_unique<Experiment>();
  s.warmup = spec.warmup;
  s.duration = spec.duration;
  s.epoch_gap_sec = spec.epoch_gap_sec;
  s.exp->set_monitor_mode(spec.monitor_mode);
  s.exp->set_flow_instrumentation(spec.per_flow_traces);
  const CompiledTopology c = spec.topo.compile(*s.exp);
  spec.traffic.instantiate(*s.exp, c);
  // Faults last: impairments attach now; outages and parameter changes
  // become scheduler events that fire inside Experiment::run.
  spec.faults.apply(*s.exp, c);
  return s;
}

ScenarioSummary run_scenario(Scenario& scenario) {
  return summarize_result(
      scenario.exp->run(scenario.warmup, scenario.duration),
      scenario.epoch_gap_sec);
}

ScenarioSummary summarize_result(ExperimentResult result,
                                 double epoch_gap_sec) {
  ScenarioSummary s;
  s.result = std::move(result);
  const ExperimentResult& r = s.result;
  const double from = r.t_start;
  const double to = r.t_end;

  if (!r.ports.empty()) {
    s.util_fwd = r.ports[0].utilization;
    s.clustering_fwd = clustering(r.ports[0], from, to);
    s.fluct_fwd = rapid_fluctuations(r.ports[0].queue, from, to,
                                     r.data_tx_time);
    s.period_fwd = oscillation_period(r.ports[0].queue, from, to);
  }
  if (r.ports.size() > 1) {
    s.util_rev = r.ports[1].utilization;
    s.clustering_rev = clustering(r.ports[1], from, to);
    s.fluct_rev = rapid_fluctuations(r.ports[1].queue, from, to,
                                     r.data_tx_time);
    s.queue_sync = classify_sync(r.ports[0].queue, r.ports[1].queue, from, to);
  }
  if (r.cwnd.size() >= 2) {
    auto it = r.cwnd.begin();
    const util::TimeSeries& a = it->second;
    const util::TimeSeries& b = std::next(it)->second;
    s.cwnd_sync = classify_sync(a, b, from, to, /*dt=*/0.25);
  }
  s.epochs = analyze_epochs(r.drops, from, to, epoch_gap_sec);
  s.flows = summarize_flows(r);
  for (const auto& [conn, times] : r.ack_arrivals) {
    s.ack[conn] = ack_compression(times, from, to, r.data_tx_time);
  }
  return s;
}

TopoSpec fig2_one_way(std::size_t conns, double tau_sec, std::size_t buffer) {
  // All forward, all Tahoe.
  std::vector<ConnSpec> cs(conns, dumbbell_flow(/*forward=*/true));
  const bool long_cycle = tau_sec >= 0.5;
  return staggered_spec(
      "fig2-one-way",
      dumbbell_topology(paper_dumbbell(tau_sec, net::QueueLimit::of(buffer))),
      std::move(cs), long_cycle ? 150.0 : 100.0, long_cycle ? 600.0 : 400.0,
      /*epoch_gap=*/long_cycle ? 8.0 : 2.0);
}

TopoSpec fig3_ten_connections(std::size_t buffer, std::size_t per_direction) {
  std::vector<ConnSpec> cs;
  for (std::size_t i = 0; i < 2 * per_direction; ++i) {
    cs.push_back(dumbbell_flow(/*forward=*/i < per_direction));
  }
  return staggered_spec(
      "fig3-ten-connections",
      dumbbell_topology(paper_dumbbell(0.01, net::QueueLimit::of(buffer))),
      std::move(cs), 100.0, 400.0, /*epoch_gap=*/2.0);
}

TopoSpec fig4_twoway(double tau_sec, std::size_t buffer) {
  return staggered_spec(
      "fig4-5-twoway-small-pipe",
      dumbbell_topology(paper_dumbbell(tau_sec, net::QueueLimit::of(buffer))),
      one_each_way(), 100.0, 400.0, /*epoch_gap=*/2.0);
}

TopoSpec fig6_twoway(double tau_sec, std::size_t buffer) {
  return staggered_spec(
      "fig6-7-twoway-large-pipe",
      dumbbell_topology(paper_dumbbell(tau_sec, net::QueueLimit::of(buffer))),
      one_each_way(), 150.0, 600.0, /*epoch_gap=*/8.0);
}

TopoSpec fig8_fixed_window(double tau_sec, std::uint32_t w1,
                           std::uint32_t w2) {
  return fixed_window_pair(
      tau_sec < 0.5 ? "fig8-fixed-window" : "fig9-fixed-window", tau_sec, w1,
      w2, /*ack_bytes=*/50);
}

TopoSpec zero_ack_fixed(std::uint32_t w1, std::uint32_t w2, double tau_sec) {
  return fixed_window_pair("zero-ack-fixed", tau_sec, w1, w2,
                           /*ack_bytes=*/0);
}

TopoSpec delayed_ack_twoway(std::uint32_t maxwnd, double tau_sec,
                            std::size_t buffer) {
  std::vector<ConnSpec> cs = one_each_way();
  for (ConnSpec& c : cs) {
    c.delayed_ack = true;
    c.maxwnd = maxwnd;
  }
  return staggered_spec(
      "delayed-ack-twoway",
      dumbbell_topology(paper_dumbbell(tau_sec, net::QueueLimit::of(buffer))),
      std::move(cs), 100.0, 400.0, /*epoch_gap=*/2.0);
}

TopoSpec four_switch_chain(std::size_t connections, std::uint64_t seed) {
  const ChainParams p;
  TopoSpec spec;
  spec.name = "four-switch-chain";
  spec.topo = chain_topology(p);
  spec.warmup = sim::Time::seconds(100.0);
  spec.duration = sim::Time::seconds(300.0);
  // One shared RNG stream, drawn per flow in the historic order (endpoint,
  // direction, start jitter within [0, 1) s), handed to the TrafficMatrix
  // as fully resolved single-flow specs so instantiation adds no draws.
  util::Rng rng(seed);
  const std::size_t n = p.switches;
  for (std::size_t i = 0; i < connections; ++i) {
    // Path length cycles 1, 2, ..., n-1 so lengths are equally represented
    // ("roughly equally split between 1, 2, and 3 hops").
    const std::size_t hops = 1 + i % (n - 1);
    const std::size_t src = rng.next_below(n - hops);
    const std::size_t dst = src + hops;
    const bool forward = rng.next_double() < 0.5;
    ConnSpec c;
    c.src = "H" + std::to_string((forward ? src : dst) + 1);
    c.dst = "H" + std::to_string((forward ? dst : src) + 1);
    c.start_time = sim::Time::seconds(rng.uniform(0.0, 1.0));
    spec.traffic.add(std::move(c));
  }
  return spec;
}

TopoSpec paced_twoway(double tau_sec, std::size_t buffer) {
  const DumbbellParams p =
      paper_dumbbell(tau_sec, net::QueueLimit::of(buffer));
  // Pace at the bottleneck data rate: one 500 B packet per 80 ms.
  const sim::Time interval = sim::Time::transmission(500, p.bottleneck_bps);
  std::vector<ConnSpec> cs = one_each_way();
  for (ConnSpec& c : cs) c.pacing_interval = interval;
  return staggered_spec("paced-twoway", dumbbell_topology(p), std::move(cs),
                        100.0, 400.0, /*epoch_gap=*/2.0);
}

TopoSpec reno_twoway(double tau_sec, std::size_t buffer) {
  std::vector<ConnSpec> cs = one_each_way();
  for (ConnSpec& c : cs) c.kind = tcp::CcAlgorithm::kReno;
  return staggered_spec(
      "reno-twoway",
      dumbbell_topology(paper_dumbbell(tau_sec, net::QueueLimit::of(buffer))),
      std::move(cs), 100.0, 400.0, /*epoch_gap=*/2.0);
}

TopoSpec random_drop_twoway(double tau_sec, std::size_t buffer) {
  DumbbellParams p = paper_dumbbell(tau_sec, net::QueueLimit::of(buffer));
  p.bottleneck_qdisc.kind = net::QdiscKind::kRandomDrop;
  return staggered_spec("random-drop-twoway", dumbbell_topology(p),
                        one_each_way(), 100.0, 400.0, /*epoch_gap=*/2.0);
}

TopoSpec rtt_heterogeneity(std::size_t conns, double spread_sec,
                           double tau_sec, std::size_t buffer) {
  // Access delays spread evenly over [0.1 ms, 0.1 ms + spread].
  std::vector<sim::Time> delays;
  std::vector<ConnSpec> cs;
  for (std::size_t i = 0; i < conns; ++i) {
    const double extra =
        conns > 1 ? spread_sec * static_cast<double>(i) /
                        static_cast<double>(conns - 1)
                  : 0.0;
    delays.push_back(sim::Time::seconds(1e-4 + extra));
    ConnSpec c;
    c.src = "A" + std::to_string(i + 1);
    c.dst = "B" + std::to_string(i + 1);
    cs.push_back(std::move(c));
  }
  return staggered_spec(
      "rtt-heterogeneity",
      multihost_dumbbell_topology(
          paper_dumbbell(tau_sec, net::QueueLimit::of(buffer)), delays),
      std::move(cs), 100.0, 300.0, /*epoch_gap=*/2.0);
}

TopoSpec increment_ablation(bool modified, double tau_sec,
                            std::size_t buffer) {
  // The Fig. 2 configuration.
  std::vector<ConnSpec> cs(3, dumbbell_flow(/*forward=*/true));
  for (ConnSpec& c : cs) c.tahoe.modified_ca_increment = modified;
  return staggered_spec(
      modified ? "increment-modified" : "increment-original",
      dumbbell_topology(paper_dumbbell(tau_sec, net::QueueLimit::of(buffer))),
      std::move(cs), 150.0, 600.0, /*epoch_gap=*/8.0);
}

}  // namespace tcpdyn::core
