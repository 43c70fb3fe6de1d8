// tcpdyn_run — run any configuration of the study from the command line.
//
//   tcpdyn_run --scenario fig4                       # a paper figure
//   tcpdyn_run --scenario twoway --tau 0.1 --buffer 40 --cc reno
//   tcpdyn_run --scenario oneway --conns 5 --duration 600 --chart
//   tcpdyn_run --scenario fixed --w1 30 --w2 25 --tau 1
//   tcpdyn_run --scenario chain --conns 50 --csv-dir out/
//   tcpdyn_run topo --file examples/topos/dumbbell.topo
//   tcpdyn_run --scenario parking-lot --long-flows 128 --cross-per-hop 96
//
// The scenario may be given positionally (tcpdyn_run topo ...) or via
// --scenario. Run with --help for the full flag list.
#include <chrono>
#include <filesystem>
#include <iostream>

#include "core/cc_matrix.h"
#include "core/csv_export.h"
#include "core/report.h"
#include "core/scenarios.h"
#include "core/shard_engine.h"
#include "core/topo_scenarios.h"
#include "core/topology.h"
#include "net/queue.h"
#include "sim/timer_wheel.h"
#include "tcp/congestion_control.h"
#include "util/flags.h"

using namespace tcpdyn;

namespace {

void declare_flags(util::Flags& flags) {
  flags
      .flag("scenario", "NAME",
            "fig2|fig3|fig4|fig6|fig8|fig9|oneway|twoway|fixed|chain|ring|"
            "parking-lot|waxman|chaos|red-wave|datacenter|topo|cc-matrix "
            "(also accepted positionally)",
            "fig4")
      .flag("file", "PATH", "topology file (scenario topo)", "")
      .flag("faults", "PATH",
            "fault-schedule file applied on top of the topology "
            "(scenario topo; see core/fault_plan.h for the grammar)", "")
      .flag("loss", "PROB", "chaos reverse-trunk burst-loss peak", 0.5)
      .flag("outage", "SEC", "chaos trunk-flap duration", 2.0)
      .flag("flap-period", "SEC", "chaos gap between trunk flaps", 60.0)
      .flag("flaps", "N", "chaos trunk-flap count", 3)
      .flag("discard-on-down", "chaos down links discard instead of drain",
            false)
      .flag("tau", "SEC", "bottleneck propagation delay", 0.01)
      .flag("buffer", "PKTS", "bottleneck buffer", 20)
      .flag("conns", "N", "connection / flow count", 2)
      .flag("cc", "LIST",
            "comma-separated congestion controllers (" +
                tcp::cc_registry().names_joined() +
                "); oneway/twoway cycle flows through the list, cc-matrix "
                "uses it as the algorithm set",
            "")
      .flag("delayed-ack", "receiver delayed-ACK option", false)
      .flag("pacing", "SEC", "pacing interval (0 = nonpaced)", 0.0)
      .flag("qdisc", "NAME",
            "bottleneck queue discipline (" +
                net::qdisc_registry().names_joined() +
                "); oneway/twoway/red-wave",
            "")
      .flag("ecn", "flows negotiate ECN (oneway/twoway/red-wave)", false)
      .flag("w1", "PKTS", "fixed-window size, forward", 30)
      .flag("w2", "PKTS", "fixed-window size, reverse", 25)
      .flag("seed", "N", "seed for randomized scenarios", 7)
      .flag("hops", "N", "parking-lot trunk links", 4)
      .flag("long-flows", "N", "parking-lot end-to-end flows", 128)
      .flag("cross-per-hop", "N", "parking-lot cross flows per trunk", 96)
      .flag("switches", "N", "ring/waxman switch count", 0)
      .flag("senders", "N", "datacenter fan-in width (sender hosts)", 64)
      .flag("flows-per-sender", "N", "datacenter sessions per sender", 4)
      .flag("arrival-rate", "R",
            "datacenter per-sender Poisson session arrivals/sec "
            "(0 = closed population)",
            0.0)
      .flag("session", "SEC",
            "datacenter per-session transmit time (0 = forever)", 0.0)
      .flag("warmup", "SEC", "override scenario warmup", "")
      .flag("duration", "SEC", "override measured duration", "")
      .flag("chart", "print ASCII queue charts", false)
      .flag("csv-dir", "DIR", "export raw traces as CSV here", "")
      .flag("audit", "off|counters|full", "conservation-check strength", "")
      .flag("timer", "slab|wheel",
            "scheduler timer backend (identical results; wheel is O(1) "
            "arm/cancel for large flow counts)",
            "slab")
      .flag("shards", "N",
            "partition the run across N shard simulators with conservative "
            "lookahead (identical results at any N)",
            1)
      .flag("trace", "PATH", "write a JSONL event trace here", "");
}

int fail(const util::Flags& flags, const std::string& msg) {
  std::cerr << "tcpdyn_run: " << msg << '\n'
            << flags.usage("tcpdyn_run [scenario]");
  return 2;
}

// Parses "--cc tahoe,cubic,vegas". The registry throws on an unknown name
// with a did-you-mean suggestion and the valid list.
std::vector<tcp::CcAlgorithm> parse_cc_list(const std::string& list) {
  std::vector<tcp::CcAlgorithm> out;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    const std::string name = list.substr(pos, comma - pos);
    if (!name.empty()) {
      out.push_back(tcp::cc_registry().require(name, "congestion controller"));
    }
    pos = comma + 1;
  }
  return out;
}

// Parses --qdisc into a discipline config; drop-tail when the flag is
// unset. The registry throws on an unknown name.
net::QdiscConfig parse_qdisc_flag(const util::Flags& flags) {
  net::QdiscConfig config;
  const std::string name = flags.get("qdisc");
  if (name.empty()) return config;
  const net::QdiscChoice& choice =
      net::qdisc_registry().require(name, "queue discipline");
  config.kind = choice.kind;
  config.red.ecn = choice.ecn;
  return config;
}

core::TopoSpec custom_dumbbell(const util::Flags& flags, bool two_way) {
  core::DumbbellParams p;
  p.tau = sim::Time::seconds(flags.get_double("tau"));
  const auto buffer = static_cast<std::size_t>(flags.get_int("buffer"));
  p.buffer_fwd = net::QueueLimit::of(buffer);
  p.buffer_rev = net::QueueLimit::of(buffer);
  p.bottleneck_qdisc = parse_qdisc_flag(flags);

  core::TopoSpec spec;
  spec.name = two_way ? "twoway" : "oneway";
  spec.topo = core::dumbbell_topology(p);
  spec.epoch_gap_sec = p.tau >= sim::Time::seconds(0.5) ? 8.0 : 2.0;
  const auto n = static_cast<std::size_t>(flags.get_int("conns"));
  // --cc may mix algorithms across the flows.
  const std::vector<tcp::CcAlgorithm> cc_list = parse_cc_list(flags.get("cc"));
  for (std::size_t i = 0; i < n; ++i) {
    core::ConnSpec c = core::dumbbell_flow(two_way ? i < (n + 1) / 2 : true);
    c.kind = cc_list.empty() ? tcp::CcAlgorithm::kTahoe
                             : cc_list[i % cc_list.size()];
    c.delayed_ack = flags.get_bool("delayed-ack");
    c.ecn = flags.get_bool("ecn");
    c.pacing_interval = sim::Time::seconds(flags.get_double("pacing"));
    c.start_time = sim::Time::seconds(0.37 * static_cast<double>(i));
    spec.traffic.add(std::move(c));
  }
  return spec;
}

// Builds the TopoSpec behind `which`; the serial and sharded paths run the
// exact same spec.
core::TopoSpec build_spec(const std::string& which, const util::Flags& flags) {
  const auto size = [&](const std::string& name) {
    return static_cast<std::size_t>(flags.get_int(name));
  };
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  if (which == "ring") {
    core::RingParams p;
    if (flags.has("switches")) p.switches = size("switches");
    if (flags.has("conns")) p.flows = size("conns");
    p.seed = seed;
    return core::ring_spec(p);
  }
  if (which == "parking-lot") {
    core::ParkingLotParams p;
    p.hops = size("hops");
    p.long_flows = size("long-flows");
    p.cross_per_hop = size("cross-per-hop");
    p.seed = seed;
    return core::parking_lot_spec(p);
  }
  if (which == "waxman") {
    core::WaxmanParams p;
    if (flags.has("switches")) p.switches = size("switches");
    if (flags.has("conns")) p.flows = size("conns");
    p.seed = seed;
    return core::waxman_spec(p);
  }
  if (which == "chaos") {
    core::ChaosParams p;
    if (flags.has("tau")) p.tau_sec = flags.get_double("tau");
    if (flags.has("buffer")) p.buffer = size("buffer");
    if (flags.has("conns")) p.flows = size("conns");
    p.ge_loss_bad = flags.get_double("loss");
    p.outage_sec = flags.get_double("outage");
    p.flap_period_sec = flags.get_double("flap-period");
    p.flaps = size("flaps");
    p.discard_on_down = flags.get_bool("discard-on-down");
    p.cc = parse_cc_list(flags.get("cc"));
    // Flap times are anchored to the warmup boundary, so the overrides must
    // reach the params (the post-build scenario override alone would leave
    // the flaps scheduled past the end of a shortened run).
    if (flags.has("warmup")) p.warmup_sec = flags.get_double("warmup");
    if (flags.has("duration")) p.duration_sec = flags.get_double("duration");
    p.seed = seed;
    return core::chaos_spec(p);
  }
  if (which == "red-wave") {
    core::RedWaveParams p;
    if (flags.has("hops")) p.hops = size("hops");
    if (flags.has("tau")) p.tau_sec = flags.get_double("tau");
    if (flags.has("buffer")) p.buffer = size("buffer");
    if (flags.has("conns")) p.flows = size("conns");
    p.qdisc = parse_qdisc_flag(flags);
    p.ecn = flags.get_bool("ecn");
    const std::vector<tcp::CcAlgorithm> cc = parse_cc_list(flags.get("cc"));
    if (!cc.empty()) p.cc = cc.front();
    if (flags.has("warmup")) p.warmup_sec = flags.get_double("warmup");
    if (flags.has("duration")) p.duration_sec = flags.get_double("duration");
    p.seed = seed;
    return core::red_wave_spec(p);
  }
  if (which == "datacenter" || which == "incast") {
    core::IncastParams p;
    p.senders = size("senders");
    p.flows_per_sender = size("flows-per-sender");
    if (flags.has("buffer")) p.buffer = size("buffer");
    p.arrival_rate = flags.get_double("arrival-rate");
    p.session_sec = flags.get_double("session");
    const std::vector<tcp::CcAlgorithm> cc = parse_cc_list(flags.get("cc"));
    if (!cc.empty()) p.cc = cc.front();
    if (flags.has("warmup")) p.warmup_sec = flags.get_double("warmup");
    if (flags.has("duration")) p.duration_sec = flags.get_double("duration");
    p.seed = seed;
    return core::incast_spec(p);
  }
  if (which == "topo") {
    const std::string file = flags.get("file");
    if (file.empty()) {
      throw std::invalid_argument("scenario topo requires --file");
    }
    core::TopoSpec spec = core::load_topology_file(file);
    if (flags.has("faults")) {
      // A standalone fault schedule composes with (and after) any fault
      // stanzas the .topo file itself declares.
      core::FaultPlan extra = core::load_fault_file(flags.get("faults"));
      if (extra.seed() != spec.faults.seed()) {
        spec.faults.set_seed(extra.seed());
      }
      for (const auto& o : extra.outages()) spec.faults.add_outage(o);
      for (const auto& c : extra.rate_changes()) spec.faults.add_rate_change(c);
      for (const auto& c : extra.delay_changes()) {
        spec.faults.add_delay_change(c);
      }
      for (const auto& i : extra.impairments()) spec.faults.add_impairment(i);
    }
    return spec;
  }
  if (which == "fig2") {
    return core::fig2_one_way(flags.has("conns") ? size("conns") : 3,
                              flags.has("tau") ? flags.get_double("tau") : 1.0,
                              size("buffer"));
  }
  if (which == "fig3") {
    return core::fig3_ten_connections(
        flags.has("buffer") ? size("buffer") : 30);
  }
  if (which == "fig4") {
    return core::fig4_twoway(flags.get_double("tau"), size("buffer"));
  }
  if (which == "fig6") {
    return core::fig6_twoway(flags.has("tau") ? flags.get_double("tau") : 1.0,
                             size("buffer"));
  }
  if (which == "fig8" || which == "fig9" || which == "fixed") {
    return core::fig8_fixed_window(
        flags.has("tau") ? flags.get_double("tau")
                         : (which == "fig9" ? 1.0 : 0.01),
        static_cast<std::uint32_t>(flags.get_int("w1")),
        static_cast<std::uint32_t>(flags.get_int("w2")));
  }
  if (which == "chain") {
    return core::four_switch_chain(flags.has("conns") ? size("conns") : 50,
                                   seed);
  }
  if (which == "oneway") return custom_dumbbell(flags, /*two_way=*/false);
  if (which == "twoway") return custom_dumbbell(flags, /*two_way=*/true);
  throw std::invalid_argument("unknown scenario '" + which + "'");
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  declare_flags(flags);
  try {
    flags.parse(argc, argv);
  } catch (const std::exception& e) {
    return fail(flags, e.what());
  }
  if (flags.help_requested()) {
    std::cout << flags.usage("tcpdyn_run [scenario]");
    return 0;
  }
  if (flags.positional().size() > 1) {
    return fail(flags, "at most one positional scenario argument");
  }
  const std::string which = flags.positional().empty()
                                ? flags.get("scenario")
                                : flags.positional()[0];

  // The backend must be set before any Experiment is constructed — each
  // Simulator snapshots the process default at construction.
  if (const auto backend = sim::parse_timer_backend(flags.get("timer"))) {
    sim::set_default_timer_backend(*backend);
  } else {
    return fail(flags,
                "unknown --timer '" + flags.get("timer") + "' (slab|wheel)");
  }

  if (which == "cc-matrix") {
    core::CcMatrixParams p;
    try {
      const auto algos = parse_cc_list(flags.get("cc"));
      if (!algos.empty()) p.algos = algos;
    } catch (const std::exception& e) {
      return fail(flags, e.what());
    }
    if (flags.has("tau")) p.tau_sec = flags.get_double("tau");
    if (flags.has("buffer")) {
      p.buffer = static_cast<std::size_t>(flags.get_int("buffer"));
    }
    if (flags.has("conns")) {
      p.flows_per_algo = static_cast<std::size_t>(flags.get_int("conns"));
    }
    if (flags.has("w1")) {
      p.fixed_window = static_cast<std::uint32_t>(flags.get_int("w1"));
    }
    if (flags.has("warmup")) p.warmup_sec = flags.get_double("warmup");
    if (flags.has("duration")) p.duration_sec = flags.get_double("duration");
    if (flags.has("audit")) {
      const auto mode = core::parse_audit_mode(flags.get("audit"));
      if (!mode) {
        return fail(flags, "unknown --audit mode '" + flags.get("audit") +
                               "' (off|counters|full)");
      }
      p.audit = *mode;
    }
    core::print_cc_matrix(std::cout, core::run_cc_matrix(p));
    return 0;
  }

  core::AuditMode audit_mode = core::kDefaultAuditMode;
  if (flags.has("audit")) {
    const auto mode = core::parse_audit_mode(flags.get("audit"));
    if (!mode) {
      return fail(flags, "unknown --audit mode '" + flags.get("audit") +
                             "' (off|counters|full)");
    }
    audit_mode = *mode;
  }

  // An explicit --shards routes through the sharded engine even at N=1, so
  // "--shards 4 is byte-identical to --shards 1" holds exactly; without the
  // flag the historic serial path runs.
  const auto shards = static_cast<std::size_t>(flags.get_int("shards"));
  if (flags.has("shards")) {
    if (shards < 1) return fail(flags, "--shards must be >= 1");
    if (flags.has("trace")) {
      return fail(flags,
                  "--trace is not supported with --shards "
                  "(one JSONL stream, many shard clocks)");
    }
  }
  core::TopoSpec spec;
  try {
    spec = build_spec(which, flags);
  } catch (const std::exception& e) {
    return fail(flags, e.what());
  }
  if (flags.has("warmup")) {
    spec.warmup = sim::Time::seconds(flags.get_double("warmup", 100.0));
  }
  if (flags.has("duration")) {
    spec.duration = sim::Time::seconds(flags.get_double("duration", 400.0));
  }
  const std::string& name = spec.name;
  core::ScenarioSummary s;
  if (flags.has("shards")) {
    // Sharded execution: run the TopoSpec through the conservative-lookahead
    // engine. Output is bit-identical to --shards 1 (and to the serial path
    // for runs without cross-node event-time ties).
    try {
      core::ShardedEngine engine(spec, shards, audit_mode);
      const auto wall0 = std::chrono::steady_clock::now();
      core::ExperimentResult result = engine.run();
      const double wall_sec =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall0)
              .count();
      s = core::summarize_result(std::move(result), spec.epoch_gap_sec);
      // Stderr, not stdout: the plan shape, event count, and throughput all
      // legitimately vary with the shard count, while stdout must stay
      // byte-identical across shard counts (CI compares it).
      const core::ShardPlan& plan = engine.plan();
      std::cerr << "sharded: shards=" << plan.shards
                << " cut-links=" << plan.cut_links.size()
                << " lookahead=" << plan.lookahead.sec() << " s"
                << " events=" << engine.events_executed() << " ("
                << static_cast<double>(engine.events_executed()) / wall_sec
                << " events/s)\n";
    } catch (const std::exception& e) {
      return fail(flags, e.what());
    }
  } else {
    core::Scenario scenario;
    try {
      scenario = core::make_topo_scenario(spec);
    } catch (const std::exception& e) {
      return fail(flags, e.what());
    }
    scenario.exp->set_audit_mode(audit_mode);
    if (flags.has("trace")) {
      scenario.exp->enable_trace(flags.get("trace"));
    }
    s = core::run_scenario(scenario);
  }
  core::print_summary(std::cout, name, s);

  if (name == "red-wave") {
    const core::WaveStats w = core::analyze_waves(
        s.result.ports, s.result.t_start, s.result.t_end);
    std::cout << "\ncongestion wave (" << w.hops << " hops):\n"
              << "  adjacent lag        " << w.mean_adjacent_lag_sec
              << " s (corr " << w.mean_adjacent_correlation << ")\n"
              << "  wave speed          " << w.wave_speed_hops_per_sec
              << " hops/s\n"
              << "  correlation length  " << w.correlation_length_hops
              << " hops\n"
              << "  queue amplitude     " << w.mean_amplitude
              << " packets (stddev, detrended)\n"
              << "  mean utilization    " << w.mean_utilization << '\n';
  }

  if (flags.get_bool("chart")) {
    std::cout << '\n';
    for (const auto& port : s.result.ports) {
      core::print_queue_chart(std::cout, port.queue, s.result.t_start,
                              std::min(s.result.t_end,
                                       s.result.t_start + 60.0),
                              100, 8, "queue " + port.name + " (packets)");
    }
  }
  if (flags.has("csv-dir")) {
    const std::string dir = flags.get("csv-dir");
    std::filesystem::create_directories(dir);
    const auto written = core::export_csv(s.result, dir, name);
    std::cout << "\nwrote " << written.size() << " CSV files to " << dir
              << '\n';
  }
  return 0;
}
