// The benchmark's workloads and the closed-loop operation that runs one of
// them: build the experiments (setup), run their event loops (run), and
// summarize them (analyze), then check what came out. README.md explains
// why each workload exists and which layer it stresses.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "bench.h"
#include "core/dumbbell.h"
#include "core/scenarios.h"
#include "core/shard_engine.h"
#include "core/topo_scenarios.h"
#include "util/rng.h"
#include "util/stats.h"

namespace perfbench {

namespace core = tcpdyn::core;
namespace net = tcpdyn::net;
namespace sim = tcpdyn::sim;
namespace util = tcpdyn::util;

namespace {

// ------------------------------------------------------------ workloads

// Figs. 4-5 (tau = 10 ms, out-of-phase) and Figs. 6-7 (tau = 1 s,
// in-phase): the paper's two-way Tahoe dumbbell with 20-packet buffers,
// built exactly as core::fig4_twoway / fig6_twoway build it, so the default
// seed reproduces the repository's figures. The seed draws the two
// connections' start times. The measurement windows are longer than the
// figures' so the summary's O(n^2) period search dominates, as it does in
// long sweeps.
core::TopoSpec paper_spec(double tau_sec, double warmup_sec,
                          double duration_sec, double epoch_gap,
                          std::uint64_t seed) {
  core::DumbbellParams p;
  p.tau = sim::Time::seconds(tau_sec);
  p.buffer_fwd = net::QueueLimit::of(20);
  p.buffer_rev = net::QueueLimit::of(20);
  core::TopoSpec spec;
  spec.name = "paper";
  spec.topo = core::dumbbell_topology(p);
  util::Rng rng(seed);
  for (const bool forward : {true, false}) {
    core::ConnSpec c;
    c.src = forward ? "H1" : "H2";
    c.dst = forward ? "H2" : "H1";
    c.start_time = sim::Time::seconds(rng.uniform(0.0, 5.0));
    spec.traffic.add(c);
  }
  spec.warmup = sim::Time::seconds(warmup_sec);
  spec.duration = sim::Time::seconds(duration_sec);
  spec.epoch_gap_sec = epoch_gap;
  return spec;
}

std::vector<PartSpec> paper_twoway(std::uint64_t seed, Scale scale) {
  const bool full = scale == Scale::kFull;
  std::vector<PartSpec> parts;
  parts.push_back({paper_spec(0.01, 100.0, full ? 2000.0 : 100.0, 2.0, seed),
                   core::SyncMode::kOutOfPhase});
  parts.push_back({paper_spec(1.0, 150.0, full ? 2000.0 : 200.0, 8.0, seed),
                   core::SyncMode::kInPhase});
  return parts;
}

// 200-to-1 datacenter incast with open-loop Poisson session churn on the
// timer wheel: flow instantiation and per-flow state dominate setup and
// memory; the run is wheel arm/cancel churn into one heavy-loss queue. Its
// 100 us access links make it the sharded probe's adversarial case: a short
// lookahead, so many barrier rounds.
std::vector<PartSpec> incast_churn(std::uint64_t seed, Scale scale) {
  const bool full = scale == Scale::kFull;
  core::IncastParams p;
  p.senders = full ? 200 : 20;
  p.flows_per_sender = full ? 1000 : 20;
  p.arrival_rate = 10.0;
  p.session_sec = 0.05;
  p.seed = seed;
  p.warmup_sec = 5.0;
  p.duration_sec = full ? 95.0 : 5.0;
  p.streaming = true;
  p.per_flow_traces = false;
  std::vector<PartSpec> parts;
  parts.push_back({core::incast_spec(p), std::nullopt});
  return parts;
}

// ------------------------------------------------------ recorded values

struct Recorded {
  const char* workload;
  Scale scale;
  std::size_t part;
  std::size_t shards;  // 1 = the serial run, else the sharded probe
  PartRecord rec;
};

// Exact outcomes at the default seed. A legitimate behaviour change
// re-records them with --print-expected and says so in its change log.
const std::vector<Recorded> kRecorded = {
#include "expected.inc"
};

const PartRecord* recorded(const Workload& w, Scale scale, std::size_t part,
                           std::size_t shards) {
  for (const Recorded& r : kRecorded) {
    if (r.scale == scale && r.part == part && r.shards == shards &&
        std::strcmp(r.workload, w.name) == 0) {
      return &r.rec;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------- digest

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const core::SyncResult& s) {
    add(static_cast<std::uint64_t>(s.mode));
    add(s.correlation);
    add(static_cast<std::uint64_t>(s.degenerate));
  }
  void add(const core::ClusteringStats& c) {
    add(static_cast<std::uint64_t>(c.departures));
    add(c.same_successor_fraction);
    add(c.mean_run_length);
    add(static_cast<std::uint64_t>(c.max_run_length));
  }
  void add(const core::FluctuationStats& f) {
    add(f.mean_range);
    add(f.max_range);
    add(f.max_burst_rise);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// Everything deterministic an experiment produces: event count, the audit
// ledger, every monitored port, every flow's counters, and the summary.
std::uint64_t digest(const core::ScenarioSummary& s, std::uint64_t events) {
  Fnv f;
  const core::ExperimentResult& r = s.result;
  f.add(events);
  const core::AuditTotals& a = r.audit;
  for (const std::uint64_t v :
       {a.created, a.delivered, a.dropped, a.in_queue, a.in_flight,
        a.bytes_created, a.bytes_delivered, a.bytes_dropped,
        a.bytes_in_queue, a.drops_queue, a.drops_down, a.drops_fault}) {
    f.add(v);
  }
  for (const core::PortTrace& p : r.ports) {
    const net::QueueCounters& c = p.counters;
    for (const std::uint64_t v :
         {c.arrivals, c.departures, c.drops, c.data_drops, c.ack_drops,
          c.bytes_arrived, c.bytes_departed, c.bytes_dropped,
          static_cast<std::uint64_t>(c.max_length),
          static_cast<std::uint64_t>(p.queue.size()),
          static_cast<std::uint64_t>(p.departures.size()),
          static_cast<std::uint64_t>(p.queue_summary.count)}) {
      f.add(v);
    }
    f.add(p.utilization);
    f.add(p.queue_summary.mean);
  }
  f.add(static_cast<std::uint64_t>(r.drops.size()));
  for (const auto& [id, c] : r.senders) {
    f.add(static_cast<std::uint64_t>(id));
    for (const std::uint64_t v : {c.data_sent, c.retransmits, c.acks_received,
                                  c.dup_ack_losses, c.timeout_losses}) {
      f.add(v);
    }
  }
  for (const auto& [id, n] : r.delivered) f.add(n);
  f.add(s.util_fwd);
  f.add(s.util_rev);
  f.add(s.queue_sync);
  f.add(s.cwnd_sync);
  f.add(static_cast<std::uint64_t>(s.epochs.epochs.size()));
  for (const double v :
       {s.epochs.mean_drops_per_epoch, s.epochs.mean_interval,
        s.epochs.multi_loser_fraction, s.epochs.single_loser_fraction,
        s.epochs.loser_alternation_fraction, s.epochs.data_drop_fraction}) {
    f.add(v);
  }
  for (const auto& [id, ack] : s.ack) {
    f.add(static_cast<std::uint64_t>(ack.gaps));
    for (const double v : {ack.min_gap, ack.p10_gap, ack.median_gap,
                           ack.compressed_fraction}) {
      f.add(v);
    }
  }
  f.add(s.clustering_fwd);
  f.add(s.clustering_rev);
  f.add(s.fluct_fwd);
  f.add(s.fluct_rev);
  f.add(s.period_fwd.value_or(-1.0));
  f.add(static_cast<std::uint64_t>(s.flows.flows));
  for (const double v : {s.flows.goodput_min, s.flows.goodput_mean,
                         s.flows.goodput_max, s.flows.jain}) {
    f.add(v);
  }
  return f.value();
}

// -------------------------------------------------------------- analysis

double heap_in_use() {
  const struct mallinfo2 m = mallinfo2();
  return static_cast<double>(m.uordblks + m.hblkhd);
}

// core::oscillation_period expanded into its public parts, so the traced
// run can time util::dominant_period on its own. The digest comparison
// with untraced operations proves the expansion computes the same value.
std::optional<double> traced_period(const util::TimeSeries& series,
                                    double from, double to, Tracer& t,
                                    Counts& c) {
  constexpr double kDt = 0.1;  // oscillation_period's default grid
  Scope span(t, "core.analysis.oscillation_period");
  const std::vector<double> samples =
      util::detrend(series.resample(from, to, kDt));
  c.period_samples += samples.size();
  std::optional<std::size_t> lag;
  {
    Scope inner(t, "util.dominant_period");
    lag = util::dominant_period(samples, /*min_lag=*/2);
  }
  if (!lag) return std::nullopt;
  return static_cast<double>(*lag) * kDt;
}

// core::summarize_result with a span around each analysis call, in the
// same order and with the same arguments.
core::ScenarioSummary summarize_traced(core::ExperimentResult result,
                                       double epoch_gap, Tracer& t,
                                       Counts& c) {
  core::ScenarioSummary s;
  s.result = std::move(result);
  const core::ExperimentResult& r = s.result;
  const double from = r.t_start;
  const double to = r.t_end;
  const auto cluster = [&](const core::PortTrace& p) {
    Scope span(t, "core.analysis.clustering");
    return core::clustering(p, from, to);
  };
  const auto fluct = [&](const core::PortTrace& p) {
    Scope span(t, "core.analysis.rapid_fluctuations");
    return core::rapid_fluctuations(p.queue, from, to, r.data_tx_time);
  };
  if (!r.ports.empty()) {
    s.util_fwd = r.ports[0].utilization;
    s.clustering_fwd = cluster(r.ports[0]);
    s.fluct_fwd = fluct(r.ports[0]);
    s.period_fwd = traced_period(r.ports[0].queue, from, to, t, c);
  }
  if (r.ports.size() > 1) {
    s.util_rev = r.ports[1].utilization;
    s.clustering_rev = cluster(r.ports[1]);
    s.fluct_rev = fluct(r.ports[1]);
    Scope span(t, "core.analysis.classify_sync");
    s.queue_sync =
        core::classify_sync(r.ports[0].queue, r.ports[1].queue, from, to);
  }
  if (r.cwnd.size() >= 2) {
    Scope span(t, "core.analysis.classify_sync");
    auto it = r.cwnd.begin();
    s.cwnd_sync = core::classify_sync(it->second, std::next(it)->second, from,
                                      to, /*dt=*/0.25);
  }
  {
    Scope span(t, "core.analysis.epochs");
    s.epochs = core::analyze_epochs(r.drops, from, to, epoch_gap);
  }
  {
    Scope span(t, "core.analysis.summarize_flows");
    s.flows = core::summarize_flows(r);
  }
  Scope span(t, "core.analysis.ack_compression");
  for (const auto& [conn, times] : r.ack_arrivals) {
    s.ack[conn] = core::ack_compression(times, from, to, r.data_tx_time);
  }
  return s;
}

// ------------------------------------------------------------- operation

// One experiment from spec to summary.
struct Built {
  PartSpec part;
  std::unique_ptr<core::Experiment> exp;
  core::ExperimentResult result;
  core::ScenarioSummary summary;
  std::uint64_t events = 0;
};

// Compiles the topology and instantiates the traffic onto a fresh
// experiment, as core::make_topo_scenario does.
void setup_part(Built& b, Tracer& t, Counts& c) {
  const core::TopoSpec& spec = b.part.spec;
  b.exp = std::make_unique<core::Experiment>();
  b.exp->set_monitor_mode(spec.monitor_mode);
  b.exp->set_flow_instrumentation(spec.per_flow_traces);
  core::CompiledTopology compiled;
  {
    Scope span(t, "core.topology.compile");
    compiled = spec.topo.compile(*b.exp);
  }
  const double heap0 = t.on() ? heap_in_use() : 0.0;
  {
    Scope span(t, "core.traffic.instantiate");
    spec.traffic.instantiate(*b.exp, compiled);
  }
  if (t.on()) c.heap_bytes_instantiated += heap_in_use() - heap0;
  spec.faults.apply(*b.exp, compiled);
}

void run_part(Built& b, Tracer& t) {
  Scope span(t, "core.experiment.run");
  b.result = b.exp->run(b.part.spec.warmup, b.part.spec.duration);
  b.events = b.exp->sim().events_executed();
}

void analyze_part(Built& b, Tracer& t, Counts& c) {
  const double gap = b.part.spec.epoch_gap_sec;
  b.summary = t.on() ? summarize_traced(std::move(b.result), gap, t, c)
                     : core::summarize_result(std::move(b.result), gap);
}

// Counts read after the run from public results and network counters.
void count_part(Built& b, Counts& c) {
  const core::ExperimentResult& r = b.summary.result;
  c.flows += b.part.spec.traffic.flow_count();
  c.events += b.events;
  net::Network& netw = b.exp->network();
  netw.for_each_port([&c](net::OutputPort& p) {
    c.port_arrivals += p.counters().arrivals;
    c.drops += p.counters().drops;
  });
  netw.for_each_host(
      [&c](net::Host& h) { c.host_delivered += h.counters().delivered; });
  for (const auto& [id, s] : r.senders) {
    c.data_sent += s.data_sent;
    c.retransmits += s.retransmits;
    c.timeouts += s.timeout_losses;
    c.acks_received += s.acks_received;
  }
  for (const core::PortTrace& p : r.ports) {
    c.queue_points += p.streaming ? p.queue_summary.count : p.queue.size();
  }
}

PartRecord record(const core::ScenarioSummary& s, std::uint64_t events) {
  const core::AuditTotals& a = s.result.audit;
  return {events, a.created, a.delivered, a.dropped, digest(s, events)};
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Which experiment a check is about, and what it is held to.
struct CheckCtx {
  const Workload& w;
  Scale scale;
  bool expected;
  bool corrupt_expected;
  std::vector<std::string>& errors;
};

void check_part(const CheckCtx& ctx, std::size_t part, std::size_t shards,
                const PartSpec& ps, const core::ScenarioSummary& summary,
                const PartRecord& rec) {
  std::string where = std::string(ctx.w.name) + "[" + std::to_string(part) +
                      "]";
  if (shards > 1) where += " at " + std::to_string(shards) + " shards";
  const core::AuditTotals& a = summary.result.audit;
  if (a.created == 0 || a.delivered == 0 ||
      a.created != a.delivered + a.dropped + a.in_queue + a.in_flight) {
    ctx.errors.push_back(where + ": audit ledger does not close");
  }
  const double end = (ps.spec.warmup + ps.spec.duration).sec();
  if (rec.events == 0 || std::abs(summary.result.t_end - end) > 1e-9) {
    ctx.errors.push_back(where + ": run did not complete");
  }
  if (!ctx.expected) return;
  if (ctx.scale == Scale::kFull && ps.queue_sync &&
      summary.queue_sync.mode != *ps.queue_sync) {
    ctx.errors.push_back(where + ": queue sync is " +
                         core::to_string(summary.queue_sync.mode) +
                         ", the paper reports " +
                         core::to_string(*ps.queue_sync));
  }
  const PartRecord* want = recorded(ctx.w, ctx.scale, part, shards);
  if (want == nullptr) {
    ctx.errors.push_back(where + ": no recorded values");
    return;
  }
  PartRecord exp_rec = *want;
  if (ctx.corrupt_expected) exp_rec.digest = ~exp_rec.digest;
  if (rec.events != exp_rec.events) {
    ctx.errors.push_back(where + ": events " + std::to_string(rec.events) +
                         " != recorded " + std::to_string(exp_rec.events));
  }
  if (rec.created != exp_rec.created || rec.delivered != exp_rec.delivered ||
      rec.dropped != exp_rec.dropped) {
    ctx.errors.push_back(where + ": audit totals differ from recorded");
  }
  if (rec.digest != exp_rec.digest) {
    ctx.errors.push_back(where + ": digest " + hex(rec.digest) +
                         " != recorded " + hex(exp_rec.digest));
  }
}

void note_plan(const core::ShardPlan& plan, Counts& c) {
  c.cut_links += plan.cut_links.size();
  const double us = plan.lookahead == sim::Time::max()
                        ? 0.0
                        : static_cast<double>(plan.lookahead.ns()) / 1e3;
  c.lookahead_us = c.lookahead_us == 0.0 ? us : std::min(c.lookahead_us, us);
}

// Traced operations only, after the phases are timed: the shard planner on
// every workload's topology, and on workloads with a sharded probe the
// whole spec through ShardedEngine, so the sharded layers are measured
// beside the serial run they compete with. The sharded run is checked like
// any experiment, against its own recorded values: deterministic-key order
// legitimately differs from the serial order on cross-node ties.
void probe(const Workload& w, const std::vector<Built>& built, Tracer& t,
           Counts& c, const CheckCtx& ctx, std::vector<PartRecord>& out) {
  Scope span(t, "probe");
  for (std::size_t i = 0; i < built.size(); ++i) {
    const core::TopoSpec& spec = built[i].part.spec;
    core::ShardPlan plan;
    {
      Scope p(t, "core.shard.plan");
      plan = core::plan_shards(spec.topo, spec.faults, kProbeShards);
    }
    note_plan(plan, c);
    if (!w.sharded_probe) continue;
    std::unique_ptr<core::ShardedEngine> engine;
    {
      Scope e(t, "core.shard.engine");
      engine = std::make_unique<core::ShardedEngine>(
          spec, kProbeShards, core::kDefaultAuditMode, w.backend);
    }
    if (engine->plan().shard_of != plan.shard_of) {
      ctx.errors.push_back(std::string(w.name) +
                           ": plan_shards is not deterministic");
    }
    core::ExperimentResult result;
    {
      Scope r(t, "core.shard.run");
      result = engine->run();
    }
    const std::uint64_t events = engine->events_executed();
    c.shard_events += events;
    const core::ScenarioSummary summary =
        core::summarize_result(std::move(result), spec.epoch_gap_sec);
    out.push_back(record(summary, events));
    check_part(ctx, i, kProbeShards, built[i].part, summary, out.back());
  }
}

// Shortest interval a repeated phase is timed over.
constexpr double kMinPhaseSec = 0.05;

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"paper_twoway", sim::TimerBackend::kSlab, false, paper_twoway},
      {"incast_churn", sim::TimerBackend::kWheel, true, incast_churn},
  };
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

OpResult run_operation(const Workload& w, std::uint64_t seed, Scale scale,
                       Tracer& t, bool expected, bool corrupt_expected) {
  OpResult out;
  const CheckCtx ctx{w, scale, expected, corrupt_expected, out.errors};
  Scope op(t, "op");
  try {
    sim::set_default_timer_backend(w.backend);
    // Untraced operations repeat a short setup or analysis until it has
    // taken kMinPhaseSec and report the mean, so sub-millisecond phases are
    // timed over a measurable interval; the event loop runs once. Traced
    // operations run every phase once, so each span covers one call.
    const bool repeat = !t.on();
    std::vector<Built> built;
    int reps = 0;
    double total = 0.0;
    do {
      built.clear();  // the previous repetition, destroyed untimed
      const double t0 = now_sec();
      Scope span(t, "setup");
      std::vector<PartSpec> parts;
      {
        Scope build(t, "core.topology.build");
        parts = w.make(seed, scale);
      }
      built.resize(parts.size());
      for (std::size_t i = 0; i < parts.size(); ++i) {
        built[i].part = std::move(parts[i]);
        setup_part(built[i], t, out.counts);
      }
      total += now_sec() - t0;
      ++reps;
    } while (repeat && total < kMinPhaseSec);
    out.setup = total / reps;

    const double t1 = now_sec();
    {
      Scope span(t, "run");
      for (Built& b : built) run_part(b, t);
    }
    out.run = now_sec() - t1;

    reps = 0;
    total = 0.0;
    for (;;) {
      const double t2 = now_sec();
      {
        Scope span(t, "analyze");
        for (Built& b : built) analyze_part(b, t, out.counts);
      }
      total += now_sec() - t2;
      ++reps;
      if (!repeat || total >= kMinPhaseSec) break;
      // summarize_result only reads the result it keeps, so handing it
      // back repeats the same analysis without copying it.
      for (Built& b : built) b.result = std::move(b.summary.result);
    }
    out.analyze = total / reps;
    out.wall = out.setup + out.run + out.analyze;

    for (std::size_t i = 0; i < built.size(); ++i) {
      count_part(built[i], out.counts);
      out.parts.push_back(record(built[i].summary, built[i].events));
      check_part(ctx, i, 1, built[i].part, built[i].summary, out.parts.back());
    }
    if (t.on()) probe(w, built, t, out.counts, ctx, out.sharded);
  } catch (const std::exception& e) {
    out.errors.push_back(std::string(w.name) + ": " + e.what());
  }
  return out;
}

void print_expected(const Workload& w, Scale scale, const OpResult& r) {
  const auto print = [&](const std::vector<PartRecord>& parts,
                         std::size_t shards) {
    for (std::size_t i = 0; i < parts.size(); ++i) {
      const PartRecord& p = parts[i];
      std::printf(
          "{\"%s\", Scale::%s, %zu, %zu, {%llu, %llu, %llu, %llu, %sull}},\n",
          w.name, scale == Scale::kFull ? "kFull" : "kTiny", i, shards,
          static_cast<unsigned long long>(p.events),
          static_cast<unsigned long long>(p.created),
          static_cast<unsigned long long>(p.delivered),
          static_cast<unsigned long long>(p.dropped), hex(p.digest).c_str());
    }
  };
  print(r.parts, 1);
  print(r.sharded, kProbeShards);
}

}  // namespace perfbench
