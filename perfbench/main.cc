// perfbench: the repository benchmark binary. Runs one workload closed-loop
// (one experiment at a time, spec -> summary) for a fixed number of
// seconds, checks every operation's output, and prints a report whose last
// line is one JSON object:
//
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics (phase times, event rate, peak
// RSS); --trace 1 alternates untraced and traced operations and reports the
// per-layer metrics from the traced ones, plus the tracing overhead.
// README.md lists every metric and workload.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  bool corrupt_expected = false;
  bool print_expected = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--scale full|tiny] [--corrupt-expected] "
               "[--print-expected]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        a.workload = value();
      } else if (flag == "--seed") {
        a.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value());
      } else if (flag == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--scale") {
        const std::string v = value();
        if (v != "full" && v != "tiny") usage("--scale takes full or tiny");
        a.scale = v == "full" ? Scale::kFull : Scale::kTiny;
      } else if (flag == "--corrupt-expected") {
        a.corrupt_expected = true;
      } else if (flag == "--print-expected") {
        a.print_expected = true;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

// ----------------------------------------------------------------- stats

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double minimum(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double maximum(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------- report

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

void print_machine(const Args& a, const Workload& w) {
  std::printf(
      "machine: {\"nproc\": %ld, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"optimized\": %s, \"timer\": \"%s\", "
      "\"shards\": 1, \"traced_probe_shards\": %zu, \"seed\": %llu, "
      "\"scale\": \"%s\"}\n",
      sysconf(_SC_NPROCESSORS_ONLN), json_escape(cpu_model()).c_str(),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, kOptimized ? "true" : "false",
      tcpdyn::sim::to_string(w.backend), w.sharded_probe ? kProbeShards : 0,
      static_cast<unsigned long long>(a.seed),
      a.scale == Scale::kFull ? "full" : "tiny");
  if (!kOptimized) {
    std::printf("WARNING: this build is not optimized; timings are not "
                "comparable\n");
  }
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

// Per-operation span durations by name, summed over repeated calls.
using SpanTotals = std::map<std::string, double>;

// Span index range [first, second) of one traced operation.
using OpSpans = std::pair<std::size_t, std::size_t>;

SpanTotals span_totals(const Tracer& t, const OpSpans& op) {
  SpanTotals out;
  const auto& spans = t.spans();
  for (std::size_t i = op.first; i < op.second; ++i) {
    out[spans[i].name] += spans[i].end - spans[i].start;
  }
  return out;
}

// The span tree: for each (parent, name) pair, in the order first seen,
// the median per-operation duration and self time (the part of that
// duration no child span covers).
void print_span_table(const Tracer& t, const std::vector<OpSpans>& ops) {
  const auto& spans = t.spans();
  using Key = std::pair<std::string, std::string>;  // (parent, name)
  struct Row {
    Key key;
    std::size_t calls = 0;
    std::vector<double> total, self;
  };
  std::vector<Row> rows;
  std::map<Key, std::size_t> index;
  for (const auto& [lo, hi] : ops) {
    std::vector<double> child(hi - lo, 0.0);
    for (std::size_t i = lo; i < hi; ++i) {
      if (spans[i].parent >= 0) {
        child[static_cast<std::size_t>(spans[i].parent) - lo] +=
            spans[i].end - spans[i].start;
      }
    }
    std::map<std::size_t, std::pair<double, double>> per_op;  // row -> sums
    for (std::size_t i = lo; i < hi; ++i) {
      const int p = spans[i].parent;
      const Key key{p >= 0 ? spans[static_cast<std::size_t>(p)].name : "-",
                    spans[i].name};
      const auto [it, fresh] = index.emplace(key, rows.size());
      if (fresh) rows.push_back({key, 0, {}, {}});
      ++rows[it->second].calls;
      const double d = spans[i].end - spans[i].start;
      per_op[it->second].first += d;
      per_op[it->second].second += d - child[i - lo];
    }
    for (const auto& [row, sums] : per_op) {
      rows[row].total.push_back(sums.first);
      rows[row].self.push_back(sums.second);
    }
  }
  std::printf("spans (per traced operation, median of %zu operations):\n",
              ops.size());
  std::printf("  %-36s %-34s %6s %12s %12s\n", "span", "parent", "calls",
              "total_s", "self_s");
  for (const Row& r : rows) {
    std::printf("  %-36s %-34s %6zu %12.6f %12.6f\n", r.key.second.c_str(),
                r.key.first.c_str(), r.calls / r.total.size(),
                median(r.total), median(r.self));
  }
}

std::vector<Metric> layer_metrics(const std::vector<SpanTotals>& traced,
                                  const Counts& c, double overhead) {
  const auto span = [&traced](const char* name) {
    std::vector<double> v;
    for (const SpanTotals& s : traced) {
      const auto it = s.find(name);
      v.push_back(it == s.end() ? 0.0 : it->second);
    }
    return median(v);
  };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  return {
      {"core.topology.build_s", "s", span("core.topology.build")},
      {"core.topology.compile_s", "s", span("core.topology.compile")},
      {"core.traffic.instantiate_s", "s", span("core.traffic.instantiate")},
      {"core.flows", "count", d(c.flows)},
      {"core.bytes_per_flow", "B",
       ratio(c.heap_bytes_instantiated, d(c.flows))},
      {"core.shard.plan_s", "s", span("core.shard.plan")},
      {"core.shard.engine_s", "s", span("core.shard.engine")},
      {"core.shard.lookahead_us", "us", c.lookahead_us},
      {"core.shard.cut_links", "count", d(c.cut_links)},
      {"core.experiment.run_s", "s", span("core.experiment.run")},
      {"core.shard.run_s", "s", span("core.shard.run")},
      {"core.shard.events", "count", d(c.shard_events)},
      {"sim.events", "count", d(c.events)},
      {"net.port_arrivals", "count", d(c.port_arrivals)},
      {"sim.events_per_hop", "ratio", ratio(d(c.events), d(c.port_arrivals))},
      {"net.drops", "count", d(c.drops)},
      {"net.drop_frac", "ratio", ratio(d(c.drops), d(c.port_arrivals))},
      {"net.host_delivered", "count", d(c.host_delivered)},
      {"tcp.data_sent", "count", d(c.data_sent)},
      {"tcp.retransmits", "count", d(c.retransmits)},
      {"tcp.useful_frac", "ratio",
       c.data_sent > 0 ? 1.0 - ratio(d(c.retransmits), d(c.data_sent)) : 0.0},
      {"tcp.timeouts", "count", d(c.timeouts)},
      {"tcp.acks_received", "count", d(c.acks_received)},
      {"core.monitor.queue_points", "count", d(c.queue_points)},
      {"core.analysis.oscillation_period_s", "s",
       span("core.analysis.oscillation_period")},
      {"util.dominant_period_s", "s", span("util.dominant_period")},
      {"core.analysis.period_samples", "count", d(c.period_samples)},
      {"core.analysis.clustering_s", "s", span("core.analysis.clustering")},
      {"core.analysis.rapid_fluctuations_s", "s",
       span("core.analysis.rapid_fluctuations")},
      {"core.analysis.classify_sync_s", "s",
       span("core.analysis.classify_sync")},
      {"core.analysis.ack_compression_s", "s",
       span("core.analysis.ack_compression")},
      {"core.analysis.epochs_s", "s", span("core.analysis.epochs")},
      {"core.analysis.summarize_flows_s", "s",
       span("core.analysis.summarize_flows")},
      {"trace.overhead_frac", "ratio", overhead},
  };
}

void print_metrics_table(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-38s %18.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void print_result_line(bool correct, std::size_t attempted,
                       std::size_t failed,
                       const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& a) {
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) usage(("unknown workload " + a.workload).c_str());
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w->name, static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0);
  print_machine(a, *w);
  const bool expected = a.seed == kDefaultSeed && !a.print_expected;

  Tracer off(false);
  Tracer on(true);
  std::vector<OpResult> ok;            // untraced operations that passed
  std::vector<OpResult> ok_traced;     // traced operations that passed
  std::vector<SpanTotals> traced_spans;
  std::vector<OpSpans> traced_ops;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool printed_expected = false;
  // Peak RSS at the end of the warm-up: one experiment in a fresh process.
  // Read later, it would also carry the allocator's fragmentation after
  // dozens of back-to-back experiments, which varies from run to run.
  double warmup_rss_mb = 0.0;
  std::vector<PartRecord> reference;

  // The first operation is a warm-up: it is checked and counted, but its
  // timing is discarded and the measured window starts after it.
  double deadline = 0.0;
  // --trace 1 alternates untraced and traced operations, so the tracing
  // overhead is measured under the same conditions as the layer spans.
  while (attempted == 0 || now_sec() < deadline ||
         (failed == 0 && ((ok.empty() && ok_traced.empty()) ||
                          (a.trace && (ok.empty() || ok_traced.empty()))))) {
    // --print-expected traces every operation, so the sharded probe runs.
    const bool traced =
        a.print_expected || (a.trace && attempted % 2 == 1);
    const std::size_t start = on.spans().size();
    OpResult r = run_operation(*w, a.seed, a.scale, traced ? on : off,
                               expected, a.corrupt_expected);
    ++attempted;
    // Every operation of a run uses the same inputs, so its deterministic
    // outputs must repeat exactly.
    if (r.errors.empty()) {
      if (reference.empty()) {
        reference = r.parts;
      } else if (r.parts != reference) {
        r.errors.push_back("outputs differ from the run's first operation");
      }
    }
    const bool warmup = attempted == 1;
    if (warmup) {
      warmup_rss_mb = peak_rss_mb();
      deadline = now_sec() + a.seconds;
    }
    std::printf("op %zu%s%s: %s wall=%.6f setup=%.6f run=%.6f analyze=%.6f "
                "events=%llu\n",
                attempted, warmup ? " (warm-up)" : "",
                traced ? " (traced)" : "",
                r.errors.empty() ? "ok" : "FAILED", r.wall, r.setup, r.run,
                r.analyze, static_cast<unsigned long long>(r.counts.events));
    for (const std::string& e : r.errors) {
      std::printf("  error: %s\n", e.c_str());
    }
    if (!r.errors.empty()) {
      ++failed;  // its timing is discarded
      continue;
    }
    if (a.print_expected && !printed_expected) {
      print_expected(*w, a.scale, r);
      printed_expected = true;
    }
    if (warmup) continue;
    if (traced) {
      traced_ops.emplace_back(start, on.spans().size());
      traced_spans.push_back(span_totals(on, traced_ops.back()));
      ok_traced.push_back(std::move(r));
    } else {
      ok.push_back(std::move(r));
    }
  }

  std::vector<Metric> metrics;
  const auto series = [](const std::vector<OpResult>& ops,
                         const std::function<double(const OpResult&)>& f) {
    std::vector<double> v;
    for (const OpResult& r : ops) v.push_back(f(r));
    return v;
  };
  if (!a.trace) {
    // The fastest operation of the window, each phase on its own, not the
    // median: on a shared host the machine's speed switches between a fast
    // and a slow level for seconds at a time, so the median jumps between
    // the levels with the share of slow operations, while the fastest
    // operation reads the fast level whenever the window holds one. See
    // README.md, "Lessons".
    metrics = {
        {"wall_s", "s", minimum(series(ok, [](auto& r) { return r.wall; }))},
        {"setup_s", "s",
         minimum(series(ok, [](auto& r) { return r.setup; }))},
        {"run_s", "s", minimum(series(ok, [](auto& r) { return r.run; }))},
        {"analyze_s", "s",
         minimum(series(ok, [](auto& r) { return r.analyze; }))},
        {"events_per_s", "1/s", maximum(series(ok, [](auto& r) {
           return static_cast<double>(r.counts.events) / r.run;
         }))},
        {"peak_rss_mb", "MB", warmup_rss_mb},
    };
    std::printf("end-to-end metrics (fastest of %zu operations after a "
                "warm-up):\n",
                ok.size());
  } else {
    const auto wall = [](const OpResult& r) { return r.wall; };
    const double untraced = median(series(ok, wall));
    const double traced = median(series(ok_traced, wall));
    const double overhead = untraced > 0.0 ? traced / untraced - 1.0 : 0.0;
    metrics = layer_metrics(traced_spans,
                            ok_traced.empty() ? Counts{}
                                              : ok_traced.front().counts,
                            overhead);
    print_span_table(on, traced_ops);
    std::printf("tracing overhead: traced phase total %.6f s vs untraced "
                "%.6f s (%+.2f%%)\n",
                traced, untraced, 100.0 * overhead);
    std::printf("per-layer metrics (median of %zu traced operations):\n",
                ok_traced.size());
  }
  print_metrics_table(metrics);
  std::printf("failed %zu of %zu operations\n", failed, attempted);
  print_result_line(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
