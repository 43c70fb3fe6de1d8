// E5 — Figures 6-7 and §4.3.2: two-way traffic, one Tahoe connection per
// direction, tau = 1 s (pipe P = 12.5 packets), 20-packet buffers.
//
// Paper claims reproduced here:
//   * in-phase synchronization: queue lengths and cwnd values rise and fall
//     together (contrast with the out-of-phase tau = 0.01 s case)
//   * each connection loses exactly one packet per congestion epoch
//   * utilization ~60% (vs ~90% for one-way traffic at the same pipe size)
//   * periods where BOTH lines are idle simultaneously (compressed ACKs in
//     the pipe)
#include <iostream>

#include "core/report.h"
#include "core/scenarios.h"
#include "util/table.h"

using namespace tcpdyn;
using core::Claim;

namespace {

// Fraction of the window during which both bottleneck directions are idle
// simultaneously, approximated from the queue traces: both queues empty.
double both_idle_fraction(const core::ExperimentResult& r) {
  const double dt = 0.05;
  const auto a = r.ports[0].queue.resample(r.t_start, r.t_end, dt);
  const auto b = r.ports[1].queue.resample(r.t_start, r.t_end, dt);
  std::size_t both = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] <= 0.0 && b[i] <= 0.0) ++both;
  }
  return static_cast<double>(both) / static_cast<double>(a.size());
}

}  // namespace

int main() {
  int failures = 0;

  core::Scenario sc = core::make_topo_scenario(core::fig6_twoway(1.0, 20));
  core::ScenarioSummary s = core::run_scenario(sc);
  core::print_summary(std::cout, sc.name, s);
  std::cout << '\n';
  core::print_queue_chart(std::cout, s.result.ports[0].queue, s.result.t_start,
                          s.result.t_start + 120.0, 100, 10,
                          "Fig.6 top: queue at switch 1");
  core::print_queue_chart(std::cout, s.result.ports[1].queue, s.result.t_start,
                          s.result.t_start + 120.0, 100, 10,
                          "Fig.6 bottom: queue at switch 2");
  std::cout << '\n';

  const double idle_both = both_idle_fraction(s.result);

  // One-way baseline at the same pipe size for the utilization comparison.
  core::Scenario base =
      core::make_topo_scenario(core::fig2_one_way(2, 1.0, 20));
  core::ScenarioSummary sb = core::run_scenario(base);

  std::vector<Claim> claims;
  claims.push_back({"utilization", "~60% (well below one-way ~90%)",
                    util::fmt_pct(s.util_fwd),
                    s.util_fwd > 0.45 && s.util_fwd < 0.8});
  claims.push_back({"vs one-way baseline", "one-way much higher",
                    util::fmt_pct(sb.util_fwd) + " one-way",
                    sb.util_fwd > s.util_fwd + 0.1});
  claims.push_back({"queue sync", "in-phase",
                    core::to_string(s.queue_sync.mode),
                    s.queue_sync.mode == core::SyncMode::kInPhase});
  claims.push_back({"cwnd sync", "in-phase",
                    core::to_string(s.cwnd_sync.mode),
                    s.cwnd_sync.mode == core::SyncMode::kInPhase});
  claims.push_back({"drops per epoch", "2 total, one per connection",
                    util::fmt(s.epochs.mean_drops_per_epoch),
                    s.epochs.mean_drops_per_epoch > 1.5 &&
                        s.epochs.mean_drops_per_epoch < 2.6});
  claims.push_back({"loss sync", "both conns lose in the same epoch",
                    util::fmt_pct(s.epochs.multi_loser_fraction),
                    s.epochs.multi_loser_fraction > 0.7});
  claims.push_back({"both lines idle together", "happens (unlike small pipe)",
                    util::fmt_pct(idle_both), idle_both > 0.02});
  claims.push_back({"ACK-compression", "present",
                    util::fmt_pct(s.ack.at(0).compressed_fraction),
                    s.ack.at(0).compressed_fraction > 0.1});
  const core::SyncResult alt = core::classify_throughput_alternation(
      s.result.ports[0], 0, s.result.ports[1], 1, s.result.t_start,
      s.result.t_end, /*bin=*/10.0);
  claims.push_back({"bandwidth sharing", "goodput series move together",
                    std::string(core::to_string(alt.mode)) + " (rho=" +
                        util::fmt(alt.correlation) + ")",
                    alt.mode == core::SyncMode::kInPhase});
  failures += core::print_claims(std::cout, "Figs. 6-7 / §4.3.2", claims);

  std::cout << "bench_fig6_7: " << (failures == 0 ? "OK" : "FAILURES") << "\n";
  return failures == 0 ? 0 : 1;
}
