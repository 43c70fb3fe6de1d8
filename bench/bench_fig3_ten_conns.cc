// E3 — Figure 3 and §3.2: ten Tahoe connections, five per direction,
// tau = 0.01 s, 30-packet buffers (the configuration of [19] recast onto the
// paper's Figure-1 network).
//
// Paper claims reproduced here:
//   * rapid queue-length fluctuations (~5 packets within less than one data
//     transmission time) — the "central mystery" ACK-compression explains
//   * the two switch queues oscillate out-of-phase
//   * utilization ~91%, and increasing the buffer to 60 LOWERS it (~87%)
//   * 99.8% of dropped packets are data packets (ACKs never dropped)
//   * ~10 drops per congestion epoch (= total acceleration), mostly
//     loss-synchronized across connections
//   * clustering is partial, not complete (multiple conns per direction)
#include <iostream>

#include "core/report.h"
#include "core/scenarios.h"
#include "util/table.h"

using namespace tcpdyn;
using core::Claim;

int main() {
  int failures = 0;

  core::Scenario sc = core::make_topo_scenario(core::fig3_ten_connections(30));
  core::ScenarioSummary s = core::run_scenario(sc);
  core::print_summary(std::cout, sc.name + " (buffer 30)", s);
  std::cout << '\n';
  core::print_queue_chart(std::cout, s.result.ports[0].queue, s.result.t_start,
                          s.result.t_start + 30.0, 100, 10,
                          "Fig.3 top: queue at switch 1");
  core::print_queue_chart(std::cout, s.result.ports[1].queue, s.result.t_start,
                          s.result.t_start + 30.0, 100, 10,
                          "Fig.3 bottom: queue at switch 2");
  std::cout << '\n';

  double mean_compressed = 0.0;
  for (const auto& [conn, a] : s.ack) mean_compressed += a.compressed_fraction;
  mean_compressed /= static_cast<double>(s.ack.size());

  core::Scenario sc60 =
      core::make_topo_scenario(core::fig3_ten_connections(60));
  core::ScenarioSummary s60 = core::run_scenario(sc60);

  std::vector<Claim> claims;
  claims.push_back({"utilization (B=30)", "~91%", util::fmt_pct(s.util_fwd),
                    s.util_fwd > 0.82 && s.util_fwd < 0.97});
  claims.push_back({"utilization (B=60)", "lower, ~87% (more buffer hurts)",
                    util::fmt_pct(s60.util_fwd),
                    s60.util_fwd < s.util_fwd + 0.005});
  claims.push_back({"queue sync", "out-of-phase across switches",
                    core::to_string(s.queue_sync.mode),
                    s.queue_sync.mode == core::SyncMode::kOutOfPhase});
  claims.push_back(
      {"rapid fluctuations", "~5 pkts within < 1 data tx time",
       util::fmt(s.fluct_fwd.max_burst_rise, 0) + " pkts max burst",
       s.fluct_fwd.max_burst_rise >= 4.0});
  claims.push_back({"data-drop share", "99.8% (ACKs never dropped)",
                    util::fmt_pct(s.epochs.data_drop_fraction),
                    s.epochs.data_drop_fraction > 0.99});
  claims.push_back({"drops per epoch", "~10 (= total acceleration), varies",
                    util::fmt(s.epochs.mean_drops_per_epoch),
                    s.epochs.mean_drops_per_epoch > 6.0 &&
                        s.epochs.mean_drops_per_epoch < 16.0});
  claims.push_back({"loss sync", "majority of conns lose in same epoch",
                    util::fmt_pct(s.epochs.multi_loser_fraction) + " multi-loser",
                    s.epochs.multi_loser_fraction > 0.5});
  claims.push_back({"ACK-compression", "present (drives the fluctuations)",
                    util::fmt_pct(mean_compressed) + " gaps compressed",
                    mean_compressed > 0.2});
  claims.push_back(
      {"clustering", "partial (narrower plateaus than 2-conn case)",
       "mean run " + util::fmt(s.clustering_fwd.mean_run_length),
       s.clustering_fwd.mean_run_length > 1.5 &&
           s.clustering_fwd.mean_run_length < 10.0});
  failures += core::print_claims(std::cout, "Fig. 3 / §3.2", claims);

  std::cout << "bench_fig3: " << (failures == 0 ? "OK" : "FAILURES") << "\n";
  return failures == 0 ? 0 : 1;
}
