// E1 — Figure 2 and §3.1: one-way traffic, three Tahoe connections with
// sources on Host-1, tau = 1 s, 20-packet buffers.
//
// Paper claims reproduced here:
//   * in-phase window-synchronization and loss-synchronization: every
//     connection loses exactly one packet (its acceleration) per epoch
//   * complete packet clustering
//   * smooth queue (no rapid fluctuations): ACKs are a reliable clock and
//     arrive spaced by exactly one data transmission time
//   * utilization ~90% at tau = 1 s, ~100% at tau = 0.01 s
//   * low-frequency oscillation with a period of roughly 34 seconds
#include <iostream>

#include "core/report.h"
#include "core/scenarios.h"
#include "util/table.h"

using namespace tcpdyn;
using core::Claim;

int main() {
  int failures = 0;

  core::Scenario sc = core::make_topo_scenario(core::fig2_one_way(3, 1.0, 20));
  core::ScenarioSummary s = core::run_scenario(sc);
  core::print_summary(std::cout, sc.name + " (tau=1s)", s);
  std::cout << '\n';
  core::print_queue_chart(std::cout, s.result.ports[0].queue, s.result.t_start,
                          s.result.t_start + 120.0, 100, 10,
                          "Fig.2 top: bottleneck queue (packets)");
  std::cout << '\n';

  double max_compressed = 0.0;
  for (const auto& [conn, a] : s.ack) {
    max_compressed = std::max(max_compressed, a.compressed_fraction);
  }

  std::vector<Claim> claims;
  claims.push_back({"utilization", "~90%", util::fmt_pct(s.util_fwd),
                    s.util_fwd > 0.8 && s.util_fwd < 0.97});
  claims.push_back({"loss synchronization", "all conns lose every epoch",
                    util::fmt_pct(s.epochs.multi_loser_fraction) + " multi-loser",
                    s.epochs.multi_loser_fraction > 0.9});
  claims.push_back({"drops per epoch", "3 (one per conn = acceleration)",
                    util::fmt(s.epochs.mean_drops_per_epoch),
                    s.epochs.mean_drops_per_epoch > 2.5 &&
                        s.epochs.mean_drops_per_epoch < 3.5});
  claims.push_back({"cwnd sync", "in-phase", core::to_string(s.cwnd_sync.mode),
                    s.cwnd_sync.mode == core::SyncMode::kInPhase});
  claims.push_back(
      {"oscillation period", "~34 s",
       s.period_fwd ? util::fmt(*s.period_fwd, 1) + "s" : "none",
       s.period_fwd && *s.period_fwd > 25.0 && *s.period_fwd < 45.0});
  claims.push_back({"packet clustering", "complete",
                    "mean run " + util::fmt(s.clustering_fwd.mean_run_length),
                    s.clustering_fwd.mean_run_length > 5.0});
  claims.push_back({"queue smoothness", "no rapid fluctuations (one-way)",
                    "mean range/tx " + util::fmt(s.fluct_fwd.mean_range),
                    s.fluct_fwd.mean_range < 1.5});
  claims.push_back({"ACK clocking", "ACK gaps = data tx time, none compressed",
                    util::fmt_pct(max_compressed) + " compressed",
                    max_compressed < 0.01});
  failures += core::print_claims(std::cout, "Fig. 2 (tau=1s)", claims);

  // --- tau = 0.01 s variant: near-perfect utilization ---
  core::Scenario sc2 =
      core::make_topo_scenario(core::fig2_one_way(3, 0.01, 20));
  core::ScenarioSummary s2 = core::run_scenario(sc2);
  std::vector<Claim> claims2;
  claims2.push_back({"utilization (small pipe)", "~100%",
                     util::fmt_pct(s2.util_fwd), s2.util_fwd > 0.97});
  claims2.push_back({"utilization ordering", "small pipe > large pipe",
                     util::fmt_pct(s2.util_fwd) + " vs " +
                         util::fmt_pct(s.util_fwd),
                     s2.util_fwd > s.util_fwd});
  failures += core::print_claims(std::cout, "§3.1 (tau=0.01s)", claims2);

  std::cout << "bench_fig2: " << (failures == 0 ? "OK" : "FAILURES") << "\n";
  return failures == 0 ? 0 : 1;
}
