// E6 — Figure 8 and §4.2: fixed windows (30 and 25), infinite buffers,
// tau = 0.01 s. The congestion-control-free system that isolates
// ACK-compression.
//
// Paper claims reproduced here:
//   * square-wave queue oscillations of constant amplitude
//   * the two queues reach DIFFERENT maxima: Q1 ~55 (all of both windows
//     as data+ACKs), Q2 ~23
//   * one line is fully utilized, the other has significant idle time
//     (~86% in the paper) even though wnd1+wnd2 = 55 >> 2P = 0.25
//   * compressed ACK clusters: gaps equal to the ACK transmission time
//     (8 ms) instead of the data transmission time (80 ms)
//   * ACKs are never dropped (trivially true here: infinite buffers) and
//     the rises/falls match the RA=10*RD chronology of §4.2
#include <iostream>

#include "core/report.h"
#include "core/scenarios.h"
#include "util/table.h"

using namespace tcpdyn;
using core::Claim;

int main() {
  int failures = 0;

  core::Scenario sc =
      core::make_topo_scenario(core::fig8_fixed_window(0.01, 30, 25));
  core::ScenarioSummary s = core::run_scenario(sc);
  core::print_summary(std::cout, sc.name, s);
  std::cout << '\n';
  core::print_queue_chart(std::cout, s.result.ports[0].queue, s.result.t_start,
                          s.result.t_start + 20.0, 100, 12,
                          "Fig.8 top: queue at switch 1");
  core::print_queue_chart(std::cout, s.result.ports[1].queue, s.result.t_start,
                          s.result.t_start + 20.0, 100, 12,
                          "Fig.8 bottom: queue at switch 2");
  std::cout << '\n';

  const double q1_max = s.result.ports[0].queue.max_in(s.result.t_start,
                                                       s.result.t_end);
  const double q2_max = s.result.ports[1].queue.max_in(s.result.t_start,
                                                       s.result.t_end);
  const double ack_tx = 50.0 * 8.0 / 50'000.0;  // 8 ms

  std::vector<Claim> claims;
  claims.push_back({"queue 1 maximum", "55 packets", util::fmt(q1_max, 0),
                    q1_max > 50.0 && q1_max < 58.0});
  claims.push_back({"queue 2 maximum", "23 packets", util::fmt(q2_max, 0),
                    q2_max > 20.0 && q2_max < 26.0});
  claims.push_back({"different maxima", "Q1 max >> Q2 max",
                    util::fmt(q1_max, 0) + " vs " + util::fmt(q2_max, 0),
                    q1_max > q2_max + 20.0});
  claims.push_back({"one line fully utilized", "utilization fwd ~100%",
                    util::fmt_pct(s.util_fwd), s.util_fwd > 0.99});
  claims.push_back({"other line idle", "~86%", util::fmt_pct(s.util_rev),
                    s.util_rev > 0.78 && s.util_rev < 0.94});
  claims.push_back(
      {"ACK gap compression", "min gap = ACK tx time (8 ms), not 80 ms",
       util::fmt(s.ack.at(0).min_gap * 1000.0, 1) + " ms",
       s.ack.at(0).min_gap < ack_tx * 1.5});
  claims.push_back({"square waves", "rapid rises of many packets",
                    util::fmt(s.fluct_fwd.max_burst_rise, 0) + " pkts/tx",
                    s.fluct_fwd.max_burst_rise >= 5.0});
  claims.push_back({"no drops", "infinite buffers, no losses",
                    std::to_string(s.result.drops.size()) + " drops",
                    s.result.drops.empty()});
  claims.push_back({"queues out-of-phase", "one full while other empty",
                    core::to_string(s.queue_sync.mode),
                    s.queue_sync.mode == core::SyncMode::kOutOfPhase});
  failures += core::print_claims(std::cout, "Fig. 8 / §4.2", claims);

  std::cout << "bench_fig8: " << (failures == 0 ? "OK" : "FAILURES") << "\n";
  return failures == 0 ? 0 : 1;
}
