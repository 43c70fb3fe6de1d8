// E7 — Figure 9 and §4.2: fixed windows (30 and 25), infinite buffers,
// tau = 1 s (pipe P = 12.5 packets).
//
// Paper claims reproduced here:
//   * both queues reach the SAME maximum (~23 packets) — the root of the
//     in-phase synchronization mode when windows differ by less than 2P
//   * BOTH lines have idle time (utilizations ~81% and ~70% in the paper);
//     with W1 - W2 = 5 < 2P = 25 neither line is fully utilized
//   * square-wave plateaus with an alternation pattern
#include <iostream>

#include "core/report.h"
#include "core/scenarios.h"
#include "util/table.h"

using namespace tcpdyn;
using core::Claim;

int main() {
  int failures = 0;

  core::Scenario sc =
      core::make_topo_scenario(core::fig8_fixed_window(1.0, 30, 25));
  core::ScenarioSummary s = core::run_scenario(sc);
  core::print_summary(std::cout, sc.name, s);
  std::cout << '\n';
  core::print_queue_chart(std::cout, s.result.ports[0].queue, s.result.t_start,
                          s.result.t_start + 20.0, 100, 12,
                          "Fig.9 top: queue at switch 1");
  core::print_queue_chart(std::cout, s.result.ports[1].queue, s.result.t_start,
                          s.result.t_start + 20.0, 100, 12,
                          "Fig.9 bottom: queue at switch 2");
  std::cout << '\n';

  const double q1_max = s.result.ports[0].queue.max_in(s.result.t_start,
                                                       s.result.t_end);
  const double q2_max = s.result.ports[1].queue.max_in(s.result.t_start,
                                                       s.result.t_end);

  std::vector<Claim> claims;
  claims.push_back({"equal maxima", "both queues reach ~23",
                    util::fmt(q1_max, 0) + " and " + util::fmt(q2_max, 0),
                    std::abs(q1_max - q2_max) <= 2.0 && q1_max > 19.0 &&
                        q1_max < 27.0});
  claims.push_back({"line 1 utilization", "~81%", util::fmt_pct(s.util_fwd),
                    s.util_fwd > 0.72 && s.util_fwd < 0.9});
  claims.push_back({"line 2 utilization", "~70%", util::fmt_pct(s.util_rev),
                    s.util_rev > 0.6 && s.util_rev < 0.8});
  claims.push_back({"neither fully utilized", "W1-W2=5 < 2P=25 => both idle",
                    util::fmt_pct(s.util_fwd) + "/" + util::fmt_pct(s.util_rev),
                    s.util_fwd < 0.97 && s.util_rev < 0.97});
  claims.push_back({"square waves", "rapid many-packet rises",
                    util::fmt(s.fluct_fwd.max_burst_rise, 0) + " pkts/tx",
                    s.fluct_fwd.max_burst_rise >= 5.0});
  claims.push_back({"no drops", "infinite buffers",
                    std::to_string(s.result.drops.size()) + " drops",
                    s.result.drops.empty()});
  failures += core::print_claims(std::cout, "Fig. 9 / §4.2", claims);

  std::cout << "bench_fig9: " << (failures == 0 ? "OK" : "FAILURES") << "\n";
  return failures == 0 ? 0 : 1;
}
