// ACK-compression, isolated: the paper's Fig. 8 fixed-window system
// (windows 30 and 25, infinite buffers, tau = 0.01 s) with a narrated
// walk-through of the five-step cycle chronology of §4.2 and the bimodal
// ACK inter-arrival histogram that is the fingerprint of the phenomenon.
//
// What to look for in the output:
//   * square-wave queue oscillations; Q1 plateaus at 55, Q2 at 23
//   * ACK gaps bunching at the ACK transmission time (8 ms) instead of the
//     data transmission time (80 ms)
//   * one line 100% utilized, the other ~86% — even though the windows sum
//     to 55 packets and the pipe holds only 0.25
#include <iostream>

#include "core/report.h"
#include "core/scenarios.h"
#include "util/histogram.h"
#include "util/table.h"

int main() {
  using namespace tcpdyn;

  std::cout <<
      "ACK-compression demo (paper Fig. 8, §4.2)\n"
      "==========================================\n\n"
      "Two fixed-window connections (wnd 30 and 25) cross a 50 Kbps duplex\n"
      "bottleneck in opposite directions. Data packets are 500 B (80 ms on\n"
      "the wire), ACKs 50 B (8 ms). Each switch queue therefore mixes one\n"
      "connection's data with the other's ACKs. The §4.2 cycle:\n\n"
      "  1. D2's drain Q2 at the data rate while A1's arrive: steady.\n"
      "  2. Last D2 leaves; queued A1's now drain at the *ACK* rate, ten\n"
      "     times faster. Q2 collapses; the compressed A1 burst releases a\n"
      "     burst of D1's that slam into Q1: its length jumps.\n"
      "  3. Q2 sits empty; all of connection 2's packets wait in Q1 as\n"
      "     ACKs sandwiched between D1's.\n"
      "  4. The A2's reach the head of Q1 and drain at the ACK rate; Q1\n"
      "     collapses and the released D2 burst rebuilds Q2.\n"
      "  5. Back to step 1.\n\n";

  core::Scenario scenario =
      core::make_topo_scenario(core::fig8_fixed_window(0.01, 30, 25));
  core::ScenarioSummary s = core::run_scenario(scenario);

  core::print_queue_chart(std::cout, s.result.ports[0].queue,
                          s.result.t_start, s.result.t_start + 12.0, 110, 12,
                          "queue at switch 1 (D1 + A2), packets");
  std::cout << '\n';
  core::print_queue_chart(std::cout, s.result.ports[1].queue,
                          s.result.t_start, s.result.t_start + 12.0, 110, 12,
                          "queue at switch 2 (D2 + A1), packets");

  // ACK inter-arrival histogram at connection 1's source.
  std::vector<double> gaps;
  const auto& times = s.result.ack_arrivals.at(0);
  for (std::size_t i = 1; i < times.size(); ++i) {
    if (times[i] >= s.result.t_start) gaps.push_back(times[i] - times[i - 1]);
  }
  util::Histogram hist(0.0, 0.1, 20);  // 5 ms bins over [0, 100 ms)
  hist.add_all(gaps);
  std::cout << "\nACK inter-arrival gaps at connection 1's source\n"
            << "(bimodal: compressed gaps at ~8 ms, clocked gaps at ~80 ms)\n"
            << hist.render(60);

  util::Table t({"metric", "paper", "measured"});
  t.add_row({"Q1 maximum", "55",
             util::fmt(s.result.ports[0].queue.max_in(s.result.t_start,
                                                      s.result.t_end), 0)});
  t.add_row({"Q2 maximum", "23",
             util::fmt(s.result.ports[1].queue.max_in(s.result.t_start,
                                                      s.result.t_end), 0)});
  t.add_row({"line 1 utilization", "100%", util::fmt_pct(s.util_fwd)});
  t.add_row({"line 2 utilization", "86%", util::fmt_pct(s.util_rev)});
  t.add_row({"min ACK gap", "8 ms (= ACK tx time)",
             util::fmt(s.ack.at(0).min_gap * 1000.0, 1) + " ms"});
  std::cout << '\n';
  t.print(std::cout);
  return 0;
}
