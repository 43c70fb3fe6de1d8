// Quickstart: build the paper's dumbbell topology, run one TCP Tahoe
// connection in each direction for 100 simulated seconds, and print the
// headline dynamics (utilization, synchronization mode, ACK-compression).
//
// This is the two-way configuration of Figs. 4-5 in miniature.
#include <iostream>

#include "core/report.h"
#include "core/scenarios.h"

int main() {
  using namespace tcpdyn;

  // A scenario bundles a ready-to-run Experiment with analysis metadata.
  core::Scenario scenario =
      core::make_topo_scenario(core::fig4_twoway(/*tau_sec=*/0.01,
                                                 /*buffer=*/20));
  scenario.warmup = sim::Time::seconds(20.0);
  scenario.duration = sim::Time::seconds(100.0);

  core::ScenarioSummary summary = core::run_scenario(scenario);

  core::print_summary(std::cout, "quickstart: two-way Tahoe, tau=0.01s",
                      summary);
  std::cout << '\n';
  core::print_queue_chart(std::cout, summary.result.ports[0].queue,
                          summary.result.t_start, summary.result.t_end,
                          100, 10, "bottleneck queue S1->S2 (packets)");
  return 0;
}
