// E11 — §5: a four-switch chain carrying 50 connections whose path lengths
// are roughly equally split between 1, 2, and 3 inter-switch hops (the
// complex topology of [19]).
//
// Paper claim: "even in this rather complicated topology where a detailed
// analysis of the dynamics is infeasible, the basic aspects of the behavior
// are due to the phenomena we have discussed here" — i.e. ACK-compression
// and out-of-phase queue synchronization persist.
#include <iostream>

#include "core/report.h"
#include "core/scenarios.h"
#include "util/table.h"

using namespace tcpdyn;

int main() {
  int failures = 0;

  core::Scenario sc = core::make_topo_scenario(core::four_switch_chain(50, 7));
  core::ScenarioSummary s = core::run_scenario(sc);

  util::Table t({"trunk port", "utilization", "max burst rise (pkts/tx)",
                 "max queue"});
  double max_burst = 0.0;
  for (const auto& p : s.result.ports) {
    const core::FluctuationStats f = core::rapid_fluctuations(
        p.queue, s.result.t_start, s.result.t_end, s.result.data_tx_time);
    max_burst = std::max(max_burst, f.max_burst_rise);
    t.add_row({p.name, util::fmt_pct(p.utilization),
               util::fmt(f.max_burst_rise, 0),
               util::fmt(p.queue.max_in(s.result.t_start, s.result.t_end), 0)});
  }
  std::cout << "§5 four-switch chain, 50 connections (1-3 hop paths)\n";
  t.print(std::cout);

  // ACK-compression at sources.
  double mean_compressed = 0.0;
  std::size_t n = 0;
  for (const auto& [conn, a] : s.ack) {
    if (a.gaps < 50) continue;  // skip connections with few ACKs in window
    mean_compressed += a.compressed_fraction;
    ++n;
  }
  mean_compressed /= std::max<std::size_t>(1, n);
  std::cout << "mean ACK-compressed gap fraction: "
            << util::fmt_pct(mean_compressed) << "\n";

  // Out-of-phase pairs among opposite-direction trunk queues.
  int out_of_phase_pairs = 0;
  for (std::size_t i = 0; i + 1 < s.result.ports.size(); i += 2) {
    const auto sync =
        core::classify_sync(s.result.ports[i].queue, s.result.ports[i + 1].queue,
                            s.result.t_start, s.result.t_end);
    std::cout << s.result.ports[i].name << " vs " << s.result.ports[i + 1].name
              << ": " << core::to_string(sync.mode)
              << " (rho=" << util::fmt(sync.correlation) << ")\n";
    if (sync.mode == core::SyncMode::kOutOfPhase) ++out_of_phase_pairs;
  }
  std::cout << "drops observed: " << s.result.drops.size()
            << ", data-drop fraction "
            << util::fmt_pct(s.epochs.data_drop_fraction) << "\n";

  if (max_burst < 4.0) {
    ++failures;
    std::cout << "CLAIM FAILED: rapid (ACK-compression) queue fluctuations "
                 "should persist in the complex topology\n";
  }
  if (mean_compressed < 0.15) {
    ++failures;
    std::cout << "CLAIM FAILED: ACK-compression should be present\n";
  }
  if (out_of_phase_pairs < 1) {
    ++failures;
    std::cout << "CLAIM FAILED: at least one trunk should show out-of-phase "
                 "queue synchronization\n";
  }
  // Unlike the single-bottleneck case (where an ACK always enters the
  // congested queue pre-spaced by a data transmission time and so is never
  // dropped — the 99.8% figure of §3.2), in a multi-hop chain a compressed
  // ACK cluster leaving one trunk queue arrives at the NEXT trunk queue at
  // the ACK rate and can overflow it. Data packets should still dominate.
  if (s.epochs.data_drop_fraction < 0.6 && !s.result.drops.empty()) {
    ++failures;
    std::cout << "CLAIM FAILED: data packets should dominate the drops\n";
  }
  std::cout << "bench_four_switch: " << (failures == 0 ? "OK" : "FAILURES")
            << "\n";
  return failures == 0 ? 0 : 1;
}
