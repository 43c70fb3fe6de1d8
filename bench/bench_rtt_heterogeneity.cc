// E16 — §5: "the fact that the two connections had the same round-trip time
// was crucial to the complete packet clustering in our simulation. When the
// round-trip times of different connections differ by more than a packet
// transmission time at the bottleneck point, the clustering will no longer
// be perfect, although partial clustering may still exist."
//
// Three one-way Tahoe connections share the bottleneck; their access
// propagation delays are spread by 0 .. 4 bottleneck transmission times.
#include <iostream>
#include <vector>

#include "core/report.h"
#include "core/scenarios.h"
#include "util/table.h"

using namespace tcpdyn;

int main() {
  int failures = 0;
  const double tx = 0.08;  // bottleneck data transmission time (s)
  const std::vector<double> spreads = {0.0, 0.25 * tx, 1.0 * tx, 2.0 * tx,
                                       4.0 * tx};
  util::Table t({"RTT spread (in tx times)", "mean cluster run",
                 "max cluster run", "utilization"});
  std::vector<double> runs;
  for (double spread : spreads) {
    core::Scenario sc =
        core::make_topo_scenario(core::rtt_heterogeneity(3, spread));
    core::ScenarioSummary s = core::run_scenario(sc);
    runs.push_back(s.clustering_fwd.mean_run_length);
    t.add_row({util::fmt(spread / tx, 2),
               util::fmt(s.clustering_fwd.mean_run_length),
               std::to_string(s.clustering_fwd.max_run_length),
               util::fmt_pct(s.util_fwd)});
  }
  std::cout << "§5: clustering vs round-trip-time heterogeneity (one-way, 3 "
               "conns)\n";
  t.print(std::cout);

  // Shape: sub-transmission-time spread preserves clustering; spreads well
  // beyond one transmission time clearly degrade it.
  if (runs[1] < 0.7 * runs[0]) {
    ++failures;
    std::cout << "CLAIM FAILED: spread < 1 tx time should preserve "
                 "clustering\n";
  }
  if (runs.back() > 0.7 * runs[0]) {
    ++failures;
    std::cout << "CLAIM FAILED: spread of 4 tx times should clearly degrade "
                 "clustering\n";
  }
  std::cout << "bench_rtt_heterogeneity: "
            << (failures == 0 ? "OK" : "FAILURES") << "\n";
  return failures == 0 ? 0 : 1;
}
