// §2.1 ablation: the paper replaces the BSD congestion-avoidance increment
// cwnd += 1/cwnd with cwnd += 1/floor(cwnd) to remove a floor-related
// anomaly, and asserts "none of the qualitative conclusions we reach will be
// affected by the change." This bench runs the Fig. 2 configuration both
// ways and checks the qualitative metrics coincide (while the anomaly makes
// the original's epochs slightly longer).
#include <cmath>
#include <iostream>

#include "core/report.h"
#include "core/scenarios.h"
#include "util/table.h"

using namespace tcpdyn;

int main() {
  int failures = 0;

  core::Scenario mod = core::make_topo_scenario(core::increment_ablation(true));
  core::ScenarioSummary a = core::run_scenario(mod);
  core::Scenario orig =
      core::make_topo_scenario(core::increment_ablation(false));
  core::ScenarioSummary b = core::run_scenario(orig);

  util::Table t({"increment", "utilization", "drops/epoch", "epoch interval",
                 "loss sync (multi-loser)", "cwnd sync"});
  t.add_row({"1/floor(cwnd) (paper)", util::fmt_pct(a.util_fwd),
             util::fmt(a.epochs.mean_drops_per_epoch),
             util::fmt(a.epochs.mean_interval, 1) + "s",
             util::fmt_pct(a.epochs.multi_loser_fraction),
             core::to_string(a.cwnd_sync.mode)});
  t.add_row({"1/cwnd (original BSD)", util::fmt_pct(b.util_fwd),
             util::fmt(b.epochs.mean_drops_per_epoch),
             util::fmt(b.epochs.mean_interval, 1) + "s",
             util::fmt_pct(b.epochs.multi_loser_fraction),
             core::to_string(b.cwnd_sync.mode)});
  std::cout << "§2.1: congestion-avoidance increment ablation (Fig. 2 "
               "configuration)\n";
  t.print(std::cout);

  if (std::abs(a.util_fwd - b.util_fwd) > 0.08) {
    ++failures;
    std::cout << "CLAIM FAILED: utilization should be qualitatively "
                 "unchanged\n";
  }
  if (b.cwnd_sync.mode != core::SyncMode::kInPhase) {
    ++failures;
    std::cout << "CLAIM FAILED: in-phase window sync should be unaffected\n";
  }
  if (b.epochs.multi_loser_fraction < 0.7) {
    ++failures;
    std::cout << "CLAIM FAILED: loss synchronization should be unaffected\n";
  }
  if (std::abs(a.epochs.mean_drops_per_epoch -
               b.epochs.mean_drops_per_epoch) > 1.0) {
    ++failures;
    std::cout << "CLAIM FAILED: acceleration analysis should hold for both\n";
  }
  std::cout << "bench_increment_ablation: "
            << (failures == 0 ? "OK" : "FAILURES") << "\n";
  return failures == 0 ? 0 : 1;
}
