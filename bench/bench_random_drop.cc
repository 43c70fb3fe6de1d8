// E15 — gateway-discipline ablation: Random Drop vs drop-tail at the
// bottleneck (the discipline studied by the papers this work cites:
// [4, 5, 10, 18]). The two-way phenomena are properties of the *sources'*
// ACK-clocked clustering, so they must survive the gateway change; what
// random drop does change is who loses — it spreads losses across
// connections (weakening the strict single-loser alternation) and it can
// discard queued ACKs, which drop-tail provably never does in this
// topology (§4.2).
#include <iostream>

#include "core/report.h"
#include "core/scenarios.h"
#include "util/table.h"

using namespace tcpdyn;

int main() {
  int failures = 0;

  core::Scenario tail = core::make_topo_scenario(core::fig4_twoway(0.01, 20));
  core::ScenarioSummary a = core::run_scenario(tail);
  core::Scenario rnd =
      core::make_topo_scenario(core::random_drop_twoway(0.01, 20));
  core::ScenarioSummary b = core::run_scenario(rnd);

  auto maxcomp = [](const core::ScenarioSummary& s) {
    double m = 0.0;
    for (const auto& [c, x] : s.ack) m = std::max(m, x.compressed_fraction);
    return m;
  };

  util::Table t({"discipline", "util fwd", "ACK-compressed", "cluster run",
                 "single-loser", "data-drop frac"});
  t.add_row({"drop-tail", util::fmt_pct(a.util_fwd),
             util::fmt_pct(maxcomp(a)),
             util::fmt(a.clustering_fwd.mean_run_length),
             util::fmt_pct(a.epochs.single_loser_fraction),
             util::fmt_pct(a.epochs.data_drop_fraction)});
  t.add_row({"random-drop", util::fmt_pct(b.util_fwd),
             util::fmt_pct(maxcomp(b)),
             util::fmt(b.clustering_fwd.mean_run_length),
             util::fmt_pct(b.epochs.single_loser_fraction),
             util::fmt_pct(b.epochs.data_drop_fraction)});
  std::cout << "Gateway discipline ablation (two-way, tau=0.01s, B=20)\n";
  t.print(std::cout);

  if (maxcomp(b) < 0.2) {
    ++failures;
    std::cout << "CLAIM FAILED: ACK-compression must persist under random "
                 "drop (source-side phenomenon)\n";
  }
  if (b.clustering_fwd.mean_run_length < 4.0) {
    ++failures;
    std::cout << "CLAIM FAILED: clustering must persist under random drop\n";
  }
  if (b.queue_sync.mode != core::SyncMode::kOutOfPhase) {
    ++failures;
    std::cout << "CLAIM FAILED: small-pipe out-of-phase mode should persist\n";
  }
  // Drop-tail never drops ACKs here; random drop does.
  if (a.epochs.data_drop_fraction < 0.999) {
    ++failures;
    std::cout << "CLAIM FAILED: drop-tail should drop only data packets\n";
  }
  if (b.epochs.data_drop_fraction > 0.98) {
    ++failures;
    std::cout << "CLAIM FAILED: random drop should discard some queued ACKs\n";
  }
  // Random drop spreads losses: strict single-loser epochs become rarer.
  if (b.epochs.single_loser_fraction > a.epochs.single_loser_fraction) {
    ++failures;
    std::cout << "CLAIM FAILED: random drop should weaken the single-loser "
                 "pattern\n";
  }
  std::cout << "bench_random_drop: " << (failures == 0 ? "OK" : "FAILURES")
            << "\n";
  return failures == 0 ? 0 : 1;
}
