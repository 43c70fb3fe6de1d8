// E14 — the paper's generality conjecture (§1, §5): "we conjecture that any
// nonpaced window-based congestion control algorithm will exhibit these two
// phenomena." BSD 4.3-Reno (fast recovery — Jacobson's Tahoe -> Reno
// evolution, the paper's reference [7]) changes the loss response but not
// the ACK-triggered transmission pattern, so ACK-compression, clustering,
// and the out-of-phase mode must all persist.
#include <iostream>

#include "core/report.h"
#include "core/scenarios.h"
#include "util/table.h"

using namespace tcpdyn;
using core::Claim;

int main() {
  int failures = 0;

  core::Scenario sc = core::make_topo_scenario(core::reno_twoway(0.01, 20));
  core::ScenarioSummary s = core::run_scenario(sc);
  core::print_summary(std::cout, sc.name, s);
  std::cout << '\n';

  double max_compressed = 0.0;
  for (const auto& [conn, a] : s.ack) {
    max_compressed = std::max(max_compressed, a.compressed_fraction);
  }

  std::vector<Claim> claims;
  claims.push_back({"ACK-compression", "persists under Reno",
                    util::fmt_pct(max_compressed), max_compressed > 0.2});
  claims.push_back({"packet clustering", "persists (nonpaced sender)",
                    "mean run " + util::fmt(s.clustering_fwd.mean_run_length),
                    s.clustering_fwd.mean_run_length > 4.0});
  claims.push_back({"window sync", "out-of-phase (small pipe)",
                    core::to_string(s.cwnd_sync.mode),
                    s.cwnd_sync.mode == core::SyncMode::kOutOfPhase});
  claims.push_back({"rapid fluctuations", "square waves persist",
                    util::fmt(s.fluct_fwd.max_burst_rise, 0) + " pkts/tx",
                    s.fluct_fwd.max_burst_rise >= 3.0});
  claims.push_back({"utilization", "below optimal",
                    util::fmt_pct(s.util_fwd),
                    s.util_fwd > 0.4 && s.util_fwd < 0.95});
  claims.push_back({"drops per epoch", "= total acceleration (2)",
                    util::fmt(s.epochs.mean_drops_per_epoch),
                    s.epochs.mean_drops_per_epoch > 1.4 &&
                        s.epochs.mean_drops_per_epoch < 3.0});
  failures +=
      core::print_claims(std::cout, "Reno generality conjecture", claims);

  std::cout << "bench_reno_twoway: " << (failures == 0 ? "OK" : "FAILURES")
            << "\n";
  return failures == 0 ? 0 : 1;
}
