// E12 — pacing ablation (the paper's §6 design implication made
// executable). The paper conjectures that ACK-compression and the
// synchronization pathologies afflict any NONPACED window algorithm,
// because both rest on packet clustering; pacing the sources should break
// the clustering and with it the compression.
//
// Here both directions of the Figs. 4-5 configuration are run twice:
// nonpaced (stock Tahoe) vs paced at the bottleneck data rate (one packet
// per 80 ms). Expected: paced traffic shows far less ACK-compression,
// smaller rapid fluctuations, and higher utilization.
#include <iostream>

#include "core/report.h"
#include "core/scenarios.h"
#include "util/table.h"

using namespace tcpdyn;

namespace {
double max_compression(const core::ScenarioSummary& s) {
  double m = 0.0;
  for (const auto& [conn, a] : s.ack) m = std::max(m, a.compressed_fraction);
  return m;
}
}  // namespace

int main() {
  int failures = 0;

  core::Scenario nonpaced =
      core::make_topo_scenario(core::fig4_twoway(0.01, 20));
  core::ScenarioSummary a = core::run_scenario(nonpaced);
  core::Scenario paced = core::make_topo_scenario(core::paced_twoway(0.01, 20));
  core::ScenarioSummary b = core::run_scenario(paced);

  util::Table t({"variant", "ACK-compressed", "mean cluster run",
                 "max burst rise", "util fwd", "util rev"});
  t.add_row({"nonpaced Tahoe", util::fmt_pct(max_compression(a)),
             util::fmt(a.clustering_fwd.mean_run_length),
             util::fmt(a.fluct_fwd.max_burst_rise, 0), util::fmt_pct(a.util_fwd),
             util::fmt_pct(a.util_rev)});
  t.add_row({"paced Tahoe (80ms)", util::fmt_pct(max_compression(b)),
             util::fmt(b.clustering_fwd.mean_run_length),
             util::fmt(b.fluct_fwd.max_burst_rise, 0), util::fmt_pct(b.util_fwd),
             util::fmt_pct(b.util_rev)});
  std::cout << "Pacing ablation (two-way, tau=0.01s, B=20)\n";
  t.print(std::cout);

  if (!(max_compression(b) < 0.5 * max_compression(a))) {
    ++failures;
    std::cout << "CLAIM FAILED: pacing should strongly reduce "
                 "ACK-compression\n";
  }
  if (!(b.fluct_fwd.max_burst_rise <= a.fluct_fwd.max_burst_rise)) {
    ++failures;
    std::cout << "CLAIM FAILED: pacing should not increase rapid "
                 "fluctuations\n";
  }
  if (!(b.util_fwd + b.util_rev > a.util_fwd + a.util_rev)) {
    ++failures;
    std::cout << "CLAIM FAILED: pacing should improve total utilization\n";
  }
  std::cout << "bench_pacing_ablation: " << (failures == 0 ? "OK" : "FAILURES")
            << "\n";
  return failures == 0 ? 0 : 1;
}
