// E10 — §5: the delayed-ACK option. Delaying ACKs (ACK every second packet
// or on a timer) introduces an element of pacing at the receiver.
//
// Paper claims reproduced here:
//   * with small windows (maxwnd = 8) the clusters are cut into small
//     partial clusters, minimizing ACK-compression
//   * with large windows the partial clusters are of appreciable size and
//     ACK-compression becomes significant again — delayed ACKs reduce but
//     do NOT eliminate the phenomenon
#include <iostream>

#include "core/report.h"
#include "core/scenarios.h"
#include "util/table.h"

using namespace tcpdyn;

namespace {

struct Row {
  std::string label;
  core::ScenarioSummary s;
};

double max_compression(const core::ScenarioSummary& s) {
  double m = 0.0;
  for (const auto& [conn, a] : s.ack) m = std::max(m, a.compressed_fraction);
  return m;
}

}  // namespace

int main() {
  int failures = 0;

  core::Scenario off = core::make_topo_scenario(core::fig4_twoway(0.01, 20));
  core::Scenario small_wnd =
      core::make_topo_scenario(core::delayed_ack_twoway(8, 0.01, 20));
  core::Scenario large_wnd =
      core::make_topo_scenario(core::delayed_ack_twoway(1000, 0.01, 20));

  std::vector<Row> rows;
  rows.push_back({"delayed-ACK off", core::run_scenario(off)});
  rows.push_back({"delayed-ACK on, maxwnd=8", core::run_scenario(small_wnd)});
  rows.push_back({"delayed-ACK on, maxwnd=1000",
                  core::run_scenario(large_wnd)});

  util::Table t({"configuration", "ACK-compressed fraction",
                 "mean cluster run", "max burst rise", "util fwd"});
  for (const Row& r : rows) {
    t.add_row({r.label, util::fmt_pct(max_compression(r.s)),
               util::fmt(r.s.clustering_fwd.mean_run_length),
               util::fmt(r.s.fluct_fwd.max_burst_rise, 0),
               util::fmt_pct(r.s.util_fwd)});
  }
  std::cout << "§5: effect of the delayed-ACK option (tau=0.01s, B=20)\n";
  t.print(std::cout);

  // The paper's observable for "the effect of ACK-compression" is the
  // magnitude of the rapid queue fluctuations, and its mechanism is the
  // cluster size; compressed-gap fractions are reported above but are not
  // comparable across configurations (delayed ACKs halve the ACK count).
  const double burst_off = rows[0].s.fluct_fwd.max_burst_rise;
  const double burst_small = rows[1].s.fluct_fwd.max_burst_rise;
  const double burst_large = rows[2].s.fluct_fwd.max_burst_rise;

  if (!(rows[1].s.clustering_fwd.mean_run_length <
        0.6 * rows[0].s.clustering_fwd.mean_run_length)) {
    ++failures;
    std::cout << "CLAIM FAILED: small-window delayed ACKs should cut the "
                 "clusters into small partial clusters\n";
  }
  if (!(burst_small < 0.6 * burst_off)) {
    ++failures;
    std::cout << "CLAIM FAILED: small-window delayed ACKs should minimize "
                 "the ACK-compression queue bursts (got "
              << burst_small << " vs off " << burst_off << ")\n";
  }
  if (!(burst_large > burst_small)) {
    ++failures;
    std::cout << "CLAIM FAILED: with large windows the compression effect "
                 "should become significant again (reduced, not eliminated)\n";
  }
  std::cout << "bench_delayed_ack: " << (failures == 0 ? "OK" : "FAILURES")
            << "\n";
  return failures == 0 ? 0 : 1;
}
