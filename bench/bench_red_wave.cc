// E21 — congestion waves along a chain, RED vs drop-tail (with ECN).
//
// A chain of equal trunks carrying two-way traffic develops congestion
// waves: each hop's queue oscillation is a lagged copy of its upstream
// neighbour's, so the disturbance propagates with a measurable speed and
// decays with a measurable correlation length (the same detrend +
// cross-correlation machinery as the sync-mode analysis).
//
// Claims checked here:
//   * the wave exists under drop-tail: adjacent hops correlate well and the
//     mean adjacent lag is positive (the wave travels with the data)
//   * RED with ECN damps the wave: queue-length oscillation amplitude is
//     measurably smaller than drop-tail's at equal-or-better utilization
//     (marks pace the windows down before the buffer swings rail to rail)
//   * plain RED (drops, no ECN) also reduces the amplitude vs drop-tail
#include <iostream>

#include "core/analysis.h"
#include "core/report.h"
#include "core/topo_scenarios.h"
#include "util/table.h"

using namespace tcpdyn;
using core::Claim;

namespace {

struct WaveRun {
  core::WaveStats wave;
  double utilization = 0.0;
};

WaveRun run_wave(const net::QdiscConfig& qdisc, bool ecn, const char* label) {
  core::RedWaveParams p;
  p.qdisc = qdisc;
  p.ecn = ecn;
  core::Scenario sc = core::make_topo_scenario(core::red_wave_spec(p));
  core::ScenarioSummary s = core::run_scenario(sc);
  WaveRun out;
  out.wave = core::analyze_waves(s.result.ports, s.result.t_start,
                                 s.result.t_end);
  out.utilization = out.wave.mean_utilization;
  std::cout << label << ":\n"
            << "  adjacent lag        " << out.wave.mean_adjacent_lag_sec
            << " s (corr " << out.wave.mean_adjacent_correlation << ")\n"
            << "  wave speed          " << out.wave.wave_speed_hops_per_sec
            << " hops/s\n"
            << "  correlation length  " << out.wave.correlation_length_hops
            << " hops\n"
            << "  queue amplitude     " << out.wave.mean_amplitude
            << " packets (stddev, detrended)\n"
            << "  mean utilization    " << out.utilization << "\n\n";
  return out;
}

}  // namespace

int main() {
  int failures = 0;

  net::QdiscConfig droptail;  // kind defaults to kDropTail
  net::QdiscConfig red;
  red.kind = net::QdiscKind::kRed;
  net::QdiscConfig red_ecn = red;
  red_ecn.red.ecn = true;

  const WaveRun dt = run_wave(droptail, /*ecn=*/false, "drop-tail");
  const WaveRun rd = run_wave(red, /*ecn=*/false, "red");
  const WaveRun re = run_wave(red_ecn, /*ecn=*/true, "red-ecn");

  std::vector<Claim> claims;
  claims.push_back({"wave exists (drop-tail)", "adjacent hops correlate",
                    util::fmt(dt.wave.mean_adjacent_correlation),
                    !dt.wave.degenerate &&
                        dt.wave.mean_adjacent_correlation > 0.3});
  claims.push_back({"wave direction", "travels with the data (lag > 0)",
                    util::fmt(dt.wave.mean_adjacent_lag_sec) + " s",
                    dt.wave.mean_adjacent_lag_sec > 0.0});
  claims.push_back({"wave speed", "finite, set by the hop time",
                    util::fmt(dt.wave.wave_speed_hops_per_sec) + " hops/s",
                    dt.wave.wave_speed_hops_per_sec > 0.0});
  claims.push_back({"correlation length", "finite decay across hops",
                    util::fmt(dt.wave.correlation_length_hops) + " hops",
                    dt.wave.correlation_length_hops > 0.0});
  claims.push_back(
      {"RED+ECN damps the wave", "amplitude < drop-tail",
       util::fmt(re.wave.mean_amplitude) + " vs " +
           util::fmt(dt.wave.mean_amplitude) + " pkts",
       re.wave.mean_amplitude < dt.wave.mean_amplitude});
  claims.push_back({"RED damps the wave", "amplitude < drop-tail",
                    util::fmt(rd.wave.mean_amplitude) + " vs " +
                        util::fmt(dt.wave.mean_amplitude) + " pkts",
                    rd.wave.mean_amplitude < dt.wave.mean_amplitude});
  claims.push_back(
      {"utilization preserved", "RED+ECN >= drop-tail - 0.02",
       util::fmt_pct(re.utilization) + " vs " + util::fmt_pct(dt.utilization),
       re.utilization >= dt.utilization - 0.02});
  failures += core::print_claims(std::cout, "E21 congestion waves", claims);

  std::cout << "bench_red_wave: " << (failures == 0 ? "OK" : "FAILURES")
            << "\n";
  return failures == 0 ? 0 : 1;
}
