// E4 — Figures 4-5 and §4.3.1: two-way traffic, one Tahoe connection per
// direction, tau = 0.01 s (pipe P = 0.125 packets), 20-packet buffers.
//
// Paper claims reproduced here:
//   * square-wave queue fluctuations from ACK-compression
//   * out-of-phase window synchronization (one cwnd rises while the other falls)
//   * per congestion epoch: one connection loses 2 packets, the other 0,
//     with the loser alternating epoch to epoch
//   * bottleneck utilization ~70%, and it stays ~70% as buffers grow
//     (60, 120) — larger buffers do NOT restore throughput
#include <iostream>

#include "core/report.h"
#include "core/scenarios.h"
#include "util/table.h"

using namespace tcpdyn;
using core::Claim;

int main() {
  int failures = 0;

  // --- Figs. 4-5 at buffer 20 ---
  core::Scenario sc = core::make_topo_scenario(core::fig4_twoway(0.01, 20));
  core::ScenarioSummary s = core::run_scenario(sc);
  core::print_summary(std::cout, sc.name + " (buffer 20)", s);
  std::cout << '\n';
  core::print_queue_chart(std::cout, s.result.ports[0].queue, s.result.t_start,
                          s.result.t_start + 40.0, 100, 10,
                          "Fig.4 top: queue at switch 1 (first 40s of window)");
  core::print_queue_chart(std::cout, s.result.ports[1].queue, s.result.t_start,
                          s.result.t_start + 40.0, 100, 10,
                          "Fig.4 bottom: queue at switch 2");
  std::cout << '\n';

  double max_ack_compression = 0.0;
  for (const auto& [conn, a] : s.ack) {
    max_ack_compression = std::max(max_ack_compression, a.compressed_fraction);
  }

  std::vector<Claim> claims;
  claims.push_back({"utilization fwd", "~70% (well below one-way ~100%)",
                    util::fmt_pct(s.util_fwd),
                    s.util_fwd > 0.5 && s.util_fwd < 0.92});
  claims.push_back({"window sync", "out-of-phase",
                    core::to_string(s.cwnd_sync.mode),
                    s.cwnd_sync.mode == core::SyncMode::kOutOfPhase});
  claims.push_back({"drops per epoch", "2 (= total acceleration)",
                    util::fmt(s.epochs.mean_drops_per_epoch),
                    s.epochs.mean_drops_per_epoch > 1.5 &&
                        s.epochs.mean_drops_per_epoch < 2.8});
  claims.push_back({"single-loser epochs", "~100% (one conn takes both drops)",
                    util::fmt_pct(s.epochs.single_loser_fraction),
                    s.epochs.single_loser_fraction > 0.7});
  claims.push_back({"loser alternates", "yes, every epoch",
                    util::fmt_pct(s.epochs.loser_alternation_fraction),
                    s.epochs.loser_alternation_fraction > 0.6});
  claims.push_back({"ACK-compression", "large fraction of compressed gaps",
                    util::fmt_pct(max_ack_compression),
                    max_ack_compression > 0.2});
  claims.push_back({"rapid queue fluctuation", ">= several packets per tx time",
                    util::fmt(s.fluct_fwd.max_burst_rise) + " pkts burst",
                    s.fluct_fwd.max_burst_rise >= 3.0});
  claims.push_back({"packet clustering", "complete (long same-conn runs)",
                    "mean run " + util::fmt(s.clustering_fwd.mean_run_length),
                    s.clustering_fwd.mean_run_length > 4.0});

  // §4.3.1: "during this time the other connection is getting most of the
  // bandwidth" — the per-connection goodput series alternate.
  const core::SyncResult alt = core::classify_throughput_alternation(
      s.result.ports[0], 0, s.result.ports[1], 1, s.result.t_start,
      s.result.t_end, /*bin=*/2.5);
  claims.push_back({"bandwidth alternation", "goodput series out-of-phase",
                    std::string(core::to_string(alt.mode)) + " (rho=" +
                        util::fmt(alt.correlation) + ")",
                    alt.mode == core::SyncMode::kOutOfPhase});

  // §4.3.1: after the double drop (ssthresh = 2) the victim's window grows
  // sublinearly — "as the square root of time over the whole cycle" — not
  // exponential-then-linear.
  std::optional<double> exponent;
  for (std::size_t i = 0; i + 1 < s.epochs.epochs.size(); ++i) {
    const auto& e = s.epochs.epochs[i];
    if (!e.drops_by_conn.count(0)) continue;
    double cycle_end = s.epochs.epochs[i + 1].start - 0.5;
    for (std::size_t j = i + 1; j < s.epochs.epochs.size(); ++j) {
      if (s.epochs.epochs[j].drops_by_conn.count(0)) {
        cycle_end = s.epochs.epochs[j].start - 0.5;
        break;
      }
    }
    exponent = core::cwnd_growth_exponent(s.result.cwnd.at(0), e.end + 0.5,
                                          cycle_end);
    if (exponent) break;
  }
  claims.push_back(
      {"victim window regrowth", "sublinear (~sqrt of time) over the cycle",
       exponent ? "t^" + util::fmt(*exponent) : "unmeasured",
       exponent.has_value() && *exponent > 0.3 && *exponent < 0.95});
  failures += core::print_claims(std::cout, "Figs. 4-5 (buffer 20)", claims);

  // --- §4.3.1: utilization stays ~70% as buffers grow, because the
  // effective pipe (goodput x RTT, inflated by ACK queueing behind the
  // other connection's window) grows along with the buffer ---
  util::Table t({"buffer", "util fwd", "util rev", "sync (queue)",
                 "mean RTT conn0", "effective pipe (pkts)"});
  std::vector<double> pipes;
  for (std::size_t buffer : {20u, 60u, 120u}) {
    core::Scenario sb =
        core::make_topo_scenario(core::fig4_twoway(0.01, buffer));
    core::ScenarioSummary sum = core::run_scenario(sb);
    const core::EffectivePipe ep = core::effective_pipe(
        sum.result, 0, sum.result.t_start, sum.result.t_end);
    pipes.push_back(ep.packets);
    t.add_row({std::to_string(buffer), util::fmt_pct(sum.util_fwd),
               util::fmt_pct(sum.util_rev),
               core::to_string(sum.queue_sync.mode),
               util::fmt(ep.mean_rtt, 2) + "s", util::fmt(ep.packets, 1)});
    if (buffer > 20 && sum.util_fwd > 0.93) {
      ++failures;
      std::cout << "CLAIM FAILED: utilization should stay below optimal at "
                   "buffer "
                << buffer << "\n";
    }
  }
  std::cout << "\n§4.3.1: utilization vs buffer size (paper: stays ~70%; the "
               "effective pipe grows with the buffer)\n";
  t.print(std::cout);
  // The physical pipe is 0.125 packets; the effective pipe must dwarf it
  // and grow with the buffer.
  if (!(pipes[0] > 1.0 && pipes[2] > 2.0 * pipes[0])) {
    ++failures;
    std::cout << "CLAIM FAILED: effective pipe should far exceed the "
                 "physical pipe and grow with the buffer\n";
  }

  std::cout << "\nbench_fig4_5: " << (failures == 0 ? "OK" : "FAILURES")
            << "\n";
  return failures == 0 ? 0 : 1;
}
