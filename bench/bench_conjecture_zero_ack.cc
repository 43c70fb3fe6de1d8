// E8 — §4.3.3: the zero-length-ACK fixed-window conjecture.
//
// For two fixed-window connections with zero-length ACKs and W1 >= W2 the
// paper conjectures exactly two regimes:
//   1. W1 > W2 + 2P : out-of-phase — exactly one line fully utilized, and
//      (per the §4.3.3 analysis that explains the adaptive modes) the two
//      queues reach very different maxima, so only one of them can ever
//      overflow: the seed of out-of-phase loss alternation;
//   2. W1 < W2 + 2P : in-phase — neither line fully utilized (strict), and
//      the queues reach the SAME maximum, so both overflow together: the
//      seed of in-phase loss synchronization.
// This bench sweeps (W1, W2, tau) across both regimes and checks the
// utilization pattern and the queue-maxima dichotomy for every point; the
// raw fine-timescale queue correlation is reported for reference.
#include <cmath>
#include <iostream>
#include <vector>

#include "core/report.h"
#include "core/scenarios.h"
#include "util/table.h"

using namespace tcpdyn;

namespace {

struct Case {
  std::uint32_t w1;
  std::uint32_t w2;
  double tau;
};

constexpr double kFull = 0.985;  // "fully utilized" tolerance

}  // namespace

int main() {
  int failures = 0;
  // 2P = 2 * bps * tau / (8 * 500) = 25 * tau packets.
  const std::vector<Case> cases = {
      // Regime 1: W1 > W2 + 2P.
      {30, 10, 0.2},   // 2P = 5,  30 > 15
      {30, 25, 0.01},  // 2P = 0.25 (Fig. 8's parameters)
      {60, 20, 1.0},   // 2P = 25, 60 > 45
      {40, 10, 0.4},   // 2P = 10, 40 > 20
      // Regime 2: W1 < W2 + 2P.
      {30, 28, 0.2},   // 2P = 5,  30 < 33
      {30, 25, 1.0},   // 2P = 25 (Fig. 9's parameters)
      {12, 10, 0.4},   // 2P = 10, 12 < 20
      {26, 25, 0.2},   // 2P = 5,  26 < 30
  };

  util::Table t({"W1", "W2", "2P", "predicted", "q1 max", "q2 max", "util 1",
                 "util 2", "rho", "holds"});
  for (const Case& c : cases) {
    const double two_p = 2.0 * 50'000.0 * c.tau / (8.0 * 500.0);
    const bool regime1 =
        static_cast<double>(c.w1) > static_cast<double>(c.w2) + two_p;
    core::Scenario sc =
        core::make_topo_scenario(core::zero_ack_fixed(c.w1, c.w2, c.tau));
    core::ScenarioSummary s = core::run_scenario(sc);
    const double q1 = s.result.ports[0].queue.max_in(s.result.t_start,
                                                     s.result.t_end);
    const double q2 = s.result.ports[1].queue.max_in(s.result.t_start,
                                                     s.result.t_end);

    const bool one_full = (s.util_fwd >= kFull) != (s.util_rev >= kFull);
    const bool none_full = s.util_fwd < kFull && s.util_rev < kFull;
    bool holds;
    std::string predicted;
    if (regime1) {
      predicted = "one full, maxima differ";
      holds = one_full && q1 > q2 + 5.0;
    } else {
      predicted = "neither full, maxima equal";
      holds = none_full && std::abs(q1 - q2) <= 1.0;
    }
    if (!holds) ++failures;
    t.add_row({std::to_string(c.w1), std::to_string(c.w2), util::fmt(two_p, 2),
               predicted, util::fmt(q1, 0), util::fmt(q2, 0),
               util::fmt_pct(s.util_fwd), util::fmt_pct(s.util_rev),
               util::fmt(s.queue_sync.correlation), holds ? "yes" : "NO"});
  }
  std::cout << "§4.3.3 conjecture, zero-length ACKs (W1 vs W2 + 2P)\n";
  t.print(std::cout);
  std::cout << "bench_conjecture_zero_ack: "
            << (failures == 0 ? "OK" : "FAILURES") << "\n";
  return failures == 0 ? 0 : 1;
}
