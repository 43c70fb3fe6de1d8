// Long-horizon stability: one simulated hour of each headline configuration.
// Guards against slow drift (leaking busy intervals, cwnd runaway, seq
// wraparound trouble, starvation setting in late) that short tests miss.
#include <gtest/gtest.h>

#include "core/analysis.h"
#include "core/scenarios.h"

namespace tcpdyn::core {
namespace {

TEST(LongRun, TwoWaySmallPipeOneHour) {
  Scenario sc = make_topo_scenario(fig4_twoway(0.01, 20));
  sc.warmup = sim::Time::seconds(600.0);
  sc.duration = sim::Time::seconds(3000.0);
  const ScenarioSummary s = run_scenario(sc);
  // The limit cycle persists: epochs keep coming at a steady cadence.
  EXPECT_GT(s.epochs.epochs.size(), 100u);
  EXPECT_NEAR(s.epochs.mean_drops_per_epoch, 2.0, 0.5);
  EXPECT_GT(s.epochs.loser_alternation_fraction, 0.8);
  EXPECT_GT(s.util_fwd, 0.5);
  EXPECT_LT(s.util_fwd, 0.92);
  // Both connections keep making progress for the whole hour.
  EXPECT_GT(s.result.delivered.at(0), 10000u);
  EXPECT_GT(s.result.delivered.at(1), 10000u);
  // Aggregate goodput can never exceed two directions of capacity.
  const double total = static_cast<double>(s.result.delivered.at(0) +
                                           s.result.delivered.at(1));
  EXPECT_LE(total / 3000.0, 25.1);
}

TEST(LongRun, OneWayOneHourStaysClocked) {
  Scenario sc = make_topo_scenario(fig2_one_way(3, 1.0, 20));
  sc.warmup = sim::Time::seconds(600.0);
  sc.duration = sim::Time::seconds(3000.0);
  const ScenarioSummary s = run_scenario(sc);
  EXPECT_GT(s.util_fwd, 0.82);
  EXPECT_NEAR(s.epochs.mean_drops_per_epoch, 3.0, 0.5);
  // ACK clocking never degrades in one-way traffic.
  for (const auto& [conn, a] : s.ack) {
    EXPECT_LT(a.compressed_fraction, 0.01) << "conn " << conn;
  }
  // Period stays at the Fig. 2 value all hour.
  ASSERT_TRUE(s.period_fwd.has_value());
  EXPECT_NEAR(*s.period_fwd, 34.0, 5.0);
}

TEST(LongRun, FixedWindowSquareWavesForever) {
  Scenario sc = make_topo_scenario(fig8_fixed_window(0.01, 30, 25));
  sc.warmup = sim::Time::seconds(600.0);
  sc.duration = sim::Time::seconds(3000.0);
  const ScenarioSummary s = run_scenario(sc);
  EXPECT_TRUE(s.result.drops.empty());
  // The oscillation amplitude is constant: the last ten minutes look like
  // the first ten.
  const double early_max =
      s.result.ports[0].queue.max_in(s.result.t_start, s.result.t_start + 600);
  const double late_max =
      s.result.ports[0].queue.max_in(s.result.t_end - 600, s.result.t_end);
  EXPECT_DOUBLE_EQ(early_max, late_max);
  EXPECT_NEAR(early_max, 55.0, 2.0);
  EXPECT_GT(s.util_fwd, 0.99);
}

}  // namespace
}  // namespace tcpdyn::core
