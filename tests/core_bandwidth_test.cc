// Tests for the time-resolved bandwidth analysis: throughput_series,
// classify_throughput_alternation, and cwnd_growth_exponent.
#include <gtest/gtest.h>

#include <cmath>

#include "core/analysis.h"
#include "core/scenarios.h"

namespace tcpdyn::core {
namespace {

TEST(ThroughputSeries, BinsDeparturesAsRate) {
  PortTrace pt;
  // Conn 0: 3 departures in [0,1), 1 in [1,2). Conn 1 and ACKs: ignored.
  pt.departures = {{0.1, 0, true},  {0.5, 0, true}, {0.9, 0, true},
                   {1.5, 0, true},  {0.2, 1, true}, {0.3, 0, false}};
  const auto s = throughput_series(pt, 0, 0.0, 2.0, 1.0);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0], 3.0);  // packets per second
  EXPECT_DOUBLE_EQ(s[1], 1.0);
}

TEST(ThroughputSeries, SubSecondBins) {
  PortTrace pt;
  pt.departures = {{0.1, 0, true}, {0.35, 0, true}};
  const auto s = throughput_series(pt, 0, 0.0, 0.5, 0.25);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0], 4.0);  // 1 packet / 0.25 s
  EXPECT_DOUBLE_EQ(s[1], 4.0);
}

TEST(ThroughputSeries, DegenerateArgs) {
  PortTrace pt;
  EXPECT_TRUE(throughput_series(pt, 0, 0.0, 1.0, 0.0).empty());
  EXPECT_TRUE(throughput_series(pt, 0, 1.0, 0.0, 0.1).empty());
}

TEST(ThroughputAlternation, SyntheticAntiphase) {
  PortTrace a, b;
  // Conn 0 busy in even seconds, conn 1 busy in odd seconds.
  for (int sec = 0; sec < 40; ++sec) {
    for (int k = 0; k < 10; ++k) {
      const double t = sec + 0.05 + k * 0.09;
      if (sec % 2 == 0) {
        a.departures.push_back({t, 0, true});
      } else {
        b.departures.push_back({t, 1, true});
      }
    }
  }
  const SyncResult r =
      classify_throughput_alternation(a, 0, b, 1, 0.0, 40.0, 1.0);
  EXPECT_EQ(r.mode, SyncMode::kOutOfPhase);
  EXPECT_LT(r.correlation, -0.9);
}

TEST(ThroughputAlternation, SyntheticCoMovement) {
  PortTrace a, b;
  for (int sec = 0; sec < 40; ++sec) {
    const int rate = sec % 2 == 0 ? 10 : 2;
    for (int k = 0; k < rate; ++k) {
      const double t = sec + 0.04 + k * 0.05;
      a.departures.push_back({t, 0, true});
      b.departures.push_back({t, 1, true});
    }
  }
  const SyncResult r =
      classify_throughput_alternation(a, 0, b, 1, 0.0, 40.0, 1.0);
  EXPECT_EQ(r.mode, SyncMode::kInPhase);
}

TEST(CwndGrowthExponent, RecoversKnownPowerLaws) {
  for (const double b : {0.5, 1.0, 2.0}) {
    util::TimeSeries cwnd;
    for (double t = 0.05; t <= 50.0; t += 0.05) {
      cwnd.record(t, 2.0 * std::pow(t, b));
    }
    const auto fit = cwnd_growth_exponent(cwnd, 0.0, 50.0, 0.1);
    ASSERT_TRUE(fit.has_value()) << "b=" << b;
    EXPECT_NEAR(*fit, b, 0.05) << "b=" << b;
  }
}

TEST(CwndGrowthExponent, TooFewSamples) {
  util::TimeSeries cwnd;
  cwnd.record(0.0, 1.0);
  EXPECT_FALSE(cwnd_growth_exponent(cwnd, 0.0, 0.2, 0.1).has_value());
  EXPECT_FALSE(cwnd_growth_exponent(cwnd, 5.0, 1.0).has_value());
}

TEST(BandwidthAlternation, EndToEndTwoWay) {
  // The real Figs. 4-5 configuration shows the §4.3.1 bandwidth handoff.
  Scenario sc = make_topo_scenario(fig4_twoway(0.01, 20));
  sc.warmup = sim::Time::seconds(80.0);
  sc.duration = sim::Time::seconds(250.0);
  const ScenarioSummary s = run_scenario(sc);
  const SyncResult r = classify_throughput_alternation(
      s.result.ports[0], 0, s.result.ports[1], 1, s.result.t_start,
      s.result.t_end, 2.5);
  EXPECT_EQ(r.mode, SyncMode::kOutOfPhase);
  EXPECT_LT(r.correlation, -0.5);
}

}  // namespace
}  // namespace tcpdyn::core
