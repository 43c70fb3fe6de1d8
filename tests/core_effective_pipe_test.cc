// Effective-pipe analysis (§4.2/§4.3.1): goodput x measured RTT.
#include <gtest/gtest.h>

#include "core/analysis.h"
#include "core/scenarios.h"

namespace tcpdyn::core {
namespace {

TEST(EffectivePipe, SyntheticArithmetic) {
  ExperimentResult r;
  r.t_start = 0.0;
  r.t_end = 10.0;
  r.delivered[0] = 100;  // 10 pps over the 10 s window
  r.rtt_samples[0] = {{1.0, 0.5}, {2.0, 1.5}, {99.0, 9.0}};  // last outside
  const EffectivePipe ep = effective_pipe(r, 0, 0.0, 10.0);
  EXPECT_DOUBLE_EQ(ep.goodput_pps, 10.0);
  EXPECT_DOUBLE_EQ(ep.mean_rtt, 1.0);
  EXPECT_DOUBLE_EQ(ep.packets, 10.0);
}

TEST(EffectivePipe, MissingConnectionIsZero) {
  ExperimentResult r;
  r.t_start = 0.0;
  r.t_end = 10.0;
  const EffectivePipe ep = effective_pipe(r, 7, 0.0, 10.0);
  EXPECT_DOUBLE_EQ(ep.packets, 0.0);
  EXPECT_DOUBLE_EQ(ep.mean_rtt, 0.0);
}

TEST(EffectivePipe, DegenerateWindow) {
  ExperimentResult r;
  const EffectivePipe ep = effective_pipe(r, 0, 5.0, 5.0);
  EXPECT_DOUBLE_EQ(ep.packets, 0.0);
}

TEST(EffectivePipe, OneWayMatchesPhysicalPipePlusQueue) {
  // Single one-way connection at tau=1 s: RTT = 2 s propagation + queueing
  // + transmission; effective pipe = 12.5 pkt/s * RTT. With buffer 20 the
  // queue holds most of the window, so the effective pipe ~ 12.5 * RTT
  // must land between the physical pipe (12.5) and pipe + buffer (~33).
  Scenario sc = make_topo_scenario(fig2_one_way(1, 1.0, 20));
  sc.warmup = sim::Time::seconds(30.0);
  sc.duration = sim::Time::seconds(120.0);
  const ScenarioSummary s = run_scenario(sc);
  const EffectivePipe ep =
      effective_pipe(s.result, 0, s.result.t_start, s.result.t_end);
  EXPECT_GT(ep.packets, 12.0);
  EXPECT_LT(ep.packets, 36.0);
  EXPECT_GT(ep.mean_rtt, 2.0);  // at least the round-trip propagation
}

TEST(EffectivePipe, TwoWayGrowsWithBuffer) {
  // The §4.3.1 mechanism: the other connection's queued window inflates the
  // ACK path delay, so the effective pipe scales with the buffer.
  auto measure = [](std::size_t buffer) {
    Scenario sc = make_topo_scenario(fig4_twoway(0.01, buffer));
    sc.warmup = sim::Time::seconds(80.0);
    sc.duration = sim::Time::seconds(200.0);
    const ScenarioSummary s = run_scenario(sc);
    return effective_pipe(s.result, 0, s.result.t_start, s.result.t_end)
        .packets;
  };
  const double small = measure(20);
  const double large = measure(80);
  EXPECT_GT(small, 1.0);          // far above the 0.125-packet physical pipe
  EXPECT_GT(large, 1.8 * small);  // grows roughly with the buffer
}

TEST(RttSamples, RecordedAndOrdered) {
  Scenario sc = make_topo_scenario(fig2_one_way(1, 0.01, 20));
  sc.warmup = sim::Time::seconds(5.0);
  sc.duration = sim::Time::seconds(30.0);
  const ScenarioSummary s = run_scenario(sc);
  ASSERT_TRUE(s.result.rtt_samples.contains(0));
  const auto& samples = s.result.rtt_samples.at(0);
  ASSERT_GT(samples.size(), 20u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].first, samples[i - 1].first);
  }
  // Every RTT is at least the no-queue path time and at most buffer-bound.
  for (const auto& [t, rtt] : samples) {
    EXPECT_GT(rtt, 0.08);  // one bottleneck transmission minimum
    EXPECT_LT(rtt, 5.0);
  }
}

}  // namespace
}  // namespace tcpdyn::core
