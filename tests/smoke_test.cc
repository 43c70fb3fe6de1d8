// End-to-end smoke test: a two-way Tahoe run on the paper's dumbbell
// completes and produces sane traces.
#include <gtest/gtest.h>

#include "core/scenarios.h"

namespace tcpdyn::core {
namespace {

TEST(Smoke, TwoWayTahoeRuns) {
  Scenario sc = make_topo_scenario(fig4_twoway());
  sc.warmup = sim::Time::seconds(20.0);
  sc.duration = sim::Time::seconds(60.0);
  const ScenarioSummary s = run_scenario(sc);
  EXPECT_GT(s.util_fwd, 0.2);
  EXPECT_GT(s.util_rev, 0.2);
  EXPECT_LE(s.util_fwd, 1.0);
  EXPECT_GT(s.result.delivered.at(0), 100u);
  EXPECT_GT(s.result.delivered.at(1), 100u);
  EXPECT_FALSE(s.result.ports[0].queue.empty());
}

}  // namespace
}  // namespace tcpdyn::core
