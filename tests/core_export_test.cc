// CSV export and the multi-host (heterogeneous-RTT) dumbbell builder.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/csv_export.h"
#include "core/dumbbell.h"
#include "core/scenarios.h"

namespace tcpdyn::core {
namespace {

namespace fs = std::filesystem;

std::size_t line_count(const std::string& path) {
  std::ifstream in(path);
  std::size_t n = 0;
  std::string line;
  while (std::getline(in, line)) ++n;
  return n;
}

TEST(CsvExport, WritesAllTraceKinds) {
  Scenario sc = make_topo_scenario(fig4_twoway(0.01, 20));
  sc.warmup = sim::Time::seconds(5.0);
  sc.duration = sim::Time::seconds(30.0);
  const ScenarioSummary s = run_scenario(sc);

  const fs::path dir = fs::temp_directory_path() / "tcpdyn_export_test";
  fs::create_directories(dir);
  const auto written = export_csv(s.result, dir.string(), "fig4");
  // 2 queue files + cwnd + drops + ack arrivals.
  ASSERT_EQ(written.size(), 5u);
  for (const auto& path : written) {
    EXPECT_TRUE(fs::exists(path)) << path;
    EXPECT_GE(line_count(path), 1u) << path;  // at least the header
  }
  // Queue traces carry real data.
  EXPECT_GT(line_count(written[0]), 100u);
  // Drops happened in 30 s of two-way congestion.
  EXPECT_GT(line_count(written[3]), 1u);
  fs::remove_all(dir);
}

TEST(CsvExport, SanitizesPortNames) {
  Scenario sc = make_topo_scenario(fig4_twoway(0.01, 20));
  sc.warmup = sim::Time::seconds(1.0);
  sc.duration = sim::Time::seconds(5.0);
  const ScenarioSummary s = run_scenario(sc);
  const fs::path dir = fs::temp_directory_path() / "tcpdyn_export_test2";
  fs::create_directories(dir);
  const auto written = export_csv(s.result, dir.string(), "x");
  for (const auto& path : written) {
    const std::string base = fs::path(path).filename().string();
    EXPECT_EQ(base.find('>'), std::string::npos) << base;
  }
  fs::remove_all(dir);
}

TEST(MultiHostDumbbell, BuildsOneHostPairPerConnection) {
  Experiment exp;
  DumbbellParams p;
  const std::vector<sim::Time> delays{sim::Time::microseconds(100),
                                      sim::Time::milliseconds(10),
                                      sim::Time::milliseconds(40)};
  const CompiledTopology h =
      multihost_dumbbell_topology(p, delays).compile(exp);
  ASSERT_EQ(h.node_ids.size(), 8u);  // two switches + three host pairs
  for (std::size_t i = 0; i < 3; ++i) {
    tcp::ConnectionConfig cfg;
    cfg.id = static_cast<net::ConnId>(i);
    cfg.src_host = h.id("A" + std::to_string(i + 1));
    cfg.dst_host = h.id("B" + std::to_string(i + 1));
    exp.add_connection(cfg);
  }
  const ExperimentResult r =
      exp.run(sim::Time::seconds(5.0), sim::Time::seconds(30.0));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(r.delivered.at(static_cast<net::ConnId>(i)), 10u)
        << "conn " << i;
  }
  // All three share the single bottleneck: aggregate ~ capacity.
  const double total = static_cast<double>(
      r.delivered.at(0) + r.delivered.at(1) + r.delivered.at(2));
  EXPECT_NEAR(total / 30.0, 12.5, 1.5);
}

TEST(MultiHostDumbbell, RttSpreadChangesRoundTripTimes) {
  // A connection with a 40 ms access delay has a visibly longer RTT: its
  // first ACK arrives later than the 0.1 ms connection's.
  Experiment exp;
  DumbbellParams p;
  const std::vector<sim::Time> delays{sim::Time::microseconds(100),
                                      sim::Time::milliseconds(40)};
  const CompiledTopology h =
      multihost_dumbbell_topology(p, delays).compile(exp);
  for (std::size_t i = 0; i < 2; ++i) {
    tcp::ConnectionConfig cfg;
    cfg.id = static_cast<net::ConnId>(i);
    cfg.src_host = h.id("A" + std::to_string(i + 1));
    cfg.dst_host = h.id("B" + std::to_string(i + 1));
    exp.add_connection(cfg);
  }
  const ExperimentResult r =
      exp.run(sim::Time::seconds(0.0), sim::Time::seconds(10.0));
  ASSERT_FALSE(r.ack_arrivals.at(0).empty());
  ASSERT_FALSE(r.ack_arrivals.at(1).empty());
  // Access delay appears 4x in the path (two links, both directions): the
  // slow connection's first ACK lags by ~4 * (40 - 0.1) ms.
  EXPECT_GT(r.ack_arrivals.at(1).front() - r.ack_arrivals.at(0).front(),
            0.1);
}

TEST(RttHeterogeneityScenario, ClusteringDegradesWithSpread) {
  Scenario equal = make_topo_scenario(rtt_heterogeneity(3, 0.0));
  equal.warmup = sim::Time::seconds(50.0);
  equal.duration = sim::Time::seconds(150.0);
  Scenario spread = make_topo_scenario(rtt_heterogeneity(3, 0.32));
  spread.warmup = sim::Time::seconds(50.0);
  spread.duration = sim::Time::seconds(150.0);
  const ScenarioSummary a = run_scenario(equal);
  const ScenarioSummary b = run_scenario(spread);
  EXPECT_LT(b.clustering_fwd.mean_run_length,
            0.8 * a.clustering_fwd.mean_run_length);
}

}  // namespace
}  // namespace tcpdyn::core
