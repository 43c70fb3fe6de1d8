// cc_matrix: the head-to-head harness itself. Every cell must close its
// conservation ledger (run_cc_matrix throws otherwise), produce sane
// goodput/share/Jain numbers, and be exactly reproducible run-to-run. Also
// covers the mixed-algorithm two-way scenario the sweep determinism gate
// diffs.
#include <gtest/gtest.h>

#include <sstream>

#include "core/cc_matrix.h"

namespace tcpdyn::core {
namespace {

CcMatrixParams small_params() {
  CcMatrixParams p;
  p.algos = {tcp::CcAlgorithm::kTahoe, tcp::CcAlgorithm::kCubic,
             tcp::CcAlgorithm::kVegas};
  p.warmup_sec = 5.0;
  p.duration_sec = 20.0;
  p.audit = AuditMode::kFull;
  return p;
}

TEST(CcMatrix, CellsAreSaneAndLedgerCloses) {
  const CcMatrixResult m = run_cc_matrix(small_params());
  ASSERT_EQ(m.algos.size(), 3u);
  ASSERT_EQ(m.cells.size(), 9u);
  EXPECT_GT(m.events, 0u);
  EXPECT_GT(m.audit.created, 0u);
  // Per-cause attribution always accounts for every drop.
  EXPECT_EQ(m.audit.drops_queue + m.audit.drops_down + m.audit.drops_fault,
            m.audit.dropped);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      const CcMatrixCell& c = m.at(i, j);
      EXPECT_EQ(c.row, m.algos[i]);
      EXPECT_EQ(c.col, m.algos[j]);
      EXPECT_GT(c.goodput_row, 0.0) << i << "," << j;
      EXPECT_GT(c.goodput_col, 0.0) << i << "," << j;
      EXPECT_GT(c.share_row, 0.0);
      EXPECT_LT(c.share_row, 1.0);
      EXPECT_GT(c.jain, 0.0);
      EXPECT_LE(c.jain, 1.0);
      EXPECT_GT(c.util_fwd, 0.0);
      EXPECT_LE(c.util_fwd, 1.0);
    }
  }
}

TEST(CcMatrix, ReproducibleByteForByte) {
  std::ostringstream a, b;
  print_cc_matrix(a, run_cc_matrix(small_params()));
  print_cc_matrix(b, run_cc_matrix(small_params()));
  EXPECT_FALSE(a.str().empty());
  EXPECT_EQ(a.str(), b.str());
}

TEST(CcMatrix, LossBasedBeatsDelayBased) {
  // The classic result the matrix exists to show: a loss-based controller
  // sharing a drop-tail bottleneck with Vegas takes the larger share
  // (Vegas backs off on queueing delay long before the queue overflows).
  CcMatrixParams p = small_params();
  p.duration_sec = 60.0;
  const CcMatrixResult m = run_cc_matrix(p);
  const CcMatrixCell& tahoe_vs_vegas = m.at(0, 2);
  EXPECT_GT(tahoe_vs_vegas.share_row, 0.5);
}

TEST(CcMixScenario, MixedFlowsShareOneBottleneck) {
  Scenario sc = make_topo_scenario(ccmix_twoway(
      {tcp::CcAlgorithm::kTahoe, tcp::CcAlgorithm::kNewReno,
       tcp::CcAlgorithm::kCubic, tcp::CcAlgorithm::kVegas},
      /*conns=*/4));
  sc.warmup = sim::Time::seconds(5.0);
  sc.duration = sim::Time::seconds(30.0);
  sc.exp->set_audit_mode(AuditMode::kFull);
  ASSERT_EQ(sc.exp->connection_count(), 4u);
  // One flow per algorithm, as the cycle dictates.
  EXPECT_EQ(sc.exp->connection(0).algorithm(), tcp::CcAlgorithm::kTahoe);
  EXPECT_EQ(sc.exp->connection(1).algorithm(), tcp::CcAlgorithm::kNewReno);
  EXPECT_EQ(sc.exp->connection(2).algorithm(), tcp::CcAlgorithm::kCubic);
  EXPECT_EQ(sc.exp->connection(3).algorithm(), tcp::CcAlgorithm::kVegas);
  // Runs to completion with the full ledger: conservation is the assertion.
  const ScenarioSummary s = run_scenario(sc);
  EXPECT_GT(s.result.audit.created, 0u);
  EXPECT_GT(s.flows.goodput_min, 0.0);
  EXPECT_GT(s.flows.jain, 0.0);
  // Every flow moved data through the shared forward/reverse bottleneck.
  EXPECT_EQ(s.result.delivered.size(), 4u);
}

}  // namespace
}  // namespace tcpdyn::core
