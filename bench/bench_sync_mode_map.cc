// E9 — §4.3.3 (adaptive-window version): which synchronization mode does
// two-way Tahoe traffic settle into, as a function of buffer size B and pipe
// size P?
//
// Paper: "typically for a fixed buffer size, the synchronization is in-phase
// for large P and out-of-phase for small P. Similarly, for a fixed pipe
// size, the synchronization is usually in-phase for small buffers and
// out-of-phase for large buffers." (Increasing B raises the window
// difference at the congestion epoch; increasing P makes W1 > W2 + 2P harder
// to satisfy.)
//
// The (B, tau) grid runs through core::SweepRunner — one independent
// simulation per worker thread — and the map is rebuilt from the result
// table, whose row order is point-index order regardless of thread count.
#include <iostream>
#include <vector>

#include "core/report.h"
#include "core/scenarios.h"
#include "core/sweep.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace tcpdyn;

int main() {
  int failures = 0;
  const std::vector<double> taus = {0.01, 0.25, 1.0};
  const std::vector<double> buffers = {10, 20, 60};

  // Axis order (buffer, tau): tau varies fastest, so row index i*3+j is
  // buffers[i] x taus[j].
  core::SweepGrid grid({{"buffer", buffers}, {"tau", taus}});
  core::SweepRunner runner(grid,
                           {.jobs = util::ThreadPool::default_jobs(),
                            .seed = 1,
                            .progress = false});
  const core::SweepTable result =
      runner.run([](const core::SweepPoint& pt) {
        core::Scenario sc = core::make_topo_scenario(core::fig4_twoway(
            pt.value("tau"), static_cast<std::size_t>(pt.value("buffer"))));
        if (pt.value("tau") >= 0.5) {
          sc.duration = sim::Time::seconds(800.0);
          sc.epoch_gap_sec = 8.0;
        }
        core::ScenarioSummary s = core::run_scenario(sc);
        core::SweepRow row = core::summary_row(pt, s);
        // Classify on cwnd when available; it is the paper's definition of
        // window synchronization. Fall back to queues.
        row.add("mode", std::string(core::to_string(
                            s.cwnd_sync.mode != core::SyncMode::kUnclassified
                                ? s.cwnd_sync.mode
                                : s.queue_sync.mode)));
        return row;
      });

  util::Table t({"buffer \\ tau (P)", "0.01s (P=0.125)", "0.25s (P=3.125)",
                 "1s (P=12.5)"});
  // mode[i][j] for buffers[i] x taus[j]
  std::vector<std::vector<std::string>> modes(
      buffers.size(), std::vector<std::string>(taus.size()));
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    std::vector<std::string> row{util::fmt(buffers[i], 0)};
    for (std::size_t j = 0; j < taus.size(); ++j) {
      const core::SweepRow& r = result.rows()[i * taus.size() + j];
      modes[i][j] = r.text("mode");
      row.push_back(modes[i][j] + " (rho=" +
                    util::fmt(r.number("cwnd_sync_rho")) + ")");
    }
    t.add_row(row);
  }
  std::cout << "Synchronization-mode map for two-way Tahoe traffic\n";
  t.print(std::cout);

  // Shape checks on the corners the paper calls out.
  if (modes[1][0] != "out-of-phase") {
    ++failures;
    std::cout << "CLAIM FAILED: B=20, tau=0.01 (Figs. 4-5) must be "
                 "out-of-phase\n";
  }
  if (modes[1][2] != "in-phase") {
    ++failures;
    std::cout << "CLAIM FAILED: B=20, tau=1 (Figs. 6-7) must be in-phase\n";
  }
  // Large buffer, small pipe: out-of-phase. Small buffer, large pipe:
  // in-phase.
  if (modes[2][0] != "out-of-phase") {
    ++failures;
    std::cout << "CLAIM FAILED: B=60, tau=0.01 must be out-of-phase\n";
  }
  if (modes[0][2] != "in-phase") {
    ++failures;
    std::cout << "CLAIM FAILED: B=10, tau=1 must be in-phase\n";
  }
  std::cout << "bench_sync_mode_map: " << (failures == 0 ? "OK" : "FAILURES")
            << "\n";
  return failures == 0 ? 0 : 1;
}
