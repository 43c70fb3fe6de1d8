// E2 — §3.1 asymptotics: for one-way traffic the idle time on the bottleneck
// vanishes as the buffer grows (the paper: "asymptotically the link idle
// time decreases with increasing buffer size as B^-2"), the root of the
// rule-of-thumb "add buffers to raise throughput" that two-way traffic
// breaks (see bench_fig4_5).
//
// The buffer axis runs as a core::SweepRunner grid, one simulation per
// worker thread; rows come back in buffer order whatever the thread count.
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
  core::SweepGrid grid({{"buffer", {10, 20, 40, 80}}});
  core::SweepRunner runner(grid,
                           {.jobs = util::ThreadPool::default_jobs(),
                            .seed = 1,
                            .progress = false});
  const core::SweepTable result =
      runner.run([](const core::SweepPoint& pt) {
        core::Scenario sc = core::make_topo_scenario(core::fig2_one_way(
            3, 1.0, static_cast<std::size_t>(pt.value("buffer"))));
        // Longer cycles at large buffers need a longer run to see many
        // epochs.
        sc.duration = sim::Time::seconds(1200.0);
        return core::summary_row(pt, core::run_scenario(sc));
      });

  util::Table t({"buffer (pkts)", "utilization", "idle fraction",
                 "epoch interval"});
  std::vector<double> idle;
  for (const core::SweepRow& row : result.rows()) {
    const double util = row.number("util_fwd");
    idle.push_back(1.0 - util);
    t.add_row({util::fmt(row.number("buffer"), 0), util::fmt_pct(util),
               util::fmt_pct(1.0 - util),
               util::fmt(row.number("epoch_interval"), 1) + "s"});
  }
  std::cout << "§3.1 one-way: idle time vs buffer size (paper: idle -> 0, "
               "roughly as B^-2)\n";
  t.print(std::cout);

  // Shape checks: idle strictly decreasing, and large-buffer idle is small.
  for (std::size_t i = 1; i < idle.size(); ++i) {
    if (idle[i] > idle[i - 1] + 0.01) {
      ++failures;
      std::cout << "CLAIM FAILED: idle time must decrease with buffer size\n";
    }
  }
  if (idle.back() > 0.06) {
    ++failures;
    std::cout << "CLAIM FAILED: idle should be <6% at buffer 80\n";
  }
  // B^-2 shape: quadrupling the buffer from 20 to 80 should cut idle by much
  // more than half (B^-2 predicts ~16x).
  if (idle.back() > 0.5 * idle[1]) {
    ++failures;
    std::cout << "CLAIM FAILED: idle(B=80) should be far below idle(B=20)\n";
  }
  std::cout << "bench_oneway_buffer_sweep: "
            << (failures == 0 ? "OK" : "FAILURES") << "\n";
  return failures == 0 ? 0 : 1;
}
