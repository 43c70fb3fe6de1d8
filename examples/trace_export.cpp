// Exports the raw traces behind every figure of the paper as CSV, for
// re-plotting with external tools:
//
//   ./trace_export [output-dir]     (default: ./tcpdyn_traces)
//
// Produces, per figure: queue-length time series for both bottleneck ports,
// cwnd time series per connection, drop events, and ACK arrival times.
#include <filesystem>
#include <iostream>

#include "core/csv_export.h"
#include "core/scenarios.h"

int main(int argc, char** argv) {
  using namespace tcpdyn;
  const std::string dir = argc > 1 ? argv[1] : "tcpdyn_traces";
  std::filesystem::create_directories(dir);

  struct Job {
    const char* prefix;
    core::TopoSpec spec;
  };
  std::vector<Job> jobs;
  jobs.push_back({"fig2", core::fig2_one_way(3, 1.0, 20)});
  jobs.push_back({"fig3", core::fig3_ten_connections(30)});
  jobs.push_back({"fig4_5", core::fig4_twoway(0.01, 20)});
  jobs.push_back({"fig6_7", core::fig6_twoway(1.0, 20)});
  jobs.push_back({"fig8", core::fig8_fixed_window(0.01, 30, 25)});
  jobs.push_back({"fig9", core::fig8_fixed_window(1.0, 30, 25)});

  for (auto& job : jobs) {
    std::cout << "running " << job.spec.name << " ... " << std::flush;
    core::Scenario scenario = core::make_topo_scenario(job.spec);
    core::ScenarioSummary s = core::run_scenario(scenario);
    const auto written = core::export_csv(s.result, dir, job.prefix);
    std::cout << written.size() << " files\n";
    for (const auto& path : written) std::cout << "  " << path << '\n';
  }
  std::cout << "\nPlot hint (gnuplot):\n"
            << "  plot '" << dir << "/fig4_5_queue_S1_S2.csv' \\\n"
            << "       using 1:2 with steps title 'queue at switch 1'\n";
  return 0;
}
