// Ablation (§5.2): the servers synchronize every 0.5 s. A longer period
// costs staler takeover offsets — more duplicate ("late") frames and a
// deeper buffer dip at migration; a shorter one costs control bandwidth.
// "The duration of the irregularity period is at most the sum of the
// synchronization skew and the take over time."
#include <iostream>

#include "metrics/report.hpp"
#include "scenario.hpp"

using namespace ftvod;
using namespace ftvod::vod;

int main() {
  std::cout << "=== Ablation: state-sync period vs migration cost ===\n"
            << "Crash at 30 s; 3 seeds per row. Paper period: 500 ms.\n\n";

  metrics::Table table({"sync period (ms)", "late frames @crash",
                        "min occupancy", "starvation", "syncs/s/server"});
  double late_200 = -1, late_2000 = -1;
  for (sim::Duration period : {sim::msec(200), sim::msec(500),
                               sim::msec(1000), sim::msec(2000)}) {
    double late_sum = 0;
    double min_occ = 1.0;
    std::uint64_t starve = 0;
    const int kSeeds = 3;
    for (int seed = 0; seed < kSeeds; ++seed) {
      bench::ScenarioOptions opt;
      opt.seed = 100 + seed * 31;
      opt.params.sync_period = period;
      opt.duration_s = 50.0;
      opt.crash_at_s = 30.0;
      opt.load_balance_at_s.reset();
      const bench::ScenarioResult r = bench::run_migration_scenario(opt);

      const auto* late = r.recorder.series("late");
      double before = 0;
      for (const auto& s : late->samples()) {
        if (sim::to_sec(s.t) <= 28.0) before = s.value;
      }
      late_sum += late->samples().back().value - before;
      const auto* occ = r.recorder.series("occupancy");
      for (const auto& s : occ->window(sim::sec(29.0), sim::sec(45.0))) {
        min_occ = std::min(min_occ, s.value);
      }
      starve += r.final_counters.starvation_ticks;
    }
    const double late_avg = late_sum / kSeeds;
    if (period == sim::msec(200)) late_200 = late_avg;
    if (period == sim::msec(2000)) late_2000 = late_avg;
    table.add_row({std::to_string(period / 1000),
                   metrics::Table::num(late_avg, 1),
                   metrics::Table::num(min_occ * 100, 0) + "%",
                   std::to_string(starve),
                   metrics::Table::num(1000.0 / (period / 1000.0), 1)});
  }
  table.print(std::cout);
  std::cout << '\n'
            << ((late_200 >= 0 && late_200 < late_2000) ? "  [shape OK]   "
                                                        : "  [SHAPE FAIL] ")
            << "staler sync -> more duplicate transmission at takeover "
               "(the paper's conservative approach)\n";
  return 0;
}
