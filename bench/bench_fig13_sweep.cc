// Figure 13: secure-container overhead (vs RunC) as workload parameters
// shift the page-fault intensity: (a) BTree lookup/insert ratio — overhead
// falls as lookups dominate; (b) XSBench particle count — overhead falls as
// the calculation phase grows relative to fault-heavy initialization.
//
// Scale-out: every (config, parameter) cell is an independent simulated
// machine, so the whole sweep runs as one SimCluster over `--threads`
// workers (DESIGN.md §9). Cell results are merged in cell order, so the
// tables and the determinism hash are identical at any thread count.
//
// The cell list and per-cell body live in bench/fig13_cells.h, shared with
// bench_ext_simspeed so the raw-speed gate pins the hash of *this* sweep.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/fig13_cells.h"
#include "src/cluster/sim_cluster.h"
#include "src/metrics/report.h"
#include "src/workloads/mem_apps.h"

namespace cki {
namespace {

double OverheadPct(double runc_ns, double measured_ns) {
  return (measured_ns / runc_ns - 1.0) * 100.0;
}

void Run(BenchObsSink& sink) {
  const BenchIo& io = sink.io();
  const std::vector<BenchConfig> configs = {
      {"HVM-NST", RuntimeKind::kHvm, Deployment::kNested},
      {"HVM-BM", RuntimeKind::kHvm, Deployment::kBareMetal},
      {"PVM", RuntimeKind::kPvm, Deployment::kBareMetal},
      {"CKI", RuntimeKind::kCki, Deployment::kBareMetal},
  };
  const std::vector<Fig13Cell> cells = Fig13CellList();

  ClusterConfig cc;
  cc.shards = static_cast<uint32_t>(cells.size());
  cc.threads = io.ThreadsOr(1);
  cc.root_seed = io.root_seed;
  SimCluster cluster(cc);

  ClusterResult result = cluster.Run([&cells](const ShardTask& task) {
    return RunFig13Cell(cells[task.index]);
  });

  // Reassemble the tables from the flat cell results.
  auto cell_ns = [&](const std::string& label, Fig13App app, double param) {
    for (size_t i = 0; i < cells.size(); ++i) {
      const Fig13Cell& cell = cells[i];
      if (cell.label == label && cell.app == app && cell.param == param) {
        return result.shards()[i].values.at("ns");
      }
    }
    return 0.0;
  };

  size_t n_ratios = 0;
  const double* ratios = Fig13Ratios(&n_ratios);
  std::vector<std::string> ratio_labels;
  for (size_t i = 0; i < n_ratios; ++i) {
    ratio_labels.push_back("L/I=" + std::to_string(ratios[i]).substr(0, 4));
  }
  ReportTable btree("Figure 13a: BTree overhead vs RunC (%)", "config", ratio_labels);
  for (const BenchConfig& config : configs) {
    std::vector<double> row;
    for (size_t i = 0; i < n_ratios; ++i) {
      row.push_back(OverheadPct(cell_ns("RunC", Fig13App::kBtree, ratios[i]),
                                cell_ns(config.label, Fig13App::kBtree, ratios[i])));
    }
    btree.AddRow(config.label, row);
  }
  sink.Print(btree, 1);

  size_t n_particles = 0;
  const int* particles = Fig13Particles(&n_particles);
  std::vector<std::string> particle_labels;
  for (size_t i = 0; i < n_particles; ++i) {
    particle_labels.push_back(std::to_string(particles[i]) + "p");
  }
  ReportTable xs("Figure 13b: XSBench overhead vs RunC (%)", "config", particle_labels);
  for (const BenchConfig& config : configs) {
    std::vector<double> row;
    for (size_t i = 0; i < n_particles; ++i) {
      double p = static_cast<double>(particles[i]);
      row.push_back(OverheadPct(cell_ns("RunC", Fig13App::kXsbench, p),
                                cell_ns(config.label, Fig13App::kXsbench, p)));
    }
    xs.AddRow(config.label, row);
  }
  sink.Print(xs, 1);

  std::cout << "cluster: " << cells.size() << " cells, " << cluster.config().threads
            << " threads, root-seed=" << cc.root_seed << "\n";
  std::cout << "determinism-hash: 0x" << std::hex << result.trace_hash() << std::dec << "\n";
  std::cout << "Expected: overhead decreases left to right for every secure container;\n"
               "CKI stays low and flat across parameters (sec 7.2).\n";
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) {
  return cki::BenchMain(argc, argv, "bench_fig13_sweep", cki::kNoMode, cki::Run);
}
