// Figure 16: throughput of memcached and Redis under memtier-style load
// with varying client counts, across HVM/PVM/CKI in bare-metal and nested
// deployments. Claim C3: CKI-NST reaches 6.8x HVM-NST on memcached and 2.0x
// on Redis; CKI beats PVM by 1.8x/1.5x (memcached BM/NST) and 1.4x/1.3x
// (Redis).
#include <iostream>

#include "bench/bench_util.h"
#include "src/metrics/report.h"
#include "src/workloads/kv_store.h"

namespace cki {
namespace {

void RunKind(KvKind kind, const char* title, const char* tag, BenchObsSink& sink) {
  const int client_counts[] = {1, 2, 4, 8, 16, 32, 64};
  std::vector<std::string> cols;
  for (int c : client_counts) {
    cols.push_back(std::to_string(c) + " clients");
  }
  ReportTable tput(title, "config", cols);

  std::vector<BenchConfig> configs = Fig16Configs();
  configs.insert(configs.begin(),
                 BenchConfig{"RunC-BM", RuntimeKind::kRunc, Deployment::kBareMetal});
  for (const BenchConfig& config : configs) {
    std::vector<double> row;
    for (int clients : client_counts) {
      Testbed bed(config.kind, config.deployment);
      if (sink.active()) {
        sink.EnableHub(bed.ctx().obs());
        bed.ctx().obs().set_owner(bed.engine().id());
      }
      KvConfig kv{.kind = kind, .clients = clients, .total_requests = 4000};
      SimNanos t0 = bed.ctx().clock().now();
      row.push_back(RunKvBenchmark(bed.engine(), kv).requests_per_sec * 1e-3);
      if (sink.active()) {
        bed.ctx().obs().Disable();
        // The workload exported its NIC/switch counters into the metrics
        // registry before tearing the network down.
        sink.AddConfig(std::string(tag) + "/" + config.label + "/c" +
                            std::to_string(clients),
                        bed.ctx().clock().now() - t0, bed.ctx().obs());
      }
    }
    tput.AddRow(config.label, row);
  }
  sink.Print(tput, 1);

  size_t last = std::size(client_counts) - 1;
  std::cout << "Saturated ratios (64 clients): CKI-NST/HVM-NST = "
            << tput.ValueAt("CKI-NST", last) / tput.ValueAt("HVM-NST", last)
            << "x, CKI-BM/PVM-BM = "
            << tput.ValueAt("CKI-BM", last) / tput.ValueAt("PVM-BM", last)
            << "x, CKI-NST/PVM-NST = "
            << tput.ValueAt("CKI-NST", last) / tput.ValueAt("PVM-NST", last) << "x\n\n";
}

void Run(BenchObsSink& sink) {
  RunKind(KvKind::kMemcached, "Figure 16a: memcached throughput (kreq/s)", "memcached",
          sink);
  RunKind(KvKind::kRedis, "Figure 16b: Redis throughput (kreq/s)", "redis", sink);
  std::cout << "Paper: memcached CKI-NST/HVM-NST 6.8x, CKI/PVM 1.8x (BM) 1.5x (NST);\n"
               "Redis CKI-NST/HVM-NST 2.0x, CKI/PVM 1.4x (BM) 1.3x (NST).\n";
}

}  // namespace
}  // namespace cki

int main(int argc, char** argv) {
  return cki::BenchMain(argc, argv, "bench_fig16_kv", cki::kNoMode, cki::Run);
}
