// Shared setup for the paper-reproduction benchmarks. All benchmarks run
// the simulated cluster with constants scaled 1/64 from the paper:
// τ = 256 KB memtables, 2 MB/s + 1.5 ms-seek disks, "10 GB database" ≙
// 160k 1 KB records. Durations are scaled so every binary finishes in
// tens of seconds; pass --seconds=N to lengthen runs.
#ifndef NOVA_BENCH_BENCH_COMMON_H_
#define NOVA_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "baseline/baseline.h"
#include "bench_core/workload.h"
#include "coord/cluster.h"

namespace nova {
namespace bench {

struct BenchConfig {
  double seconds = 2.5;       // measurement window per data point
  uint64_t num_keys = 24000;  // ≙ paper's 10 GB at 1/64 scale+reduced count
  int client_threads = 8;
  size_t value_size = 1024;
  /// Warm-up window run before the measurement window (cache-sensitive
  /// benches); < 0 = the bench's default (half the measurement window).
  double warmup_seconds = -1;
  /// Machine-readable results: benches that support it also write their
  /// numbers to this path as JSON (e.g. BENCH_compaction.json) so perf
  /// regressions are diffable across PRs. Empty = stdout only.
  std::string json_path;

  double WarmupSeconds() const {
    return warmup_seconds < 0 ? seconds / 2 : warmup_seconds;
  }
};

inline BenchConfig ParseArgs(int argc, char** argv) {
  BenchConfig cfg;
  for (int i = 1; i < argc; i++) {
    double d;
    long long n;
    if (sscanf(argv[i], "--seconds=%lf", &d) == 1) {
      cfg.seconds = d;
    } else if (sscanf(argv[i], "--warmup=%lf", &d) == 1) {
      cfg.warmup_seconds = d;
    } else if (sscanf(argv[i], "--keys=%lld", &n) == 1) {
      cfg.num_keys = n;
    } else if (sscanf(argv[i], "--threads=%lld", &n) == 1) {
      cfg.client_threads = static_cast<int>(n);
    } else if (strncmp(argv[i], "--json=", 7) == 0) {
      cfg.json_path = argv[i] + 7;
    }
  }
  return cfg;
}

/// Flat JSON artifact: one object per measured configuration, numeric
/// fields only. Kept deliberately simple — labels must not contain
/// quotes or backslashes.
class JsonArtifact {
 public:
  explicit JsonArtifact(std::string bench) : bench_(std::move(bench)) {}

  void Add(std::string label,
           std::vector<std::pair<std::string, double>> fields) {
    rows_.emplace_back(std::move(label), std::move(fields));
  }

  /// Writes {"bench": ..., "results": [...]}; no-op on an empty path (no
  /// --json flag given).
  void Write(const std::string& path) const {
    if (path.empty()) {
      return;
    }
    FILE* f = fopen(path.c_str(), "w");
    if (f == nullptr) {
      fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    fprintf(f, "{\n  \"bench\": \"%s\",\n  \"results\": [\n", bench_.c_str());
    for (size_t i = 0; i < rows_.size(); i++) {
      fprintf(f, "    {\"label\": \"%s\"", rows_[i].first.c_str());
      for (const auto& [key, value] : rows_[i].second) {
        fprintf(f, ", \"%s\": %.6g", key.c_str(), value);
      }
      fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    fprintf(f, "  ]\n}\n");
    fclose(f);
    printf("wrote %s\n", path.c_str());
  }

 private:
  std::string bench_;
  std::vector<std::pair<std::string, std::vector<std::pair<std::string, double>>>>
      rows_;
};

/// Paper-scaled cluster defaults: per-node CPU throttle, HDD-like device.
inline coord::ClusterOptions PaperScaledOptions(int ltcs, int stocs) {
  coord::ClusterOptions opt;
  opt.num_ltcs = ltcs;
  opt.num_stocs = stocs;
  // Scaled HDD: 2 MB/s ≙ 128 MB/s, 1.5 ms seek.
  opt.device.bandwidth_bytes_per_sec = 2.0 * 1024 * 1024;
  opt.device.seek_latency_us = 1500;
  // Per-node virtual CPU (LTCs bottleneck on CPU in the paper's
  // CPU-intensive workloads; StoCs rarely do).
  opt.ltc.cpu_rate_us_per_sec = 400000;   // 0.4 virtual cores
  opt.stoc.cpu_rate_us_per_sec = 800000;
  // τ = 256 KB; δ = 32 memtables (≙ 8 MB per range budget by default —
  // individual benches override α/δ per experiment).
  opt.range.memtable_size = 256 << 10;
  opt.range.max_memtables = 32;
  opt.range.drange.theta = 8;
  opt.range.drange.warmup_writes = 2000;
  opt.range.max_sstable_size = 256 << 10;
  opt.range.lsm.l0_compaction_trigger_bytes = 4 << 20;
  opt.range.lsm.l0_stop_bytes = 32 << 20;  // ≙ paper's 2 GB L0 cap
  opt.range.lsm.base_level_bytes = 16 << 20;
  opt.range.max_parallel_compactions = 4;
  opt.range.log.mode = logc::LogMode::kNone;  // paper default: disabled
  opt.range.manifest_replicas = 1;
  opt.placement.rho = 1;
  opt.placement.power_of_d = true;
  opt.stoc.page_cache_bytes = 8 << 20;  // ≙ a few GB of page cache
  opt.stoc.slab_bytes = 192 << 20;
  opt.stoc.slab_page_bytes = 512 << 10;
  return opt;
}

inline void PrintHeader(const char* title) {
  printf("==================================================================\n");
  printf("%s\n", title);
  printf("(simulated cluster, constants scaled 1/64 from the paper)\n");
  printf("==================================================================\n");
  fflush(stdout);
}

}  // namespace bench
}  // namespace nova

#endif  // NOVA_BENCH_BENCH_COMMON_H_
