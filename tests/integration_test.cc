// End-to-end tests of the full in-process cluster: LTCs + StoCs over the
// RDMA fabric emulation, exercised against a std::map oracle, plus fault
// injection (StoC loss with replication/parity, LTC crash + recovery),
// range migration and elasticity.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "baseline/baseline.h"
#include "bench_core/workload.h"
#include "coord/cluster.h"
#include "client/nova_client.h"
#include "lsm/version.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace nova {
namespace {

using coord::Cluster;
using coord::ClusterOptions;

std::string Key(uint64_t i) { return bench::MakeKey(i); }

/// Small, fast cluster: no device timing, unlimited CPU, tiny memtables so
/// flush/compaction trigger quickly.
ClusterOptions FastOptions(int ltcs, int stocs) {
  ClusterOptions opt;
  opt.num_ltcs = ltcs;
  opt.num_stocs = stocs;
  opt.device.time_scale = 0;
  opt.range.memtable_size = 8 << 10;
  opt.range.max_memtables = 8;
  opt.range.max_sstable_size = 16 << 10;
  opt.range.drange.theta = 4;
  opt.range.drange.warmup_writes = 200;
  opt.range.drange.sample_rate = 1;
  opt.range.unique_key_threshold = 10;
  opt.range.lsm.l0_compaction_trigger_bytes = 32 << 10;
  opt.range.lsm.l0_stop_bytes = 256 << 10;
  opt.range.lsm.base_level_bytes = 128 << 10;
  opt.range.log.num_replicas = std::min(3, stocs);
  opt.range.log.region_size = 64 << 10;
  opt.range.manifest_replicas = std::min(3, stocs);
  opt.placement.rho = 1;
  opt.stoc.slab_bytes = 64 << 20;
  opt.stoc.slab_page_bytes = 256 << 10;
  return opt;
}

class IntegrationTest : public testing::Test {
 protected:
  void StartCluster(const ClusterOptions& opt) {
    cluster_ = std::make_unique<Cluster>(opt);
    cluster_->Start();
  }

  void TearDown() override {
    if (cluster_) {
      cluster_->Stop();
    }
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(IntegrationTest, PutGetRoundTrip) {
  StartCluster(FastOptions(1, 2));
  ASSERT_TRUE(cluster_->Put("hello", "world").ok());
  std::string value;
  ASSERT_TRUE(cluster_->Get("hello", &value).ok());
  EXPECT_EQ(value, "world");
  EXPECT_TRUE(cluster_->Get("missing", &value).IsNotFound());
}

TEST_F(IntegrationTest, OverwriteAndDelete) {
  StartCluster(FastOptions(1, 2));
  ASSERT_TRUE(cluster_->Put("k", "v1").ok());
  ASSERT_TRUE(cluster_->Put("k", "v2").ok());
  std::string value;
  ASSERT_TRUE(cluster_->Get("k", &value).ok());
  EXPECT_EQ(value, "v2");
  ASSERT_TRUE(cluster_->Delete("k").ok());
  EXPECT_TRUE(cluster_->Get("k", &value).IsNotFound());
}

// A get trusts the table a lookup-index slot names only if the version it
// finds there is at least as new as the slot claims. Point the slot back at
// a memtable that holds an older version, with a claim above every put: the
// get must still return the newest acknowledged value, not that table's.
TEST_F(IntegrationTest, GetIgnoresIndexHitOlderThanClaimedSeq) {
  ClusterOptions opt = FastOptions(1, 2);
  opt.range.enable_dranges = false;
  opt.range.num_active_memtables = 2;
  StartCluster(opt);
  auto* engine = cluster_->ltc(0)->ranges()[0];
  const std::string key = Key(7);
  uint64_t first_mid = 0, mid = 0, seq = 0;
  std::string newest;
  for (int i = 0; i < 200 && (i == 0 || mid == first_mid); i++) {
    newest = "v" + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(key, newest).ok());
    ASSERT_TRUE(engine->lookup_index()->Lookup(key, &mid, &seq));
    if (i == 0) {
      first_mid = mid;
    }
  }
  ASSERT_NE(mid, first_mid) << "every put landed in one memtable";
  engine->lookup_index()->Update(key, first_mid, seq + 1000);
  std::string got;
  ASSERT_TRUE(cluster_->Get(key, &got).ok());
  EXPECT_EQ(got, newest);
}

TEST_F(IntegrationTest, OracleConsistencyThroughFlushesAndCompactions) {
  StartCluster(FastOptions(1, 3));
  std::map<std::string, std::string> oracle;
  Random rng(11);
  // Enough writes to force many flushes and L0->L1 compactions.
  for (int i = 0; i < 6000; i++) {
    std::string key = Key(rng.Uniform(800));
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(key, value).ok());
    oracle[key] = value;
  }
  auto* engine = cluster_->ltc(0)->ranges()[0];
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(/*flush_all=*/true);
  EXPECT_GT(engine->stats().flushes, 0u);
  EXPECT_GT(engine->stats().compactions, 0u);

  for (const auto& [key, value] : oracle) {
    std::string got;
    Status s = cluster_->Get(key, &got);
    ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
    EXPECT_EQ(got, value) << key;
  }
}

TEST_F(IntegrationTest, ScanMatchesOracle) {
  StartCluster(FastOptions(1, 2));
  std::map<std::string, std::string> oracle;
  Random rng(12);
  for (int i = 0; i < 3000; i++) {
    std::string key = Key(rng.Uniform(500));
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(key, value).ok());
    oracle[key] = value;
  }
  // Scans from random positions must equal the oracle's next-10.
  for (int trial = 0; trial < 50; trial++) {
    std::string start = Key(rng.Uniform(500));
    std::vector<std::pair<std::string, std::string>> got;
    ASSERT_TRUE(cluster_->Scan(start, 10, &got).ok());
    auto it = oracle.lower_bound(start);
    for (const auto& [k, v] : got) {
      ASSERT_NE(it, oracle.end());
      EXPECT_EQ(k, it->first);
      EXPECT_EQ(v, it->second);
      ++it;
    }
    size_t expected =
        std::min<size_t>(10, std::distance(oracle.lower_bound(start),
                                           oracle.end()));
    EXPECT_EQ(got.size(), expected);
  }
}

TEST_F(IntegrationTest, ScanSeesDeletes) {
  StartCluster(FastOptions(1, 2));
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), "v").ok());
  }
  ASSERT_TRUE(cluster_->Delete(Key(3)).ok());
  ASSERT_TRUE(cluster_->Delete(Key(4)).ok());
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(cluster_->Scan(Key(2), 4, &got).ok());
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].first, Key(2));
  EXPECT_EQ(got[1].first, Key(5));
  EXPECT_EQ(got[2].first, Key(6));
  EXPECT_EQ(got[3].first, Key(7));
}

// Regression: in the LevelDB*/RocksDB* ablation (no range index) Scan
// merges the whole table set in one pass, but used to step `pos = upper`
// and re-collect the same set forever whenever a non-final range held
// fewer than num_records keys past the start — bench_table07's SW50
// baseline row hung on exactly this.
TEST_F(IntegrationTest, BaselineScanTerminatesAtRangeBoundary) {
  ClusterOptions opt = FastOptions(1, 2);
  opt.range.enable_range_index = false;
  opt.range.enable_dranges = false;
  opt.range.enable_lookup_index = false;
  opt.split_points = bench::EvenSplitPoints(100, 4);  // 4 ranges, 25 keys each
  StartCluster(opt);
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  // Start two keys before the first range boundary and ask for ten: the
  // first range supplies two, the rest stream from the ranges after it.
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(cluster_->Scan(Key(23), 10, &got).ok());
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(got[i].first, Key(23 + i));
  }
}

TEST_F(IntegrationTest, MultiLtcRouting) {
  ClusterOptions opt = FastOptions(2, 2);
  opt.split_points = bench::EvenSplitPoints(1000, 4);  // 4 ranges, 2 LTCs
  StartCluster(opt);
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 1000; i += 7) {
    std::string key = Key(i);
    ASSERT_TRUE(cluster_->Put(key, "v" + std::to_string(i)).ok());
    oracle[key] = "v" + std::to_string(i);
  }
  for (const auto& [key, value] : oracle) {
    std::string got;
    ASSERT_TRUE(cluster_->Get(key, &got).ok()) << key;
    EXPECT_EQ(got, value);
  }
  // A scan crossing a range boundary (read committed across ranges).
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(cluster_->Scan(Key(245), 5, &got).ok());
  EXPECT_EQ(got.size(), 5u);
  EXPECT_EQ(got[0].first, Key(245));
  EXPECT_EQ(got[1].first, Key(252));
}

TEST_F(IntegrationTest, ClientRoutesAndRefreshesConfig) {
  ClusterOptions opt = FastOptions(2, 2);
  opt.split_points = bench::EvenSplitPoints(1000, 2);
  StartCluster(opt);
  client::NovaClient client(cluster_.get());
  ASSERT_TRUE(client.Put(Key(10), "a").ok());
  ASSERT_TRUE(client.Put(Key(900), "b").ok());
  std::string value;
  ASSERT_TRUE(client.Get(Key(10), &value).ok());
  EXPECT_EQ(value, "a");
  // Migrate range 0 to LTC 1 and keep using the same client.
  ASSERT_TRUE(cluster_->MigrateRange(0, 1, 2).ok());
  ASSERT_TRUE(client.Get(Key(10), &value).ok());
  EXPECT_EQ(value, "a");
  ASSERT_TRUE(client.Put(Key(10), "a2").ok());
  ASSERT_TRUE(client.Get(Key(10), &value).ok());
  EXPECT_EQ(value, "a2");
}

TEST_F(IntegrationTest, MemtableMergeAvoidsFlushes) {
  ClusterOptions opt = FastOptions(1, 2);
  opt.range.unique_key_threshold = 50;
  StartCluster(opt);
  // Hammer a handful of keys: memtables fill with versions of few unique
  // keys and must merge instead of flushing (Section 4.2).
  for (int i = 0; i < 4000; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i % 5), "value-" + std::to_string(i)).ok());
  }
  auto* engine = cluster_->ltc(0)->ranges()[0];
  engine->WaitForQuiescence();
  auto stats = engine->stats();
  EXPECT_GT(stats.memtable_merges, 0u);
  // The latest values are still correct.
  std::string value;
  ASSERT_TRUE(cluster_->Get(Key(0), &value).ok());
  EXPECT_TRUE(value.rfind("value-", 0) == 0);
}

TEST_F(IntegrationTest, LtcCrashRecoveryFromLogsAndManifest) {
  ClusterOptions opt = FastOptions(2, 3);
  opt.split_points = bench::EvenSplitPoints(1000, 2);
  StartCluster(opt);
  std::map<std::string, std::string> oracle;
  Random rng(13);
  for (int i = 0; i < 2500; i++) {
    std::string key = Key(rng.Uniform(400));  // range 0 only
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(key, value).ok());
    oracle[key] = value;
  }
  // Some data flushed, some still in memtables backed only by log records.
  cluster_->KillLtc(0);
  ASSERT_TRUE(cluster_->RecoverLtcRanges(0, 1, 4).ok());
  auto* recovered = cluster_->ltc(1)->GetRange(0);
  for (const auto& [key, value] : oracle) {
    std::string got;
    Status s = cluster_->Get(key, &got);
    ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
    EXPECT_EQ(got, value) << key
                          << " newest=" << recovered->DebugFindNewest(key)
                          << " index=" << recovered->DebugLookupState(key);
  }
}

TEST_F(IntegrationTest, RecoveryReservesLogMemtableMidsBeforeReplay) {
  // A memtable id handed out while log memtables are still being replayed
  // (here: actives created between two replays, as a rotation or merge
  // could) must never equal the id of a log memtable not yet rebuilt, or
  // the two memtables overwrite each other's slots and acknowledged
  // writes vanish. Large memtables keep every write in a log-backed
  // memtable; two actives give two log memtables with adjacent ids.
  ClusterOptions opt = FastOptions(2, 3);
  opt.split_points = bench::EvenSplitPoints(1000, 2);
  opt.range.enable_dranges = false;
  opt.range.num_active_memtables = 2;
  opt.range.memtable_size = 1 << 20;
  StartCluster(opt);
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 400; i++) {
    std::string key = Key(i);  // range 0 only
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(key, value).ok());
    oracle[key] = value;
  }
  cluster_->KillLtc(0);

  ltc::RangeEngineOptions ropt = opt.range;
  ropt.range_id = 0;
  ropt.upper = opt.split_points[0];
  std::unique_ptr<ltc::RangeEngine> engine =
      cluster_->ltc(1)->NewRange(ropt, cluster_->AliveStocNodes());
  ltc::RangeEngine* raw = engine.get();
  int replays = 0;
  raw->set_replay_hook([&](uint64_t) {
    if (replays++ == 0) {
      raw->Bootstrap();
    }
  });
  Status rs = raw->RecoverFromManifest(/*recovery_threads=*/1);
  ASSERT_TRUE(rs.ok() || rs.IsNotFound()) << rs.ToString();
  ASSERT_GE(replays, 2) << "the test needs two log memtables";
  raw->set_replay_hook(nullptr);
  cluster_->ltc(1)->PublishRange(std::move(engine));

  // Writes after recovery land in the memtables created mid-replay.
  for (int i = 400; i < 500; i++) {
    std::string key = Key(i);
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(raw->Put(key, value).ok());
    oracle[key] = value;
  }
  for (const auto& [key, value] : oracle) {
    std::string got;
    Status s = raw->Get(key, &got);
    ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
    EXPECT_EQ(got, value) << key;
  }
}

TEST_F(IntegrationTest, FailedLogAppendIsNeverAcknowledged) {
  // A put is acknowledged only once its log record is written: a failed
  // append retries, so every acked value survives an LTC crash even when
  // it was still in a memtable backed only by the log.
  ClusterOptions opt = FastOptions(2, 3);
  opt.split_points = bench::EvenSplitPoints(5000, 2);
  StartCluster(opt);
  util::FailPoint::Seed(21);
  util::FailPoint::EnableError("logc.append",
                               Status::Unavailable("injected: logc.append"),
                               util::FailPoint::Trigger::Probability(0.02));
  // Every key is written once, so any unlogged ack still in a memtable
  // at the crash is a lost key.
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 2500; i++) {
    std::string key = Key(i);  // range 0 only
    std::string value = "v" + std::to_string(i);
    if (cluster_->Put(key, value).ok()) {
      oracle[key] = value;
    }
  }
  util::FailPoint::DisableAll();
  EXPECT_EQ(oracle.size(), 2500u) << "a transient append failure failed a put";
  cluster_->KillLtc(0);
  ASSERT_TRUE(cluster_->RecoverLtcRanges(0, 1, 4).ok());
  for (const auto& [key, value] : oracle) {
    std::string got;
    Status s = cluster_->Get(key, &got);
    ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
    EXPECT_EQ(got, value) << key;
  }
}

/// Seeded repro loop for the recovery stale-read flake: the lookup-index
/// rebuild used to re-index only L0, so a key whose newest version had
/// already been compacted into L1+ before the crash got a consistent-but-
/// stale index entry (live operation leaves a dangling slot carrying the
/// newest seq instead). 20 seeds run the whole crash/recover/verify path;
/// each is its own ctest entry, so the loop parallelizes under ctest -j.
class RecoveryRepro : public testing::TestWithParam<int> {};

TEST_P(RecoveryRepro, CrashRecoveryMatchesOracle) {
  ClusterOptions opt = FastOptions(2, 3);
  opt.split_points = bench::EvenSplitPoints(1000, 2);
  Cluster cluster(opt);
  cluster.Start();
  std::map<std::string, std::string> oracle;
  Random rng(GetParam());
  for (int i = 0; i < 2500; i++) {
    std::string key = Key(rng.Uniform(400));  // range 0 only
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster.Put(key, value).ok());
    oracle[key] = value;
  }
  cluster.KillLtc(0);
  ASSERT_TRUE(cluster.RecoverLtcRanges(0, 1, 4).ok());
  auto* recovered = cluster.ltc(1)->GetRange(0);
  for (const auto& [key, value] : oracle) {
    std::string got;
    Status s = cluster.Get(key, &got);
    ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
    EXPECT_EQ(got, value) << key
                          << " newest=" << recovered->DebugFindNewest(key)
                          << " index=" << recovered->DebugLookupState(key);
  }
  cluster.Stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryRepro, testing::Range(200, 220));

TEST_F(IntegrationTest, RangeMigrationPreservesData) {
  ClusterOptions opt = FastOptions(2, 3);
  opt.split_points = bench::EvenSplitPoints(1000, 2);
  StartCluster(opt);
  std::map<std::string, std::string> oracle;
  Random rng(14);
  for (int i = 0; i < 2000; i++) {
    std::string key = Key(rng.Uniform(400));
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(key, value).ok());
    oracle[key] = value;
  }
  ASSERT_TRUE(cluster_->MigrateRange(0, 1, 4).ok());
  auto* migrated = cluster_->ltc(1)->GetRange(0);
  for (const auto& [key, value] : oracle) {
    std::string got;
    ASSERT_TRUE(cluster_->Get(key, &got).ok()) << key;
    EXPECT_EQ(got, value) << key
                          << " newest=" << migrated->DebugFindNewest(key)
                          << " index=" << migrated->DebugLookupState(key);
  }
  // The migrated range keeps serving writes on the new LTC.
  ASSERT_TRUE(cluster_->Put(Key(1), "after-migration").ok());
  std::string got;
  ASSERT_TRUE(cluster_->Get(Key(1), &got).ok());
  EXPECT_EQ(got, "after-migration");
}

TEST_F(IntegrationTest, StocFailureWithReplicationKeepsReads) {
  ClusterOptions opt = FastOptions(1, 3);
  opt.placement.num_data_replicas = 2;
  opt.placement.num_meta_replicas = 2;
  StartCluster(opt);
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 1500; i++) {
    std::string key = Key(i % 300);
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(key, value).ok());
    oracle[key] = value;
  }
  auto* engine = cluster_->ltc(0)->ranges()[0];
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);
  cluster_->KillStoc(1);
  for (const auto& [key, value] : oracle) {
    std::string got;
    Status s = cluster_->Get(key, &got);
    ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
    EXPECT_EQ(got, value);
  }
}

TEST_F(IntegrationTest, StocFailureWithParityReconstructs) {
  ClusterOptions opt = FastOptions(1, 4);
  opt.placement.rho = 3;
  opt.placement.use_parity = true;
  opt.placement.num_meta_replicas = 3;
  StartCluster(opt);
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 1500; i++) {
    std::string key = Key(i % 300);
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(key, value).ok());
    oracle[key] = value;
  }
  auto* engine = cluster_->ltc(0)->ranges()[0];
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);
  // Evict cached readers so reads re-resolve through (possibly degraded)
  // fragment fetches.
  cluster_->KillStoc(2);
  for (const auto& [key, value] : oracle) {
    std::string got;
    Status s = cluster_->Get(key, &got);
    ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
    EXPECT_EQ(got, value);
  }
}

TEST_F(IntegrationTest, OffloadedCompactionProducesSameData) {
  // Run the identical workload against a local-compaction cluster and an
  // offloaded one, then assert both expose the exact same logical
  // key/value set (which also matches the oracle). Scans read through
  // every level, so differing compaction outputs would diverge here.
  auto run_workload =
      [](Cluster* cluster) -> std::map<std::string, std::string> {
    std::map<std::string, std::string> oracle;
    Random rng(15);
    for (int i = 0; i < 5000; i++) {
      std::string key = Key(rng.Uniform(600));
      std::string value = "v" + std::to_string(i);
      EXPECT_TRUE(cluster->Put(key, value).ok());
      oracle[key] = value;
    }
    auto* engine = cluster->ltc(0)->ranges()[0];
    engine->FlushAllMemtables();
    engine->WaitForQuiescence(true);
    return oracle;
  };
  auto scan_all = [](Cluster* cluster) {
    std::vector<std::pair<std::string, std::string>> out;
    EXPECT_TRUE(cluster->Scan("", 100000, &out).ok());
    return out;
  };

  ClusterOptions local_opt = FastOptions(1, 3);
  local_opt.range.offload_compaction = false;
  StartCluster(local_opt);
  std::map<std::string, std::string> oracle = run_workload(cluster_.get());
  auto local_contents = scan_all(cluster_.get());
  EXPECT_GT(cluster_->ltc(0)->ranges()[0]->stats().compactions, 0u);
  cluster_->Stop();

  ClusterOptions off_opt = FastOptions(1, 3);
  off_opt.range.offload_compaction = true;
  StartCluster(off_opt);
  std::map<std::string, std::string> oracle2 = run_workload(cluster_.get());
  ASSERT_EQ(oracle, oracle2);
  auto* engine = cluster_->ltc(0)->ranges()[0];
  auto stats = engine->stats();
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_GT(stats.compaction_offloads, 0u);

  // Byte-identical logical contents: offloaded scan == local scan ==
  // oracle.
  auto offloaded_contents = scan_all(cluster_.get());
  ASSERT_EQ(offloaded_contents.size(), local_contents.size());
  ASSERT_EQ(offloaded_contents.size(), oracle.size());
  for (size_t i = 0; i < offloaded_contents.size(); i++) {
    EXPECT_EQ(offloaded_contents[i], local_contents[i]) << i;
  }
  for (const auto& [key, value] : oracle) {
    std::string got;
    ASSERT_TRUE(cluster_->Get(key, &got).ok()) << key;
    EXPECT_EQ(got, value);
  }
}

TEST_F(IntegrationTest, DegradedCompactionReconstructsFromParity) {
  // Compaction inputs scattered with parity keep merging correctly after
  // a StoC dies: the input gather's async prefetch to the dead replica
  // fails, falls back to the synchronous fetch path, and reconstructs the
  // missing fragment from the surviving fragments + parity.
  ClusterOptions opt = FastOptions(1, 4);
  opt.placement.rho = 3;
  opt.placement.use_parity = true;
  opt.placement.num_meta_replicas = 3;
  opt.range.compaction_readahead_blocks = 4;  // exercise the pipeline
  StartCluster(opt);
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 2500; i++) {
    std::string key = Key(i % 400);
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(key, value).ok());
    oracle[key] = value;
  }
  auto* engine = cluster_->ltc(0)->ranges()[0];
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);
  uint64_t compactions_before = engine->stats().compactions;

  // Kill a StoC holding fragments of the files written above, then keep
  // writing so the picker compacts those degraded files.
  cluster_->KillStoc(2);
  for (int i = 0; i < 2500; i++) {
    std::string key = Key(i % 400);
    std::string value = "w" + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(key, value).ok());
    oracle[key] = value;
  }
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);
  EXPECT_GT(engine->stats().compactions, compactions_before);

  for (const auto& [key, value] : oracle) {
    std::string got;
    Status s = cluster_->Get(key, &got);
    ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
    EXPECT_EQ(got, value);
  }
}

TEST_F(IntegrationTest, FailedOffloadRetriesLocally) {
  // Break every StoC's compaction handler: offloads come back empty (the
  // seed dropped such jobs on the floor); the scheduler must fall back to
  // local execution so compactions still complete and data stays intact.
  ClusterOptions opt = FastOptions(1, 3);
  opt.range.offload_compaction = true;
  StartCluster(opt);
  for (int i = 0; i < 3; i++) {
    cluster_->stoc(i)->set_compaction_handler(
        [](rdma::NodeId, const Slice&) -> std::string { return ""; });
  }
  std::map<std::string, std::string> oracle;
  Random rng(16);
  for (int i = 0; i < 4000; i++) {
    std::string key = Key(rng.Uniform(500));
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(key, value).ok());
    oracle[key] = value;
  }
  auto* engine = cluster_->ltc(0)->ranges()[0];
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);

  auto stats = engine->stats();
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_EQ(stats.compaction_offloads, 0u);
  EXPECT_GT(stats.compaction_offload_failures, 0u);
  EXPECT_EQ(stats.compaction_local_fallbacks,
            stats.compaction_offload_failures);
  for (const auto& [key, value] : oracle) {
    std::string got;
    ASSERT_TRUE(cluster_->Get(key, &got).ok()) << key;
    EXPECT_EQ(got, value);
  }
}

TEST_F(IntegrationTest, AddStocAndGracefulRemove) {
  ClusterOptions opt = FastOptions(1, 2);
  StartCluster(opt);
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 1200; i++) {
    std::string key = Key(i % 250);
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(key, value).ok());
    oracle[key] = value;
  }
  auto* engine = cluster_->ltc(0)->ranges()[0];
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);

  int added = cluster_->AddStoc();
  EXPECT_EQ(added, 2);
  // New writes may now land on the new StoC.
  for (int i = 0; i < 1200; i++) {
    std::string key = Key(300 + i % 250);
    ASSERT_TRUE(cluster_->Put(key, "n" + std::to_string(i)).ok());
    oracle[key] = "n" + std::to_string(i);
  }
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);

  // Gracefully remove StoC 0: its blocks must be copied elsewhere first.
  ASSERT_TRUE(cluster_->RemoveStocGraceful(0).ok());
  for (const auto& [key, value] : oracle) {
    std::string got;
    Status s = cluster_->Get(key, &got);
    ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
    EXPECT_EQ(got, value);
  }
}

TEST_F(IntegrationTest, LeasesExpireAndRenew) {
  StartCluster(FastOptions(1, 1));
  auto* coordinator = cluster_->coordinator();
  EXPECT_TRUE(coordinator->IsLeaseValid(coord::Cluster::LtcNode(0)));
  EXPECT_TRUE(coordinator->Heartbeat(coord::Cluster::LtcNode(0)));
  coordinator->ExpireLease(coord::Cluster::LtcNode(0));
  EXPECT_FALSE(coordinator->IsLeaseValid(coord::Cluster::LtcNode(0)));
  EXPECT_FALSE(coordinator->Heartbeat(coord::Cluster::LtcNode(0)));
}

TEST_F(IntegrationTest, SharedNothingPlacementRestrictsStocs) {
  ClusterOptions opt = FastOptions(2, 2);
  opt.split_points = bench::EvenSplitPoints(1000, 2);
  StartCluster(opt);
  baseline::MakeSharedNothing(cluster_.get());
  for (int i = 0; i < 1500; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i % 400), std::string(200, 'x')).ok());
  }
  auto* engine = cluster_->ltc(0)->ranges()[0];
  engine->FlushAllMemtables();
  engine->WaitForQuiescence();
  // Every SSTable block of range 0 lives on StoC 0.
  lsm::VersionRef v = engine->versions()->current();
  for (int level = 0; level < v->num_levels(); level++) {
    for (const auto& f : v->files(level)) {
      for (const auto& replicas : f->fragments) {
        for (const auto& loc : replicas) {
          EXPECT_EQ(loc.stoc_id, coord::Cluster::StocNode(0));
        }
      }
    }
  }
}

}  // namespace
}  // namespace nova
