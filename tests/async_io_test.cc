// Tests for the asynchronous StoC I/O pipeline: Future/AsyncCall
// semantics (out-of-order completion, deadlines, peers leaving the
// fabric), batches of StocClient::Read (parallel fan-out, replica
// failover, mixed success/failure), thread-free scatter writes, degraded
// parity gathers through one batch of reads, and scan readahead (hit
// accounting + identical iteration results with readahead on/off).
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_core/workload.h"
#include "coord/cluster.h"
#include "lsm/table_io.h"
#include "rdma/rpc.h"
#include "sstable/sstable_builder.h"
#include "sstable/sstable_reader.h"
#include "stoc/stoc_client.h"
#include "stoc/stoc_server.h"
#include "storage/block_store.h"
#include "storage/simulated_device.h"
#include "util/failpoint.h"

namespace nova {
namespace {

std::string Key(uint64_t i) { return bench::MakeKey(i); }

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------
// RPC-layer future semantics.
// ---------------------------------------------------------------------------

class AsyncRpcTest : public testing::Test {
 protected:
  void SetUp() override {
    fabric_.AddNode(0);
    fabric_.AddNode(1);
    client_ = std::make_unique<rdma::RpcEndpoint>(&fabric_, 0, 2, nullptr);
    server_ = std::make_unique<rdma::RpcEndpoint>(&fabric_, 1, 2, nullptr);
    client_->set_request_handler(
        [](rdma::NodeId, uint64_t, const Slice&) {});
  }

  void TearDown() override {
    client_->Stop();
    server_->Stop();
  }

  rdma::RdmaFabric fabric_;
  std::unique_ptr<rdma::RpcEndpoint> client_;
  std::unique_ptr<rdma::RpcEndpoint> server_;
};

TEST_F(AsyncRpcTest, FuturesCompleteOutOfOrder) {
  // The server batches three requests and answers them newest-first, so
  // the first-issued future completes last.
  std::mutex mu;
  std::vector<std::pair<uint64_t, std::string>> batch;
  server_->set_request_handler(
      [&](rdma::NodeId src, uint64_t req_id, const Slice& payload) {
        std::vector<std::pair<uint64_t, std::string>> ready;
        {
          std::lock_guard<std::mutex> l(mu);
          batch.emplace_back(req_id, payload.ToString());
          if (batch.size() == 3) {
            ready.swap(batch);
          }
        }
        for (auto it = ready.rbegin(); it != ready.rend(); ++it) {
          server_->Reply(src, it->first, "echo:" + it->second);
        }
      });
  server_->Start();
  client_->Start();

  rdma::Future f1 = client_->AsyncCall(1, "a");
  rdma::Future f2 = client_->AsyncCall(1, "b");
  rdma::Future f3 = client_->AsyncCall(1, "c");
  ASSERT_TRUE(f1.valid());
  ASSERT_TRUE(f2.valid());
  ASSERT_TRUE(f3.valid());

  std::string r3, r1, r2;
  ASSERT_TRUE(f3.Wait(&r3).ok());
  ASSERT_TRUE(f1.Wait(&r1).ok());
  ASSERT_TRUE(f2.Wait(&r2).ok());
  EXPECT_EQ(r1, "echo:a");
  EXPECT_EQ(r2, "echo:b");
  EXPECT_EQ(r3, "echo:c");
}

TEST_F(AsyncRpcTest, AsyncCallToDeadNodeFailsImmediately) {
  client_->Start();
  fabric_.RemoveNode(1);
  rdma::Future f = client_->AsyncCall(1, "ping");
  ASSERT_TRUE(f.valid());
  EXPECT_TRUE(f.ready());
  EXPECT_TRUE(f.Wait(nullptr).IsUnavailable());
}

TEST_F(AsyncRpcTest, WaitTimesOutWhenNoReply) {
  // Server swallows requests: every copy of the future sees the timeout.
  server_->set_request_handler(
      [](rdma::NodeId, uint64_t, const Slice&) {});
  server_->Start();
  client_->Start();
  rdma::Future f = client_->AsyncCall(1, "void");
  rdma::Future copy = f;
  EXPECT_TRUE(f.Wait(nullptr, util::Deadline::After(50)).IsUnavailable());
  EXPECT_TRUE(copy.ready());
  EXPECT_TRUE(copy.Wait(nullptr, util::Deadline::After(50)).IsUnavailable());
}

TEST_F(AsyncRpcTest, DroppedReplyWaitsOutTheDeadline) {
  // The server answers, but every reply is lost on the way back: with
  // both ends up, only the caller's deadline ends the wait.
  server_->set_request_handler(
      [this](rdma::NodeId src, uint64_t req_id, const Slice& payload) {
        server_->Reply(src, req_id, payload);
      });
  server_->Start();
  client_->Start();
  util::FailPoint::EnableError("rpc.reply",
                               Status::Unavailable("injected: rpc.reply"));
  auto start = std::chrono::steady_clock::now();
  std::string response;
  Status s = client_->Call(1, "ping", &response, util::Deadline::After(200));
  double ms = MsSince(start);
  util::FailPoint::DisableAll();
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_GE(ms, 180);
  EXPECT_LT(ms, 2000);
  EXPECT_EQ(client_->num_pending_waiters(), 0u);
}

TEST_F(AsyncRpcTest, RemoveNodeFailsWaitersForThatNode) {
  // Node 1 swallows requests, so a call to it and a token it should
  // complete can only end by their deadline — or by node 1 leaving the
  // fabric, which must fail both at once. A waiter on another node stays.
  fabric_.AddNode(2);
  rdma::RpcEndpoint other(&fabric_, 2, 1, nullptr);
  other.set_request_handler([](rdma::NodeId, uint64_t, const Slice&) {});
  other.Start();
  server_->set_request_handler([](rdma::NodeId, uint64_t, const Slice&) {});
  server_->Start();
  client_->Start();
  rdma::Future call = client_->AsyncCall(1, "void");
  rdma::Future token;
  client_->AllocToken(&token, 1);
  rdma::Future bystander = client_->AsyncCall(2, "void");
  EXPECT_EQ(client_->num_pending_waiters(), 3u);

  std::thread remover([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    fabric_.RemoveNode(1);
  });
  auto start = std::chrono::steady_clock::now();
  util::Deadline deadline = util::Deadline::After(10000);
  EXPECT_TRUE(call.Wait(nullptr, deadline).IsUnavailable());
  EXPECT_TRUE(token.Wait(nullptr, deadline).IsUnavailable());
  double ms = MsSince(start);
  remover.join();
  EXPECT_LT(ms, 2000) << "waiters sat out their deadline";
  EXPECT_FALSE(bystander.ready());
  EXPECT_EQ(client_->num_pending_waiters(), 1u);
  bystander.Cancel();
  other.Stop();
}

// ---------------------------------------------------------------------------
// StoC client batch primitives over real StoC servers.
// ---------------------------------------------------------------------------

class AsyncStocTest : public testing::Test {
 protected:
  static constexpr rdma::NodeId kClientNode = 0;
  static constexpr rdma::NodeId kStoc0 = 1000;
  static constexpr int kNumStocs = 4;

  void SetUp() override {
    DeviceConfig dcfg;
    dcfg.time_scale = 0;
    for (int i = 0; i < kNumStocs; i++) {
      devices_.push_back(
          std::make_unique<SimulatedDevice>("d" + std::to_string(i), dcfg));
      stores_.push_back(std::make_unique<BlockStore>());
      stoc::StocServerOptions opt;
      opt.slab_bytes = 16 << 20;
      opt.slab_page_bytes = 256 << 10;
      servers_.push_back(std::make_unique<stoc::StocServer>(
          &fabric_, kStoc0 + i, devices_[i].get(), stores_[i].get(), opt));
      servers_[i]->Start();
    }
    fabric_.AddNode(kClientNode);
    endpoint_ = std::make_unique<rdma::RpcEndpoint>(&fabric_, kClientNode, 2,
                                                    nullptr);
    endpoint_->set_request_handler(
        [](rdma::NodeId, uint64_t, const Slice&) {});
    endpoint_->Start();
    client_ = std::make_unique<stoc::StocClient>(endpoint_.get());
  }

  void TearDown() override {
    endpoint_->Stop();
    for (auto& s : servers_) {
      s->Stop();
    }
  }

  void KillStoc(int index) {
    servers_[index]->Stop();
    fabric_.RemoveNode(kStoc0 + index);
  }

  /// A ρ=3 + parity + 2 meta replica SSTable written through the async
  /// scatter path; returns the placement and the built bytes.
  lsm::FileMetaRef WriteScatteredTable(SSTableBuilder::Result&& built,
                                       std::string* data_copy) {
    *data_copy = built.data;
    lsm::PlacementOptions popt;
    for (int i = 0; i < kNumStocs; i++) {
      popt.stocs.push_back(kStoc0 + i);
    }
    popt.rho = 3;
    popt.power_of_d = false;
    popt.adjust_rho_by_size = false;
    popt.use_parity = true;
    popt.num_meta_replicas = 2;
    lsm::SSTablePlacer placer(client_.get(), popt);
    auto out = std::make_shared<lsm::FileMetaData>();
    Status s = placer.Write(std::move(built), 0, 0, out.get());
    EXPECT_TRUE(s.ok()) << s.ToString();
    return out;
  }

  static SSTableBuilder::Result BuildTable(int num_keys, int num_fragments) {
    SSTableBuilder builder;
    std::string value(256, 'v');
    for (int i = 0; i < num_keys; i++) {
      std::string ikey;
      AppendInternalKey(&ikey,
                        ParsedInternalKey(Key(i), i + 1, kTypeValue));
      builder.Add(ikey, value);
    }
    return builder.Finish(/*file_number=*/1, num_fragments);
  }

  rdma::RdmaFabric fabric_;
  std::vector<std::unique_ptr<SimulatedDevice>> devices_;
  std::vector<std::unique_ptr<BlockStore>> stores_;
  std::vector<std::unique_ptr<stoc::StocServer>> servers_;
  std::unique_ptr<rdma::RpcEndpoint> endpoint_;
  std::unique_ptr<stoc::StocClient> client_;
};

TEST_F(AsyncStocTest, GatherReadsParallelSuccess) {
  uint64_t f0 = stoc::MakeFileId(1, 1, stoc::FileKind::kData, 0);
  uint64_t f1 = stoc::MakeFileId(1, 2, stoc::FileKind::kData, 0);
  stoc::StocBlockHandle h;
  ASSERT_TRUE(client_->AppendBlock(kStoc0, f0, "abcdefgh", &h).ok());
  ASSERT_TRUE(client_->AppendBlock(kStoc0 + 1, f1, "01234567", &h).ok());

  // A batch: issue every read, then wait each under one deadline.
  std::vector<stoc::PendingRead> reads;
  reads.push_back(client_->Read({{kStoc0, f0}}, 0, 0));  // whole file
  reads.push_back(client_->Read({{kStoc0 + 1, f1}}, 2, 4));
  reads.push_back(client_->Read({{kStoc0, f0}}, 4, 4));
  util::Deadline deadline = rdma::RpcDeadline();
  std::string data[3];
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(reads[i].Wait(&data[i], deadline).ok());
  }
  EXPECT_EQ(data[0], "abcdefgh");
  EXPECT_EQ(data[1], "2345");
  EXPECT_EQ(data[2], "efgh");
}

TEST_F(AsyncStocTest, GatherReadsMixedFailureAndFailover) {
  uint64_t good = stoc::MakeFileId(1, 3, stoc::FileKind::kData, 0);
  uint64_t replica2 = stoc::MakeFileId(1, 4, stoc::FileKind::kData, 1);
  uint64_t missing = stoc::MakeFileId(1, 5, stoc::FileKind::kData, 0);
  stoc::StocBlockHandle h;
  ASSERT_TRUE(client_->AppendBlock(kStoc0, good, "solid", &h).ok());
  ASSERT_TRUE(client_->AppendBlock(kStoc0 + 2, replica2, "backup", &h).ok());

  std::vector<stoc::PendingRead> reads;
  reads.push_back(client_->Read({{kStoc0, good}}, 0, 0));
  // First replica is missing; the read fails over to stoc2.
  reads.push_back(
      client_->Read({{kStoc0 + 1, missing}, {kStoc0 + 2, replica2}}, 0, 0));
  // No replica exists anywhere: this read must fail without poisoning
  // the others in the batch.
  reads.push_back(client_->Read({{kStoc0 + 1, missing}}, 0, 0));
  util::Deadline deadline = rdma::RpcDeadline();
  std::string data[3];
  Status status[3];
  for (int i = 0; i < 3; i++) {
    status[i] = reads[i].Wait(&data[i], deadline);
  }
  EXPECT_TRUE(status[0].ok());
  EXPECT_EQ(data[0], "solid");
  EXPECT_TRUE(status[1].ok());
  EXPECT_EQ(data[1], "backup");
  EXPECT_FALSE(status[2].ok());
}

TEST_F(AsyncStocTest, DroppedReadReplyWaitsOutTheDeadline) {
  uint64_t fid = stoc::MakeFileId(1, 6, stoc::FileKind::kData, 0);
  stoc::StocBlockHandle h;
  ASSERT_TRUE(client_->AppendBlock(kStoc0, fid, "never-arrives", &h).ok());
  util::FailPoint::EnableError("rpc.reply",
                               Status::Unavailable("injected: rpc.reply"));
  auto start = std::chrono::steady_clock::now();
  std::string out;
  Status s = client_->Read({{kStoc0, fid}}, 0, 0)
                 .Wait(&out, util::Deadline::After(200));
  double ms = MsSince(start);
  util::FailPoint::DisableAll();
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_GE(ms, 180);
  EXPECT_LT(ms, 2000);
  EXPECT_EQ(endpoint_->num_pending_waiters(), 0u);
  EXPECT_EQ(client_->load(kStoc0)->outstanding.load(), 0);
}

TEST_F(AsyncStocTest, ReadFailsWhenItsStocLeavesTheFabric) {
  // A read queued behind a slow disk waits on that StoC; killing the StoC
  // must fail the read at once, not when its 30 s budget runs out.
  uint64_t fid = stoc::MakeFileId(1, 7, stoc::FileKind::kData, 0);
  stoc::StocBlockHandle h;
  ASSERT_TRUE(client_->AppendBlock(kStoc0, fid, "slow", &h).ok());
  devices_[0]->InjectLatency(1500 * 1000);
  stoc::PendingRead read = client_->Read({{kStoc0, fid}}, 0, 0);
  std::thread killer([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    fabric_.RemoveNode(kStoc0);
  });
  auto start = std::chrono::steady_clock::now();
  std::string out;
  Status s = read.Wait(&out);
  double ms = MsSince(start);
  killer.join();
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_LT(ms, 1000) << "the read waited for the slow reply";
  EXPECT_EQ(endpoint_->num_pending_waiters(), 0u);
}

TEST_F(AsyncStocTest, ScatterWriteRoundTrip) {
  auto built = BuildTable(/*num_keys=*/200, /*num_fragments=*/3);
  ASSERT_EQ(built.meta.num_fragments(), 3);
  std::string data;
  lsm::FileMetaRef meta = WriteScatteredTable(std::move(built), &data);

  ASSERT_EQ(meta->fragments.size(), 3u);
  EXPECT_TRUE(meta->parity.valid());
  EXPECT_EQ(meta->meta_replicas.size(), 2u);
  for (const auto& loc : meta->meta_replicas) {
    EXPECT_TRUE(loc.valid());
  }
  // Every fragment reads back as the matching slice of the built data.
  uint64_t offset = 0;
  for (int f = 0; f < 3; f++) {
    ASSERT_EQ(meta->fragments[f].size(), 1u);
    std::string frag;
    ASSERT_TRUE(client_->Read(meta->fragments[f], 0, 0).Wait(&frag).ok());
    EXPECT_EQ(frag, data.substr(offset, meta->fragment_sizes[f]));
    offset += meta->fragment_sizes[f];
  }
}

TEST_F(AsyncStocTest, DegradedParityGatherReconstructsLostFragment) {
  auto built = BuildTable(/*num_keys=*/200, /*num_fragments=*/3);
  std::string data;
  lsm::FileMetaRef meta = WriteScatteredTable(std::move(built), &data);

  // Lose the StoC hosting fragment 1 (and only that one, so the parity
  // gather can still reach the parity block and the other fragments).
  int lost_stoc = meta->fragments[1][0].stoc_id;
  EXPECT_NE(meta->parity.stoc_id, lost_stoc);
  KillStoc(lost_stoc - kStoc0);

  lsm::StocBlockFetcher fetcher(client_.get(), meta);
  std::string frag;
  ASSERT_TRUE(
      fetcher.Fetch(1, 0, meta->fragment_sizes[1], &frag).ok());
  uint64_t offset = meta->fragment_sizes[0];
  EXPECT_EQ(frag, data.substr(offset, meta->fragment_sizes[1]));
  EXPECT_GE(fetcher.degraded_reads(), 1u);

  // A sliced read of the lost fragment reconstructs and re-slices.
  std::string slice;
  ASSERT_TRUE(fetcher.Fetch(1, 10, 64, &slice).ok());
  EXPECT_EQ(slice, data.substr(offset + 10, 64));
}

TEST_F(AsyncStocTest, ReadaheadIteratorMatchesSerialScan) {
  auto built = BuildTable(/*num_keys=*/300, /*num_fragments=*/3);
  SSTableMetadata table_meta = built.meta;
  std::string data;
  lsm::FileMetaRef meta = WriteScatteredTable(std::move(built), &data);

  lsm::StocBlockFetcher fetcher(client_.get(), meta);
  ReadaheadCounters counters;
  SSTableReader reader(table_meta, &fetcher, /*block_cache=*/nullptr,
                       /*range_id=*/0, /*readahead_blocks=*/2, &counters);

  auto collect = [](Iterator* raw) {
    std::unique_ptr<Iterator> it(raw);
    std::vector<std::pair<std::string, std::string>> rows;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      rows.emplace_back(it->key().ToString(), it->value().ToString());
    }
    return rows;
  };
  auto serial = collect(reader.NewIterator(true, /*readahead_blocks=*/0));
  EXPECT_EQ(counters.issued.load(), 0u);
  auto ahead = collect(reader.NewIterator(true, /*readahead_blocks=*/2));
  EXPECT_EQ(ahead, serial);
  EXPECT_EQ(serial.size(), 300u);
  EXPECT_GT(counters.issued.load(), 0u);
  EXPECT_GT(counters.hits.load(), 0u);
  EXPECT_LE(counters.hits.load(), counters.issued.load());
}

// ---------------------------------------------------------------------------
// Scan readahead end to end through the cluster.
// ---------------------------------------------------------------------------

coord::ClusterOptions ReadaheadClusterOptions(int readahead_blocks) {
  coord::ClusterOptions opt;
  opt.num_ltcs = 1;
  opt.num_stocs = 3;
  opt.device.time_scale = 0;
  // Memtables sized so a flush spans several 4 KB data blocks — a
  // single-block SSTable has nothing to read ahead.
  opt.range.memtable_size = 32 << 10;
  opt.range.max_memtables = 8;
  opt.range.max_sstable_size = 64 << 10;
  opt.range.drange.theta = 4;
  opt.range.drange.warmup_writes = 200;
  opt.range.lsm.l0_compaction_trigger_bytes = 32 << 10;
  opt.range.lsm.l0_stop_bytes = 256 << 10;
  opt.range.lsm.base_level_bytes = 128 << 10;
  opt.range.log.mode = logc::LogMode::kNone;
  opt.placement.rho = 2;
  opt.stoc.slab_bytes = 64 << 20;
  opt.stoc.slab_page_bytes = 256 << 10;
  opt.ltc.readahead_blocks = readahead_blocks;
  return opt;
}

std::vector<std::pair<std::string, std::string>> LoadAndScan(
    int readahead_blocks, uint64_t* readahead_issued,
    uint64_t* readahead_hits) {
  coord::Cluster cluster(ReadaheadClusterOptions(readahead_blocks));
  cluster.Start();
  for (int i = 0; i < 800; i++) {
    EXPECT_TRUE(cluster
                    .Put(Key(i % 400),
                         std::string(512, 'v') + std::to_string(i))
                    .ok());
  }
  for (auto* engine : cluster.ltc(0)->ranges()) {
    engine->FlushAllMemtables();
    engine->WaitForQuiescence(/*flush_all=*/true);
  }
  std::vector<std::pair<std::string, std::string>> rows;
  EXPECT_TRUE(cluster.Scan(Key(0), 400, &rows).ok());
  ltc::RangeStats stats = cluster.TotalStats();
  *readahead_issued = stats.readahead_issued;
  *readahead_hits = stats.readahead_hits;
  cluster.Stop();
  return rows;
}

TEST(ScanReadaheadClusterTest, HitsCountedAndResultsIdentical) {
  uint64_t issued_off = 0, hits_off = 0, issued_on = 0, hits_on = 0;
  auto rows_off = LoadAndScan(/*readahead_blocks=*/0, &issued_off,
                              &hits_off);
  auto rows_on = LoadAndScan(/*readahead_blocks=*/2, &issued_on, &hits_on);
  EXPECT_EQ(rows_off, rows_on);
  EXPECT_EQ(rows_on.size(), 400u);
  EXPECT_EQ(issued_off, 0u);
  EXPECT_EQ(hits_off, 0u);
  EXPECT_GT(issued_on, 0u);
  EXPECT_GT(hits_on, 0u);
}

}  // namespace
}  // namespace nova
