// Tests for the StoC read path's load-aware replica selection: power-of-d
// fan-out over the d least-loaded replicas, hedged requests for
// stragglers, cancellation of losing attempts (duplicate-completion
// safety at the RPC layer), and the stat-counter rollup through
// LtcServer::TotalStats.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ltc/ltc_server.h"
#include "rdma/rpc.h"
#include "stoc/stoc_client.h"
#include "stoc/stoc_server.h"
#include "storage/block_store.h"
#include "storage/simulated_device.h"

namespace nova {
namespace {

uint64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class ReadPathTest : public testing::Test {
 protected:
  static constexpr rdma::NodeId kClientNode = 0;
  static constexpr rdma::NodeId kStoc0 = 1000;
  static constexpr int kNumStocs = 3;

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

  /// Store the same block on every StoC under one file id; returns the
  /// replica target list for reads.
  std::vector<stoc::BlockLocation> Replicate(uint64_t file_id,
                                                  const std::string& data) {
    std::vector<stoc::BlockLocation> targets;
    for (int i = 0; i < kNumStocs; i++) {
      stoc::StocBlockHandle handle;
      EXPECT_TRUE(
          client_->AppendBlock(kStoc0 + i, file_id, data, &handle).ok());
      targets.push_back({kStoc0 + i, file_id});
    }
    return targets;
  }

  rdma::RdmaFabric fabric_;
  std::vector<std::unique_ptr<SimulatedDevice>> devices_;
  std::vector<std::unique_ptr<BlockStore>> stores_;
  std::vector<std::unique_ptr<stoc::StocServer>> servers_;
  std::unique_ptr<rdma::RpcEndpoint> endpoint_;
  std::unique_ptr<stoc::StocClient> client_;
};

TEST_F(ReadPathTest, PowerOfDPicksLeastLoadedReplica) {
  uint64_t fid = stoc::MakeFileId(1, 1, stoc::FileKind::kData, 0);
  auto targets = Replicate(fid, "replicated-block");

  stoc::ReadPolicy policy;
  policy.replica_d = 1;
  policy.hedge = false;
  client_->set_read_policy(policy);

  // Load is injected deterministically: replicas 0 and 2 look busy.
  client_->load(kStoc0 + 0)->rank_bias.store(5);
  client_->load(kStoc0 + 2)->rank_bias.store(5);
  for (int i = 0; i < 10; i++) {
    std::string out;
    ASSERT_TRUE(client_->Read(targets, 0, 0).Wait(&out).ok());
    EXPECT_EQ(out, "replicated-block");
  }
  EXPECT_EQ(client_->load(kStoc0 + 0)->issued.load(), 0u);
  EXPECT_EQ(client_->load(kStoc0 + 1)->issued.load(), 10u);
  EXPECT_EQ(client_->load(kStoc0 + 2)->issued.load(), 0u);

  // Shift the load: now replica 1 is the busy one; ties between 0 and 2
  // break by replica order, so 0 serves.
  client_->load(kStoc0 + 0)->rank_bias.store(0);
  client_->load(kStoc0 + 1)->rank_bias.store(5);
  client_->load(kStoc0 + 2)->rank_bias.store(0);
  std::string out;
  ASSERT_TRUE(client_->Read(targets, 0, 0).Wait(&out).ok());
  EXPECT_EQ(client_->load(kStoc0 + 0)->issued.load(), 1u);
  EXPECT_EQ(client_->load(kStoc0 + 1)->issued.load(), 10u);
}

TEST_F(ReadPathTest, PowerOfDFansOutToDReplicas) {
  uint64_t fid = stoc::MakeFileId(1, 2, stoc::FileKind::kData, 0);
  auto targets = Replicate(fid, "fan-out");

  stoc::ReadPolicy policy;
  policy.replica_d = 2;
  policy.hedge = false;
  client_->set_read_policy(policy);

  client_->load(kStoc0 + 1)->rank_bias.store(9);  // ranks last
  uint64_t pod_before = client_->pod_reads();
  std::string out;
  ASSERT_TRUE(client_->Read(targets, 0, 0).Wait(&out).ok());
  EXPECT_EQ(out, "fan-out");
  // Both least-loaded replicas were tried up front; the busy one not at
  // all (both issued attempts succeed, so failover never reaches it).
  EXPECT_EQ(client_->load(kStoc0 + 0)->issued.load(), 1u);
  EXPECT_EQ(client_->load(kStoc0 + 1)->issued.load(), 0u);
  EXPECT_EQ(client_->load(kStoc0 + 2)->issued.load(), 1u);
  EXPECT_EQ(client_->pod_reads(), pod_before + 1);

  // Outstanding-load units all returned once the read settled its winner
  // and cancelled the loser; no waiter slot leaked in the endpoint.
  for (int i = 0; i < kNumStocs; i++) {
    EXPECT_EQ(client_->load(kStoc0 + i)->outstanding.load(), 0);
  }
  EXPECT_EQ(endpoint_->num_pending_waiters(), 0u);
}

TEST_F(ReadPathTest, HedgedRequestWinsOverDelayedStoc) {
  uint64_t fid = stoc::MakeFileId(1, 3, stoc::FileKind::kData, 0);
  auto targets = Replicate(fid, "hedge-me");

  // Replica 0 becomes a straggler after the data was stored.
  devices_[0]->InjectLatency(300 * 1000);

  stoc::ReadPolicy policy;
  policy.replica_d = 1;
  policy.hedge = true;
  policy.hedge_min_delay_us = 3000;
  client_->set_read_policy(policy);

  // All load equal -> ranking falls back to replica order, so the
  // straggler is picked first and only the hedge can finish quickly.
  std::vector<stoc::BlockLocation> two = {targets[0], targets[1]};
  uint64_t start = NowUs();
  std::string out;
  ASSERT_TRUE(client_->Read(two, 0, 0).Wait(&out).ok());
  uint64_t elapsed = NowUs() - start;
  EXPECT_EQ(out, "hedge-me");
  // The hedge fired and won: way faster than the injected 300 ms.
  EXPECT_LT(elapsed, 150 * 1000u);
  EXPECT_EQ(client_->hedged_issued(), 1u);
  EXPECT_EQ(client_->hedged_won(), 1u);
  EXPECT_EQ(client_->load(kStoc0 + 1)->issued.load(), 1u);
  // The losing attempt was cancelled: its load unit is released now even
  // though its response is still ~300 ms out, and its waiter slot is
  // withdrawn so the late response will be dropped on arrival.
  EXPECT_EQ(client_->load(kStoc0 + 0)->outstanding.load(), 0);
  EXPECT_EQ(endpoint_->num_pending_waiters(), 0u);
}

TEST_F(ReadPathTest, CancelReleasesLoadAndDropsLateResponse) {
  uint64_t fid = stoc::MakeFileId(1, 4, stoc::FileKind::kData, 0);
  auto targets = Replicate(fid, "cancel-me");

  devices_[0]->InjectLatency(200 * 1000);
  stoc::PendingRead slow = client_->Read({targets[0]}, 0, 0);
  ASSERT_TRUE(slow.valid());
  EXPECT_EQ(client_->load(kStoc0)->outstanding.load(), 1);

  slow.Cancel();
  EXPECT_EQ(client_->load(kStoc0)->outstanding.load(), 0);
  EXPECT_EQ(endpoint_->num_pending_waiters(), 0u);
  std::string out;
  EXPECT_FALSE(slow.Wait(&out).ok());

  // The client stays fully usable while the cancelled response is still
  // in flight; when it lands it hits a withdrawn waiter and is dropped.
  ASSERT_TRUE(client_->Read({targets[1]}, 0, 0).Wait(&out).ok());
  EXPECT_EQ(out, "cancel-me");
}

TEST_F(ReadPathTest, CancelAfterCompletionKeepsResult) {
  uint64_t fid = stoc::MakeFileId(1, 5, stoc::FileKind::kData, 0);
  auto targets = Replicate(fid, "already-done");

  stoc::PendingRead read = client_->Read({targets[1]}, 0, 0);
  ASSERT_TRUE(read.valid());
  // Let the completion land before cancelling (duplicate-completion
  // ordering: cancel loses the race, the result must survive).
  for (int i = 0; i < 10000 && !read.ready(); i++) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_TRUE(read.ready());
  read.Cancel();
  std::string out;
  ASSERT_TRUE(read.Wait(&out).ok());
  EXPECT_EQ(out, "already-done");
  EXPECT_EQ(endpoint_->num_pending_waiters(), 0u);
}

TEST_F(ReadPathTest, HedgeDelayUsesFloorUntilEnoughSamples) {
  stoc::ReadPolicy policy;
  policy.hedge_min_delay_us = 7000;
  policy.hedge_min_samples = 64;
  client_->set_read_policy(policy);
  // No samples yet: the p99 is meaningless, so the floor rules.
  EXPECT_EQ(client_->HedgeDelayUs(), 7000u);
}

TEST_F(ReadPathTest, FailoverExhaustsReplicasBeforeFailing) {
  uint64_t fid = stoc::MakeFileId(1, 6, stoc::FileKind::kData, 0);
  auto targets = Replicate(fid, "failover");

  stoc::ReadPolicy policy;
  policy.replica_d = 2;
  policy.hedge = false;
  client_->set_read_policy(policy);

  // The two preferred replicas serve failures (failed devices complete
  // requests immediately with an error); the read must still succeed off
  // the third.
  devices_[0]->Fail();
  devices_[1]->Fail();
  std::string out;
  ASSERT_TRUE(client_->Read(targets, 0, 0).Wait(&out).ok());
  EXPECT_EQ(out, "failover");
  EXPECT_EQ(client_->load(kStoc0 + 2)->issued.load(), 1u);

  // With every replica failing, the read reports the failure.
  devices_[2]->Fail();
  EXPECT_FALSE(client_->Read(targets, 0, 0).Wait(&out).ok());
  EXPECT_EQ(endpoint_->num_pending_waiters(), 0u);
}

TEST_F(ReadPathTest, StatCountersRollUpThroughLtcServer) {
  uint64_t fid = stoc::MakeFileId(1, 7, stoc::FileKind::kData, 0);
  auto targets = Replicate(fid, "rollup");

  ltc::LtcServerOptions opt;
  opt.node = 1;
  opt.read_replica_d = 2;
  opt.read_hedging = true;
  ltc::LtcServer server(&fabric_, opt);
  server.Start();

  // A replicated read through the LTC's shared client counts as one
  // power-of-d read node-wide.
  std::string out;
  ASSERT_TRUE(server.stoc_client()->Read(targets, 0, 0).Wait(&out).ok());
  EXPECT_EQ(out, "rollup");
  ltc::RangeStats stats = server.TotalStats();
  EXPECT_EQ(stats.pod_reads, 1u);

  // Force a hedge through the server's client: straggle the first-ranked
  // replica and shrink the hedge delay.
  stoc::ReadPolicy policy = server.stoc_client()->read_policy();
  policy.replica_d = 1;
  policy.hedge_min_delay_us = 3000;
  server.stoc_client()->set_read_policy(policy);
  devices_[0]->InjectLatency(300 * 1000);
  // The first read left an EWMA on its winning replica, which would rank
  // the fast replica first; pin the straggler to the front instead.
  server.stoc_client()->load(kStoc0 + 1)->rank_bias.store(1);
  ASSERT_TRUE(server.stoc_client()
                  ->Read({targets[0], targets[1]}, 0, 0)
                  .Wait(&out)
                  .ok());
  stats = server.TotalStats();
  // GE, not EQ: the first read ran under the server's default policy,
  // where a CI-load hiccup past the hedge floor legitimately hedges too.
  EXPECT_GE(stats.hedged_issued, 1u);
  EXPECT_GE(stats.hedged_won, 1u);
  server.Stop();
}

}  // namespace
}  // namespace nova
