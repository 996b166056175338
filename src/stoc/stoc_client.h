// Client library for talking to StoCs (used by LTCs, LogC, the compaction
// executor, and StoCs themselves during StoC-to-StoC copies). Implements
// the append flow of Figure 10 and the one-sided in-memory file protocol
// of Section 6.1 on top of the shared RpcEndpoint.
//
// Reads have one shape: Read(replicas, offset, size) issues the read now
// and returns a PendingRead; PendingRead::Wait(&out, deadline) collects
// it, doing replica choice, failover and hedging on the way (§4.4's
// power-of-d, applied to reads). A batch issues every Read, then Waits
// each under one deadline. Every other wait (appends, management calls)
// also takes a util::Deadline from its caller, defaulting to
// rdma::RpcDeadline().
#ifndef NOVA_STOC_STOC_CLIENT_H_
#define NOVA_STOC_STOC_CLIENT_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "coord/membership.h"
#include "rdma/rpc.h"
#include "stoc/stoc_common.h"
#include "util/histogram.h"
#include "util/retry.h"

namespace nova {
namespace stoc {

struct StocStats {
  int queue_depth = 0;
  uint64_t stored_bytes = 0;
  double cpu_utilization = 0;
  /// Offloaded compactions executing on / completed by the StoC.
  int compactions_inflight = 0;
  uint64_t compactions_done = 0;
};

/// Read-path replica selection and hedging (the paper's power-of-d
/// component selection, §4/§6, extended from placement to reads).
struct ReadPolicy {
  /// Candidates issued up front when a read has >1 replica: the d
  /// least-loaded by (outstanding requests, latency EWMA); first success
  /// wins, the losers are cancelled. 1 = pick the single least-loaded.
  int replica_d = 2;
  /// Speculatively re-issue a straggling read to the next-least-loaded
  /// replica once it has been outstanding longer than the hedge delay.
  bool hedge = true;
  /// Floor for the hedge delay; also used verbatim until the latency
  /// histogram holds hedge_min_samples observations to trust a p99.
  uint64_t hedge_min_delay_us = 2000;
  int hedge_min_samples = 64;
};

class StocClient;

/// Client-side load tracking for one StoC: outstanding read RPCs plus an
/// EWMA of observed read latency. Shared with in-flight PendingReads so a
/// read completing after the client rebalances still settles its StoC.
struct StocLoad {
  std::atomic<int> outstanding{0};
  std::atomic<uint64_t> ewma_us{0};
  /// Lifetime reads issued to this StoC (tests pin replica selection).
  std::atomic<uint64_t> issued{0};
  /// Wire traffic to/from this StoC: request + one-sided write bytes out,
  /// response-body bytes in (benchmarks report bytes_over_wire with it).
  std::atomic<uint64_t> bytes_sent{0};
  std::atomic<uint64_t> bytes_received{0};
  /// Test hook: bias added to outstanding when ranking replicas, so load
  /// can be injected deterministically without real in-flight reads.
  std::atomic<int> rank_bias{0};
};

/// One block read in flight (StocClient::Read). The read owns its
/// attempts — the RPCs issued so far to replicas of the block — and Wait()
/// drives them to one result under the client's ReadPolicy: the first
/// success wins and the losers are cancelled, a failed attempt fails over
/// to the next-least-loaded replica, and a straggling read gets one hedge
/// after HedgeDelayUs(). Move-only; dropping it cancels every attempt
/// still in flight and releases its StoC load units.
class PendingRead {
 public:
  PendingRead();
  ~PendingRead();
  PendingRead(PendingRead&&) noexcept;
  PendingRead& operator=(PendingRead&&) noexcept;

  bool valid() const { return state_ != nullptr; }
  /// True once some attempt has a result; never blocks.
  bool ready() const;
  /// Block until the read has a result or the deadline passes. A batch
  /// issues every Read first, then Waits each under one shared deadline.
  /// A read with one replica blocks on its single RPC up to the deadline.
  /// A successful Wait consumes the read (valid() turns false).
  Status Wait(std::string* out,
              const util::Deadline& deadline = rdma::RpcDeadline());
  /// Withdraw the attempts still in flight: their late responses are
  /// dropped and their StoCs' load counts released now. An attempt whose
  /// response already landed is kept, so Wait still returns it.
  void Cancel();

 private:
  friend class StocClient;
  struct State;

  /// Issue the next candidate replica's attempt.
  void Issue(bool hedge);
  /// Collect attempt i, blocking up to the deadline; fills *out on
  /// success and settles the attempt's load, latency and membership.
  Status Finish(size_t i, std::string* out, const util::Deadline& deadline);

  std::unique_ptr<State> state_;
};

/// An in-flight AppendBlock following the Figure-10 flow. The block data
/// slice must stay valid until Arm() returns. Typical batch usage:
/// AsyncAppendBlock all, Arm() all (each waits only the short buffer-grant
/// RPC, then issues the one-sided data write), Wait() all — the slow StoC
/// flushes then overlap across the whole batch.
class PendingAppend {
 public:
  PendingAppend() = default;
  /// Dropping an append that was never driven to completion withdraws its
  /// flush-token slot so the endpoint's waiter map cannot grow unbounded.
  ~PendingAppend() { Abandon(); }
  PendingAppend(PendingAppend&& o) noexcept { *this = std::move(o); }
  PendingAppend& operator=(PendingAppend&& o) noexcept;
  PendingAppend(const PendingAppend&) = delete;
  PendingAppend& operator=(const PendingAppend&) = delete;

  bool valid() const { return client_ != nullptr; }
  /// Step 2: collect the buffer grant and issue the one-sided RDMA WRITE
  /// of the data (immediate data = buffer id). Call exactly once.
  Status Arm();
  /// Step 3: wait for the flush acknowledgment; decodes *handle. Reaps
  /// the completion token on failure, so no cleanup call is needed.
  Status Wait(StocBlockHandle* handle,
              const util::Deadline& deadline = rdma::RpcDeadline());

 private:
  friend class StocClient;
  void Abandon();

  StocClient* client_ = nullptr;
  rdma::NodeId stoc_ = -1;
  Slice data_;
  rdma::Future alloc_;
  rdma::Future flush_ack_;
  Status armed_status_;
  bool armed_ = false;
  /// True once the flush token cannot dangle: the flush ack was waited
  /// for, or the token was reaped after a failure/abandonment.
  bool settled_ = false;
};

class StocClient {
 public:
  /// endpoint is shared with the owning component (its xchg threads route
  /// our responses); it must outlive this client.
  explicit StocClient(rdma::RpcEndpoint* endpoint) : endpoint_(endpoint) {}

  /// --- Persistent files (Figure 10 flow) ---

  /// Append data as one block of file_id on stoc. On success *handle
  /// locates the block. This performs: alloc RPC, one-sided RDMA WRITE
  /// with immediate data, then waits for the flush acknowledgment.
  Status AppendBlock(rdma::NodeId stoc, uint64_t file_id, const Slice& data,
                     StocBlockHandle* handle);

  /// Begin an append (step 1 of Figure 10: the buffer-grant RPC plus the
  /// completion-token registration). See PendingAppend for the protocol.
  PendingAppend AsyncAppendBlock(rdma::NodeId stoc, uint64_t file_id,
                                 const Slice& data);

  /// Read [offset, offset+size) of a persistent block (size 0 = the whole
  /// file) from one of its replicas — the only read call. It ranks the
  /// replicas by tracked load and issues the read now to the d
  /// least-loaded (power-of-d, ReadPolicy::replica_d; suspect/dead StoCs
  /// rank last and get no speculative traffic). Collect the block with
  /// PendingRead::Wait. A single read is Read(...).Wait(&out).
  PendingRead Read(const std::vector<BlockLocation>& replicas,
                   uint64_t offset, uint64_t size);

  /// --- Membership circuit breaker (ISSUE 9) ---
  ///
  /// When set, no reads, writes, or hedges are routed to suspect/dead
  /// StoCs (a half-open trickle of probes excepted, so recovery is
  /// detected), and every RPC outcome feeds the health state machine.
  /// The Membership is owned by the coordinator and must outlive this
  /// client.
  void set_membership(coord::Membership* m) {
    membership_.store(m, std::memory_order_release);
  }
  coord::Membership* membership() const {
    return membership_.load(std::memory_order_acquire);
  }
  /// True when normal traffic may be routed to stoc (no membership set,
  /// or the node is alive).
  bool IsRoutable(rdma::NodeId stoc) const;
  /// Feed an RPC outcome into membership. Only connection-level failures
  /// (Unavailable: dead node, deadline expiry, circuit-relevant injected
  /// faults) count against a node; an application error still proves the
  /// node answered.
  void ReportRpc(rdma::NodeId stoc, const Status& s);

  void set_read_policy(const ReadPolicy& policy) {
    std::lock_guard<std::mutex> l(load_mu_);
    policy_ = policy;
  }
  ReadPolicy read_policy() {
    std::lock_guard<std::mutex> l(load_mu_);
    return policy_;
  }
  /// Per-StoC load state (created on first use). Tests inject rank_bias
  /// through this; the read path updates outstanding/ewma through it.
  std::shared_ptr<StocLoad> load(rdma::NodeId stoc);
  /// Hedge delay currently in force: max(p99 of observed read latency,
  /// policy floor), or the floor alone until enough samples accumulated.
  uint64_t HedgeDelayUs();

  /// Lifetime count of block-read RPCs issued through this client, one
  /// per attempt (the block-cache benchmarks report StoC reads avoided
  /// with it).
  uint64_t read_block_calls() const {
    return read_block_calls_.load(std::memory_order_relaxed);
  }
  /// Reads that had a choice of replica and used power-of-d selection.
  uint64_t pod_reads() const {
    return pod_reads_.load(std::memory_order_relaxed);
  }
  /// Speculative second attempts launched / won (straggler mitigation).
  uint64_t hedged_issued() const {
    return hedged_issued_.load(std::memory_order_relaxed);
  }
  uint64_t hedged_won() const {
    return hedged_won_.load(std::memory_order_relaxed);
  }
  /// Lifetime wire traffic through this client, all StoCs: request and
  /// one-sided-write payload bytes out, response-body bytes in. Per-StoC
  /// numbers live in load(stoc)->bytes_sent/bytes_received.
  uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_received() const {
    return bytes_received_.load(std::memory_order_relaxed);
  }

  Status DeleteFile(rdma::NodeId stoc, uint64_t file_id, bool in_memory);

  /// --- In-memory files (Section 6.1) ---

  Status OpenInMemFile(rdma::NodeId stoc, uint64_t file_id,
                       uint64_t region_size, InMemFileHandle* handle);
  /// Ask the StoC for one more region (when the current one is full).
  Status ExtendInMemFile(InMemFileHandle* handle);
  /// One-sided write at a global offset within the file's region chain.
  /// The data must fit entirely inside one region.
  Status WriteInMem(const InMemFileHandle& handle, uint64_t global_offset,
                    const Slice& data);
  /// One-sided read of a whole region into *out (recovery path).
  Status ReadInMemRegion(const InMemFileHandle& handle, size_t region_index,
                         std::string* out);
  /// Two-sided append to an in-memory file: the StoC's CPU copies the
  /// data (the paper's NIC replication path, Section 8.2.3).
  Status NicAppend(const InMemFileHandle& handle, uint64_t global_offset,
                   const Slice& data);

  /// --- Introspection / management ---

  /// Budgets for the two RPCs that do a whole job at the StoC.
  static constexpr int64_t kCopyFileBudgetMs = 60000;
  static constexpr int64_t kCompactionBudgetMs = 120000;

  /// Load probes (power-of-d placement) pass a short deadline so a StoC
  /// dying mid-probe cannot stall the caller for a whole RPC budget.
  Status GetStats(rdma::NodeId stoc, StocStats* stats,
                  const util::Deadline& deadline = rdma::RpcDeadline());
  /// In-memory log files of a range: used by LogC recovery.
  Status QueryLogFiles(rdma::NodeId stoc, uint32_t range_id,
                       std::vector<InMemFileHandle>* handles);
  Status ListFiles(rdma::NodeId stoc, std::vector<uint64_t>* files);
  /// Ask stoc to copy file_id to dst (graceful decommission path).
  Status CopyFileTo(rdma::NodeId stoc, uint64_t file_id, rdma::NodeId dst,
                    const util::Deadline& deadline =
                        util::Deadline::After(kCopyFileBudgetMs));
  /// Offloaded compaction round trip.
  Status Compaction(rdma::NodeId stoc, const Slice& job, std::string* result,
                    const util::Deadline& deadline =
                        util::Deadline::After(kCompactionBudgetMs));

  rdma::RpcEndpoint* endpoint() { return endpoint_; }

 private:
  friend class PendingRead;
  friend class PendingAppend;

  /// Account wire traffic for one RPC leg (rollup + per-StoC).
  void CountWire(rdma::NodeId stoc, uint64_t sent, uint64_t received);

  Status SimpleCall(rdma::NodeId stoc, const std::string& req, Slice* body,
                    std::string* storage,
                    const util::Deadline& deadline = rdma::RpcDeadline());
  /// SimpleCall under the unified RetryPolicy, for idempotent
  /// introspection ops only (stats/list/query): transient Unavailable
  /// results are retried with backoff until the deadline.
  Status IdempotentCall(rdma::NodeId stoc, const std::string& req, Slice* body,
                        std::string* storage,
                        const util::Deadline& deadline = rdma::RpcDeadline());
  /// Circuit-breaker admission for a single RPC: normal traffic to alive
  /// nodes, a rate-limited probe to suspect/probing ones, nothing to dead
  /// ones.
  bool AdmitRpc(rdma::NodeId stoc);
  /// Candidate replica indices ranked by load, least-loaded first
  /// (routable before non-routable, then outstanding+bias, then latency
  /// EWMA, then index for determinism).
  std::vector<size_t> RankReplicas(const std::vector<BlockLocation>& replicas);
  void RecordReadLatency(uint64_t us);

  rdma::RpcEndpoint* endpoint_;
  std::atomic<coord::Membership*> membership_{nullptr};
  std::atomic<uint64_t> read_block_calls_{0};
  std::atomic<uint64_t> pod_reads_{0};
  std::atomic<uint64_t> hedged_issued_{0};
  std::atomic<uint64_t> hedged_won_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};

  std::mutex load_mu_;
  ReadPolicy policy_;
  std::map<rdma::NodeId, std::shared_ptr<StocLoad>> load_;
  /// Observed read latencies feeding the p99-based hedge delay.
  Histogram read_latency_us_;
};

}  // namespace stoc
}  // namespace nova

#endif  // NOVA_STOC_STOC_CLIENT_H_
