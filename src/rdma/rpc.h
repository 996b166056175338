// Request/response messaging over the RDMA fabric, mirroring the paper's
// thread model (Section 3.2): each node runs a set of dedicated exchange
// (xchg) threads that poll their queue pairs, back off exponentially when
// idle, and delegate actual work to other threads.
//
// Three message kinds ride on RDMA SEND:
//   * requests   — dispatched to the node's request handler (which may
//                  reply inline or hand off to a worker pool and reply
//                  later via Reply());
//   * responses  — fulfill the Future of the matching AsyncCall()/Call()
//                  by request id;
//   * token completions — fulfill the token's Future on the destination.
// Tokens implement the paper's Figure-10 append protocol: the client
// allocates a token, passes it in the open/alloc request, RDMA-WRITEs the
// block with imm = region id, and the StoC completes the token once the
// block is flushed — no extra client->server message.
//
// Deadlines: every wait (Future::Wait, Call) takes a util::Deadline that
// its caller creates once and passes down a whole call chain; a caller
// with no budget of its own uses RpcDeadline(), the one default budget.
// A wait ends at the reply (or token completion), at the deadline, or
// when its peer leaves the fabric: each waiter records the node it waits
// on (the request's destination, or the StoC that completes a token), and
// RdmaFabric::RemoveNode fails every endpoint's waiters for that node with
// Unavailable at once, the way an RC queue pair in error state flushes its
// outstanding work requests. Only a reply lost while both ends stay up
// (the "rpc.reply" failpoint) waits out the deadline.
#ifndef NOVA_RDMA_RPC_H_
#define NOVA_RDMA_RPC_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rdma/fabric.h"
#include "sim/cpu_throttle.h"
#include "util/retry.h"

namespace nova {
namespace rdma {

class RpcEndpoint;

/// The default RPC budget, for callers that have no deadline of their own.
constexpr int64_t kRpcBudgetMs = 30000;
inline util::Deadline RpcDeadline() {
  return util::Deadline::After(kRpcBudgetMs);
}

/// Completion handle for one asynchronous request/response or token wait.
/// Lightweight and copyable; every copy shares one completion slot, which
/// an xchg thread fulfills when the response (or a failure) lands. A
/// Future may be dropped without waiting — the completion is discarded —
/// but it must not outlive its endpoint.
class Future {
 public:
  Future() = default;  // invalid; Wait fails with InvalidArgument

  bool valid() const { return state_ != nullptr; }
  /// True once the result is available; never blocks.
  bool ready() const;
  /// Block until the result is available or `until` passes; returns
  /// ready(). Never withdraws the waiter (a caller racing several futures
  /// sleeps on one of them without giving up on it).
  bool ReadyBy(const util::Deadline& until) const;
  /// Block until completion or the deadline. At the deadline the waiter
  /// slot is withdrawn, so a late response is dropped and every copy of
  /// this future observes a typed Status::Unavailable (a wedged peer is
  /// indistinguishable from a dead one at this layer). payload may be
  /// null. The payload is moved out by the first Wait that asks for it
  /// (responses can be whole fragments); later Waits still see the status
  /// but an empty payload.
  Status Wait(std::string* payload,
              const util::Deadline& deadline = RpcDeadline());

  /// Withdraw interest in the result (hedged/duplicated requests: the
  /// losing attempt is cancelled once a winner returns). The waiter slot
  /// is removed so the late response is dropped on arrival, and every
  /// copy of this future observes IOError("rpc cancelled"). Returns false
  /// when the completion already landed (the result stays available) —
  /// the duplicate-completion case, which is safe either way.
  bool Cancel();

  /// An already-completed future carrying s (send-time failures complete
  /// immediately so call sites handle exactly one error path).
  static Future Failed(Status s);

 private:
  friend class RpcEndpoint;
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status;
    std::string payload;
    /// Set for endpoint-registered futures so a timed-out Wait can
    /// withdraw the waiter slot; null for Failed() futures.
    RpcEndpoint* endpoint = nullptr;
    uint64_t id = 0;
    /// The node whose answer completes this future; its removal from the
    /// fabric fails the future.
    NodeId peer = -1;
  };
  std::shared_ptr<State> state_;
};

class RpcEndpoint {
 public:
  /// Handler for inbound requests. May call Reply() inline (cheap
  /// operations) or enqueue work and Reply() from another thread.
  using RequestHandler =
      std::function<void(NodeId src, uint64_t req_id, const Slice& payload)>;
  /// Handler invoked when a one-sided RDMA WRITE with immediate data lands
  /// in this node's registered memory.
  using WriteImmHandler = std::function<void(NodeId src, uint32_t imm)>;

  RpcEndpoint(RdmaFabric* fabric, NodeId node, int num_xchg_threads,
              sim::CpuThrottle* throttle);
  ~RpcEndpoint();

  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;

  void set_request_handler(RequestHandler handler) {
    request_handler_ = std::move(handler);
  }
  void set_write_imm_handler(WriteImmHandler handler) {
    write_imm_handler_ = std::move(handler);
  }

  /// Spawn the xchg threads. Handlers must be set before Start().
  void Start();
  /// Join the xchg threads and fail all pending calls.
  void Stop();

  /// Asynchronous request/response: send now, collect the response later
  /// through the returned future (completed by the xchg threads). A send
  /// failure yields an immediately-failed future.
  Future AsyncCall(NodeId dst, const Slice& request);

  /// Synchronous request/response. Fails with Unavailable if dst is dead
  /// or the deadline passes with no response.
  Status Call(NodeId dst, const Slice& request, std::string* response,
              const util::Deadline& deadline = RpcDeadline());

  /// Server side: complete the Call identified by (src, req_id).
  Status Reply(NodeId dst, uint64_t req_id, const Slice& response);

  /// Token flow (see file comment). AllocToken registers a waiter slot;
  /// *future completes when `peer` calls CompleteToken(token), and fails
  /// if `peer` leaves the fabric first. An abandoned token costs a
  /// dormant slot until its completion arrives; reap one that can never
  /// complete with future.Cancel().
  uint64_t AllocToken(Future* future, NodeId peer);
  /// Server side: complete a token on node dst.
  Status CompleteToken(NodeId dst, uint64_t token, const Slice& payload);

  NodeId node() const { return node_; }
  RdmaFabric* fabric() { return fabric_; }

  /// Number of registered waiter slots (tests: duplicate completions and
  /// cancellations must not leak slots).
  size_t num_pending_waiters();

  /// Fail with Unavailable every waiter whose peer is `node` — all of
  /// them when `node` is this endpoint's own. Called by the fabric when
  /// the node leaves it.
  void FailWaitersFor(NodeId node);

 private:
  friend class Future;

  void XchgLoop(int thread_index);
  void Dispatch(const InboundMessage& msg);
  /// Register a fresh waiter slot for an answer from `peer`; the returned
  /// future completes when CompleteWaiter runs for the slot's id.
  Future RegisterWaiter(NodeId peer, uint64_t* id);
  /// Complete state exactly once (later attempts are no-ops).
  static void Fulfill(const std::shared_ptr<Future::State>& state,
                      Status status, std::string payload);
  void CompleteWaiter(uint64_t id, const Slice& payload);
  /// Withdraw a pending waiter (timeout and cancellation paths); fails
  /// its future with the given status so every copy unblocks. False if
  /// already completed/withdrawn.
  bool AbandonWaiter(uint64_t id, Status status);

  RdmaFabric* fabric_;
  NodeId node_;
  int num_xchg_threads_;
  sim::CpuThrottle* throttle_;
  RequestHandler request_handler_;
  WriteImmHandler write_imm_handler_;

  std::atomic<bool> running_{false};
  /// Set when Stop() begins, cleared by Start(). New sends fast-fail
  /// Unavailable while set: with the xchg threads gone nothing would
  /// ever fulfill their waiters, and a server shutting down must not
  /// hold its worker pools hostage for a full RPC timeout (see
  /// StocServer::Stop).
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> xchg_threads_;

  /// Pending completions by request/token id. An entry is removed when
  /// its future is fulfilled (xchg thread), withdrawn on timeout, or
  /// failed en masse by Stop() or FailWaitersFor().
  std::mutex waiters_mu_;
  std::map<uint64_t, std::shared_ptr<Future::State>> waiters_;
  std::atomic<uint64_t> next_id_{1};
};

}  // namespace rdma
}  // namespace nova

#endif  // NOVA_RDMA_RPC_H_
