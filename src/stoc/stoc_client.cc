#include "stoc/stoc_client.h"

#include <algorithm>
#include <chrono>

#include "util/failpoint.h"

namespace nova {
namespace stoc {
namespace {

using Clock = std::chrono::steady_clock;

/// While several attempts of one read race, Wait sleeps on the oldest and
/// looks at the others this often.
constexpr auto kRacePollSlice = std::chrono::microseconds(50);

}  // namespace

bool StocClient::IsRoutable(rdma::NodeId stoc) const {
  coord::Membership* m = membership();
  return m == nullptr || m->IsRoutable(stoc);
}

bool StocClient::AdmitRpc(rdma::NodeId stoc) {
  coord::Membership* m = membership();
  return m == nullptr || m->IsRoutable(stoc) || m->AllowProbe(stoc);
}

void StocClient::ReportRpc(rdma::NodeId stoc, const Status& s) {
  coord::Membership* m = membership();
  if (m == nullptr) {
    return;
  }
  if (s.IsUnavailable()) {
    m->ReportFailure(stoc);
  } else {
    // Any answer — even an application error — proves the node is up.
    m->ReportSuccess(stoc);
  }
}

void StocClient::CountWire(rdma::NodeId stoc, uint64_t sent,
                           uint64_t received) {
  if (sent > 0) {
    bytes_sent_.fetch_add(sent, std::memory_order_relaxed);
  }
  if (received > 0) {
    bytes_received_.fetch_add(received, std::memory_order_relaxed);
  }
  std::shared_ptr<StocLoad> l = load(stoc);
  if (sent > 0) {
    l->bytes_sent.fetch_add(sent, std::memory_order_relaxed);
  }
  if (received > 0) {
    l->bytes_received.fetch_add(received, std::memory_order_relaxed);
  }
}

Status StocClient::SimpleCall(rdma::NodeId stoc, const std::string& req,
                              Slice* body, std::string* storage,
                              const util::Deadline& deadline) {
  Status s = util::FailPoint::Check("stoc.call");
  if (s.ok() && !AdmitRpc(stoc)) {
    // Circuit open: fail fast without contacting (or penalizing) the node.
    return Status::Unavailable("stoc circuit open");
  }
  if (s.ok()) {
    s = endpoint_->Call(stoc, req, storage, deadline);
    CountWire(stoc, req.size(), s.ok() ? storage->size() : 0);
  }
  ReportRpc(stoc, s);
  if (!s.ok()) {
    return s;
  }
  return ParseResponse(*storage, body);
}

Status StocClient::IdempotentCall(rdma::NodeId stoc, const std::string& req,
                                  Slice* body, std::string* storage,
                                  const util::Deadline& deadline) {
  util::RetryPolicy policy;
  return policy.Run(deadline, static_cast<uint64_t>(stoc), [&] {
    return SimpleCall(stoc, req, body, storage, deadline);
  });
}

PendingAppend& PendingAppend::operator=(PendingAppend&& o) noexcept {
  if (this == &o) {
    return *this;
  }
  Abandon();
  client_ = o.client_;
  stoc_ = o.stoc_;
  data_ = o.data_;
  alloc_ = std::move(o.alloc_);
  flush_ack_ = std::move(o.flush_ack_);
  armed_status_ = std::move(o.armed_status_);
  armed_ = o.armed_;
  settled_ = o.settled_;
  o.client_ = nullptr;  // the moved-from append owns nothing to reap
  return *this;
}

void PendingAppend::Abandon() {
  if (client_ != nullptr && !settled_) {
    flush_ack_.Cancel();
    settled_ = true;
  }
}

Status PendingAppend::Arm() {
  if (!valid()) {
    return Status::InvalidArgument("invalid pending append");
  }
  if (armed_) {
    return armed_status_;  // already armed (or rejected by the breaker)
  }
  armed_ = true;
  std::string storage;
  armed_status_ = alloc_.Wait(&storage);
  Slice body;
  if (armed_status_.ok()) {
    client_->CountWire(stoc_, 0, storage.size());
    armed_status_ = ParseResponse(storage, &body);
  }
  uint32_t mr_id = 0;
  if (armed_status_.ok() && !GetVarint32(&body, &mr_id)) {
    armed_status_ = Status::IOError("bad alloc-block response");
  }
  if (armed_status_.ok()) {
    // 2. One-sided RDMA WRITE of the block, immediate data = buffer id.
    rdma::RpcEndpoint* ep = client_->endpoint();
    armed_status_ = ep->fabric()->Write(ep->node(), data_,
                                        rdma::RemoteAddr{stoc_, mr_id, 0},
                                        true, mr_id);
    if (armed_status_.ok()) {
      client_->CountWire(stoc_, data_.size(), 0);
    }
  }
  if (!armed_status_.ok()) {
    flush_ack_.Cancel();  // reap the never-to-complete token
    settled_ = true;
  }
  client_->ReportRpc(stoc_, armed_status_);
  return armed_status_;
}

Status PendingAppend::Wait(StocBlockHandle* handle,
                           const util::Deadline& deadline) {
  if (!valid()) {
    return Status::InvalidArgument("invalid pending append");
  }
  if (!armed_) {
    Status s = Arm();
    if (!s.ok()) {
      return s;
    }
  } else if (!armed_status_.ok()) {
    return armed_status_;
  }
  // 3-4. The StoC flushes and completes our token with the block handle.
  std::string payload;
  Status s = flush_ack_.Wait(&payload, deadline);
  settled_ = true;  // waited (or timed out, which withdrew the slot)
  client_->ReportRpc(stoc_, s);
  if (s.ok()) {
    client_->CountWire(stoc_, 0, payload.size());
  }
  if (!s.ok()) {
    return s;
  }
  Slice handle_slice(payload);
  if (!handle->DecodeFrom(&handle_slice)) {
    return Status::IOError("bad block handle in flush ack");
  }
  return Status::OK();
}

PendingAppend StocClient::AsyncAppendBlock(rdma::NodeId stoc,
                                           uint64_t file_id,
                                           const Slice& data) {
  PendingAppend pending;
  pending.client_ = this;
  pending.stoc_ = stoc;
  pending.data_ = data;
  Status fp = util::FailPoint::Check("stoc.append");
  if (!fp.ok() || !AdmitRpc(stoc)) {
    // Breaker open (or an injected append fault): pre-fail the append
    // before any token or buffer is granted. Injected faults feed the
    // health state machine like a real connection error would.
    if (!fp.ok()) {
      ReportRpc(stoc, fp);
    }
    pending.armed_ = true;
    pending.armed_status_ =
        fp.ok() ? Status::Unavailable("stoc circuit open") : fp;
    pending.settled_ = true;  // no token allocated, nothing to reap
    return pending;
  }
  // 1. Ask the StoC for a buffer, registering our completion token.
  uint64_t token = endpoint_->AllocToken(&pending.flush_ack_, stoc);
  std::string req;
  req.push_back(kOpAllocBlock);
  PutVarint64(&req, file_id);
  PutVarint64(&req, data.size());
  PutVarint64(&req, token);
  pending.alloc_ = endpoint_->AsyncCall(stoc, req);
  CountWire(stoc, req.size(), 0);
  return pending;
}

Status StocClient::AppendBlock(rdma::NodeId stoc, uint64_t file_id,
                               const Slice& data, StocBlockHandle* handle) {
  return AsyncAppendBlock(stoc, file_id, data).Wait(handle);
}

std::shared_ptr<StocLoad> StocClient::load(rdma::NodeId stoc) {
  std::lock_guard<std::mutex> l(load_mu_);
  std::shared_ptr<StocLoad>& slot = load_[stoc];
  if (slot == nullptr) {
    slot = std::make_shared<StocLoad>();
  }
  return slot;
}

void StocClient::RecordReadLatency(uint64_t us) { read_latency_us_.Add(us); }

uint64_t StocClient::HedgeDelayUs() {
  ReadPolicy policy = read_policy();
  if (read_latency_us_.count() <
      static_cast<uint64_t>(policy.hedge_min_samples)) {
    return policy.hedge_min_delay_us;
  }
  return std::max(policy.hedge_min_delay_us,
                  static_cast<uint64_t>(read_latency_us_.Percentile(99)));
}

std::vector<size_t> StocClient::RankReplicas(
    const std::vector<BlockLocation>& replicas) {
  struct Ranked {
    size_t index;
    bool routable;
    int outstanding;
    uint64_t ewma;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(replicas.size());
  for (size_t i = 0; i < replicas.size(); i++) {
    std::shared_ptr<StocLoad> l = load(replicas[i].stoc_id);
    ranked.push_back(
        Ranked{i, IsRoutable(replicas[i].stoc_id),
               l->outstanding.load(std::memory_order_relaxed) +
                   l->rank_bias.load(std::memory_order_relaxed),
               l->ewma_us.load(std::memory_order_relaxed)});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    // Suspect/dead replicas sort last: they receive traffic only when
    // every healthy replica has been exhausted (and even then only the
    // half-open probe trickle is admitted).
    if (a.routable != b.routable) {
      return a.routable;
    }
    if (a.outstanding != b.outstanding) {
      return a.outstanding < b.outstanding;
    }
    if (a.ewma != b.ewma) {
      return a.ewma < b.ewma;
    }
    return a.index < b.index;
  });
  std::vector<size_t> order;
  order.reserve(ranked.size());
  for (const Ranked& r : ranked) {
    order.push_back(r.index);
  }
  return order;
}

/// Everything one Read owns: its candidate replicas and the attempts
/// issued to them so far.
struct PendingRead::State {
  struct Attempt {
    rdma::Future future;
    rdma::NodeId stoc = -1;
    /// The StoC's load while the attempt holds one outstanding unit;
    /// null for attempts that never reached the wire.
    std::shared_ptr<StocLoad> load;
    /// Feed the outcome into membership (false for breaker rejections:
    /// the node caused nothing).
    bool report = false;
    bool hedge = false;
    bool done = false;
    Clock::time_point start;
  };

  StocClient* client = nullptr;
  std::vector<BlockLocation> replicas;
  std::vector<size_t> order;  // candidate indices, least-loaded first
  size_t next = 0;            // next candidate in `order` to issue
  uint64_t offset = 0;
  uint64_t size = 0;
  /// One hedge may still be sent, at hedge_at.
  bool hedge_pending = false;
  Clock::time_point hedge_at;
  std::vector<Attempt> attempts;
  Status last_error = Status::Unavailable("no replicas");

  State() = default;
  State(const State&) = delete;
  State& operator=(const State&) = delete;
  ~State() {
    for (Attempt& a : attempts) {
      Drop(&a);
    }
  }

  /// Withdraw an attempt still in flight and release its load unit.
  static void Drop(Attempt* a) {
    if (a->done) {
      return;
    }
    a->future.Cancel();
    a->done = true;
    if (a->load != nullptr) {
      a->load->outstanding.fetch_sub(1, std::memory_order_relaxed);
    }
  }
};

PendingRead::PendingRead() = default;
PendingRead::~PendingRead() = default;
PendingRead::PendingRead(PendingRead&&) noexcept = default;
PendingRead& PendingRead::operator=(PendingRead&&) noexcept = default;

bool PendingRead::ready() const {
  if (state_ == nullptr) {
    return false;
  }
  for (const State::Attempt& a : state_->attempts) {
    if (!a.done && a.future.ready()) {
      return true;
    }
  }
  return false;
}

void PendingRead::Issue(bool hedge) {
  State& st = *state_;
  StocClient* c = st.client;
  const BlockLocation& t = st.replicas[st.order[st.next++]];
  st.attempts.emplace_back();
  State::Attempt& a = st.attempts.back();
  a.stoc = t.stoc_id;
  a.hedge = hedge;
  if (hedge) {
    st.hedge_pending = false;
    c->hedged_issued_.fetch_add(1, std::memory_order_relaxed);
  }
  Status fp = util::FailPoint::Check("stoc.read");
  if (!fp.ok()) {
    // Injected read fault: pre-failed, feeds the health state machine.
    a.report = true;
    a.future = rdma::Future::Failed(std::move(fp));
    return;
  }
  if (!c->AdmitRpc(t.stoc_id)) {
    // Breaker open: fail fast without contacting (or penalizing) the node.
    a.future = rdma::Future::Failed(Status::Unavailable("stoc circuit open"));
    return;
  }
  c->read_block_calls_.fetch_add(1, std::memory_order_relaxed);
  std::string req;
  req.push_back(kOpReadBlock);
  PutVarint64(&req, t.file_id);
  PutVarint64(&req, st.offset);
  PutVarint64(&req, st.size);
  a.report = true;
  a.load = c->load(t.stoc_id);
  a.load->outstanding.fetch_add(1, std::memory_order_relaxed);
  a.load->issued.fetch_add(1, std::memory_order_relaxed);
  a.start = Clock::now();
  a.future = c->endpoint_->AsyncCall(t.stoc_id, req);
  c->CountWire(t.stoc_id, req.size(), 0);
}

Status PendingRead::Finish(size_t i, std::string* out,
                           const util::Deadline& deadline) {
  State::Attempt& a = state_->attempts[i];
  StocClient* c = state_->client;
  std::string storage;
  Status s = a.future.Wait(&storage, deadline);
  a.done = true;
  if (a.load != nullptr) {
    a.load->outstanding.fetch_sub(1, std::memory_order_relaxed);
    if (s.ok()) {
      uint64_t sample = std::chrono::duration_cast<std::chrono::microseconds>(
                            Clock::now() - a.start)
                            .count();
      // EWMA with 1/8 gain, seeded by the first observation.
      uint64_t prev = a.load->ewma_us.load(std::memory_order_relaxed);
      uint64_t next = prev == 0 ? sample : (prev * 7 + sample) / 8;
      a.load->ewma_us.store(next, std::memory_order_relaxed);
      c->RecordReadLatency(sample);
    }
  }
  if (a.report) {
    c->ReportRpc(a.stoc, s);
    if (s.ok()) {
      c->CountWire(a.stoc, 0, storage.size());
    }
  }
  if (!s.ok()) {
    return s;
  }
  Slice body;
  s = ParseResponse(storage, &body);
  if (s.ok()) {
    storage.erase(0, storage.size() - body.size());
    *out = std::move(storage);
  }
  return s;
}

Status PendingRead::Wait(std::string* out, const util::Deadline& deadline) {
  if (state_ == nullptr) {
    return Status::InvalidArgument("invalid pending read");
  }
  State& st = *state_;
  for (;;) {
    // Harvest every attempt that landed — past the deadline, every attempt
    // (Finish then withdraws those still in flight). First success wins.
    bool expired = deadline.expired();
    size_t live = 0;
    size_t oldest = 0;
    for (size_t i = 0; i < st.attempts.size(); i++) {
      if (st.attempts[i].done) {
        continue;
      }
      if (!expired && !st.attempts[i].future.ready()) {
        if (live++ == 0) {
          oldest = i;
        }
        continue;
      }
      Status s = Finish(i, out, deadline);
      if (s.ok()) {
        if (st.attempts[i].hedge) {
          st.client->hedged_won_.fetch_add(1, std::memory_order_relaxed);
        }
        // First success wins: dropping the state withdraws the losers, so
        // their late responses are dropped.
        state_.reset();
        return s;
      }
      st.last_error = s;
    }
    if (live == 0) {
      // Every issued attempt failed: fail over to the next candidate, or
      // surface the last error once they are exhausted.
      if (st.next < st.order.size() && !expired) {
        Issue(/*hedge=*/false);
        continue;
      }
      return st.last_error;
    }
    // Straggler mitigation: one speculative attempt to the next candidate
    // once the read is outstanding past the hedge delay.
    bool hedge_due = st.hedge_pending && st.next < st.order.size();
    Clock::time_point now = Clock::now();
    if (hedge_due && now >= st.hedge_at) {
      Issue(/*hedge=*/true);
      continue;
    }
    // Sleep on the oldest attempt until it lands or the deadline — or,
    // while attempts race or a hedge is pending, until the hedge is due or
    // a poll slice passes (another attempt may win first).
    util::Deadline wake = deadline;
    if (live > 1 || hedge_due) {
      Clock::time_point t = live > 1 ? now + kRacePollSlice : st.hedge_at;
      if (hedge_due) {
        t = std::min(t, st.hedge_at);
      }
      if (deadline.infinite() || t < deadline.at()) {
        wake = util::Deadline::At(t);
      }
    }
    st.attempts[oldest].future.ReadyBy(wake);
  }
}

void PendingRead::Cancel() {
  if (state_ == nullptr) {
    return;
  }
  for (State::Attempt& a : state_->attempts) {
    if (!a.done && a.future.Cancel()) {
      State::Drop(&a);
    }
  }
  // No failover or hedge after a cancel.
  state_->next = state_->order.size();
  state_->last_error = Status::IOError("rpc cancelled");
}

PendingRead StocClient::Read(const std::vector<BlockLocation>& replicas,
                             uint64_t offset, uint64_t size) {
  PendingRead read;
  read.state_ = std::make_unique<PendingRead::State>();
  PendingRead::State& st = *read.state_;
  st.client = this;
  st.replicas = replicas;
  st.offset = offset;
  st.size = size;
  size_t d = replicas.empty() ? 0 : 1;
  if (replicas.size() > 1) {
    // Power-of-d selection: rank the candidates by tracked load and fan
    // the read out to the d least-loaded. The breaker caps the fan-out at
    // the routable replicas (they rank first) so suspect/dead StoCs see
    // no speculative traffic — only failover/hedge attempts, which
    // AdmitRpc gates down to the half-open probe trickle.
    ReadPolicy policy = read_policy();
    st.order = RankReplicas(replicas);
    size_t routable = 0;
    for (const BlockLocation& r : replicas) {
      if (IsRoutable(r.stoc_id)) {
        routable++;
      }
    }
    d = std::max<size_t>(
        1, std::min<size_t>(policy.replica_d, replicas.size()));
    if (routable > 0) {
      d = std::min(d, routable);
    }
    if (d > 1) {
      pod_reads_.fetch_add(1, std::memory_order_relaxed);
    }
    if (policy.hedge) {
      st.hedge_pending = true;
      st.hedge_at = Clock::now() + std::chrono::microseconds(HedgeDelayUs());
    }
  } else {
    st.order.assign(replicas.size(), 0);
  }
  for (size_t i = 0; i < d; i++) {
    read.Issue(/*hedge=*/false);
  }
  return read;
}

Status StocClient::DeleteFile(rdma::NodeId stoc, uint64_t file_id,
                              bool in_memory) {
  std::string req;
  req.push_back(kOpDeleteFile);
  PutVarint64(&req, file_id);
  PutVarint32(&req, in_memory ? 1 : 0);
  std::string storage;
  Slice body;
  return SimpleCall(stoc, req, &body, &storage);
}

Status StocClient::OpenInMemFile(rdma::NodeId stoc, uint64_t file_id,
                                 uint64_t region_size,
                                 InMemFileHandle* handle) {
  std::string req;
  req.push_back(kOpOpenInMemFile);
  PutVarint64(&req, file_id);
  PutVarint64(&req, region_size);
  std::string storage;
  Slice body;
  Status s = SimpleCall(stoc, req, &body, &storage);
  if (!s.ok()) {
    return s;
  }
  uint32_t mr_id;
  if (!GetVarint32(&body, &mr_id)) {
    return Status::IOError("bad open response");
  }
  handle->stoc_id = stoc;
  handle->file_id = file_id;
  handle->regions = {InMemRegion{mr_id, region_size}};
  return Status::OK();
}

Status StocClient::ExtendInMemFile(InMemFileHandle* handle) {
  std::string req;
  req.push_back(kOpExtendInMemFile);
  PutVarint64(&req, handle->file_id);
  std::string storage;
  Slice body;
  Status s = SimpleCall(handle->stoc_id, req, &body, &storage);
  if (!s.ok()) {
    return s;
  }
  uint32_t mr_id;
  if (!GetVarint32(&body, &mr_id)) {
    return Status::IOError("bad extend response");
  }
  handle->regions.push_back(
      InMemRegion{mr_id, handle->regions.front().size});
  return Status::OK();
}

Status StocClient::WriteInMem(const InMemFileHandle& handle,
                              uint64_t global_offset, const Slice& data) {
  uint64_t base = 0;
  for (const InMemRegion& region : handle.regions) {
    if (global_offset < base + region.size) {
      uint64_t local = global_offset - base;
      if (local + data.size() > region.size) {
        return Status::InvalidArgument("write spans region boundary");
      }
      Status ws = endpoint_->fabric()->Write(
          endpoint_->node(), data,
          rdma::RemoteAddr{handle.stoc_id, region.mr_id, local},
          /*notify=*/false, 0);
      if (ws.ok()) {
        CountWire(handle.stoc_id, data.size(), 0);
      }
      return ws;
    }
    base += region.size;
  }
  return Status::InvalidArgument("offset beyond in-memory file");
}

Status StocClient::ReadInMemRegion(const InMemFileHandle& handle,
                                   size_t region_index, std::string* out) {
  if (region_index >= handle.regions.size()) {
    return Status::InvalidArgument("no such region");
  }
  const InMemRegion& region = handle.regions[region_index];
  out->resize(region.size);
  Status rs = endpoint_->fabric()->Read(
      endpoint_->node(), rdma::RemoteAddr{handle.stoc_id, region.mr_id, 0},
      out->data(), region.size);
  if (rs.ok()) {
    CountWire(handle.stoc_id, 0, region.size);
  }
  return rs;
}

Status StocClient::NicAppend(const InMemFileHandle& handle,
                             uint64_t global_offset, const Slice& data) {
  std::string req;
  req.push_back(kOpNicAppend);
  PutVarint64(&req, handle.file_id);
  PutVarint64(&req, global_offset);
  req.append(data.data(), data.size());
  std::string storage;
  Slice body;
  return SimpleCall(handle.stoc_id, req, &body, &storage);
}

Status StocClient::GetStats(rdma::NodeId stoc, StocStats* stats,
                            const util::Deadline& deadline) {
  std::string req;
  req.push_back(kOpStats);
  std::string storage;
  Slice body;
  Status s = IdempotentCall(stoc, req, &body, &storage, deadline);
  if (!s.ok()) {
    return s;
  }
  uint32_t depth, comp_inflight;
  uint64_t stored, util, comp_done;
  if (!GetVarint32(&body, &depth) || !GetVarint64(&body, &stored) ||
      !GetVarint64(&body, &util) || !GetVarint32(&body, &comp_inflight) ||
      !GetVarint64(&body, &comp_done)) {
    return Status::IOError("bad stats response");
  }
  stats->queue_depth = static_cast<int>(depth);
  stats->stored_bytes = stored;
  stats->cpu_utilization = static_cast<double>(util) / 1e6;
  stats->compactions_inflight = static_cast<int>(comp_inflight);
  stats->compactions_done = comp_done;
  return Status::OK();
}

Status StocClient::QueryLogFiles(rdma::NodeId stoc, uint32_t range_id,
                                 std::vector<InMemFileHandle>* handles) {
  std::string req;
  req.push_back(kOpQueryLogFiles);
  PutVarint32(&req, range_id);
  std::string storage;
  Slice body;
  Status s = IdempotentCall(stoc, req, &body, &storage);
  if (!s.ok()) {
    return s;
  }
  uint32_t count;
  if (!GetVarint32(&body, &count)) {
    return Status::IOError("bad log-files response");
  }
  handles->clear();
  for (uint32_t i = 0; i < count; i++) {
    InMemFileHandle h;
    h.stoc_id = stoc;
    uint32_t nregions;
    if (!GetVarint64(&body, &h.file_id) || !GetVarint32(&body, &nregions)) {
      return Status::IOError("bad log-files entry");
    }
    for (uint32_t r = 0; r < nregions; r++) {
      InMemRegion region;
      if (!GetVarint32(&body, &region.mr_id) ||
          !GetVarint64(&body, &region.size)) {
        return Status::IOError("bad log-files region");
      }
      h.regions.push_back(region);
    }
    handles->push_back(std::move(h));
  }
  return Status::OK();
}

Status StocClient::ListFiles(rdma::NodeId stoc,
                             std::vector<uint64_t>* files) {
  std::string req;
  req.push_back(kOpListFiles);
  std::string storage;
  Slice body;
  Status s = IdempotentCall(stoc, req, &body, &storage);
  if (!s.ok()) {
    return s;
  }
  uint32_t count;
  if (!GetVarint32(&body, &count)) {
    return Status::IOError("bad list response");
  }
  files->clear();
  for (uint32_t i = 0; i < count; i++) {
    uint64_t id;
    if (!GetVarint64(&body, &id)) {
      return Status::IOError("bad list entry");
    }
    files->push_back(id);
  }
  return Status::OK();
}

Status StocClient::CopyFileTo(rdma::NodeId stoc, uint64_t file_id,
                              rdma::NodeId dst,
                              const util::Deadline& deadline) {
  std::string req;
  req.push_back(kOpCopyFileTo);
  PutVarint64(&req, file_id);
  PutVarint32(&req, static_cast<uint32_t>(dst));
  std::string storage;
  Slice body;
  return SimpleCall(stoc, req, &body, &storage, deadline);
}

Status StocClient::Compaction(rdma::NodeId stoc, const Slice& job,
                              std::string* result,
                              const util::Deadline& deadline) {
  std::string req;
  req.push_back(kOpCompaction);
  req.append(job.data(), job.size());
  std::string storage;
  Slice body;
  Status s = SimpleCall(stoc, req, &body, &storage, deadline);
  if (!s.ok()) {
    return s;
  }
  result->assign(body.data(), body.size());
  return Status::OK();
}

}  // namespace stoc
}  // namespace nova
