#include "lsm/table_io.h"

#include <algorithm>
#include <set>

#include "stoc/stoc_common.h"
#include "util/coding.h"
#include "util/logging.h"

namespace nova {
namespace lsm {

void XorInto(std::string* acc, const Slice& data) {
  size_t n = std::min(acc->size(), data.size());
  for (size_t j = 0; j < n; j++) {
    (*acc)[j] ^= data[j];
  }
}

Status ReconstructFromParity(stoc::StocClient* client,
                             const FileMetaData& meta, int fragment,
                             std::string* out) {
  if (!meta.parity.valid()) {
    return Status::Unavailable("fragment lost and no parity block");
  }
  // Issue the parity read and every surviving fragment's read (replica
  // failover included) before waiting for any: the degraded read costs
  // about one round trip, not |fragments| serial ones.
  stoc::PendingRead parity = client->Read({meta.parity}, 0, 0);
  std::vector<stoc::PendingRead> others;
  for (int f = 0; f < static_cast<int>(meta.fragments.size()); f++) {
    if (f != fragment) {
      others.push_back(client->Read(meta.fragments[f], 0,
                                    meta.fragment_sizes[f]));
    }
  }
  util::Deadline deadline = rdma::RpcDeadline();
  std::string acc;
  Status s = parity.Wait(&acc, deadline);
  if (!s.ok()) {
    return s;  // the parity block itself is gone
  }
  std::string other;
  for (stoc::PendingRead& read : others) {
    if (!read.Wait(&other, deadline).ok()) {
      return Status::Unavailable("second fragment loss; parity insufficient");
    }
    XorInto(&acc, other);
  }
  acc.resize(meta.fragment_sizes[fragment]);
  *out = std::move(acc);
  return Status::OK();
}

namespace {

/// One readahead read in flight. Failures surface to the caller (the scan
/// iterator), which retries through the reader's synchronous path — which
/// adds parity reconstruction — so a failed prefetch is never silently
/// counted as served-ahead.
class StocPendingFetch : public BlockFetcher::Pending {
 public:
  explicit StocPendingFetch(stoc::PendingRead read) : read_(std::move(read)) {}

  Status Wait(std::string* out) override { return read_.Wait(out); }

 private:
  stoc::PendingRead read_;
};

}  // namespace

std::unique_ptr<BlockFetcher::Pending> StocBlockFetcher::StartFetch(
    int fragment, uint64_t offset, uint64_t size) {
  if (fragment < 0 || fragment >= static_cast<int>(meta_->fragments.size()) ||
      meta_->fragments[fragment].empty()) {
    return nullptr;
  }
  return std::make_unique<StocPendingFetch>(
      client_->Read(meta_->fragments[fragment], offset, size));
}

Status StocBlockFetcher::Fetch(int fragment, uint64_t offset, uint64_t size,
                               std::string* out) {
  if (fragment < 0 || fragment >= static_cast<int>(meta_->fragments.size())) {
    return Status::InvalidArgument("no such fragment");
  }
  // Power-of-d replica selection, failover and hedging live in the
  // client's Read.
  Status s = client_->Read(meta_->fragments[fragment], offset, size).Wait(out);
  if (s.ok()) {
    return s;
  }
  // Degraded mode: rebuild the whole fragment, then slice.
  std::string full;
  Status rs = ReconstructFromParity(client_, *meta_, fragment, &full);
  if (!rs.ok()) {
    return rs;
  }
  degraded_reads_.fetch_add(1, std::memory_order_relaxed);
  if (offset + size > full.size()) {
    return Status::InvalidArgument("read past reconstructed fragment");
  }
  out->assign(full.data() + offset, size);
  return Status::OK();
}

/// One open reader, stored as a cache entry under the file's 12-byte
/// (range, file) key — the prefix of its data blocks' keys.
struct TableCache::Entry {
  std::unique_ptr<StocBlockFetcher> fetcher;
  std::unique_ptr<SSTableReader> reader;
  std::shared_ptr<std::atomic<size_t>> live_readers;

  ~Entry() {
    if (live_readers != nullptr) {
      live_readers->fetch_sub(1, std::memory_order_relaxed);
    }
  }
};

void TableCache::DeleteEntry(const Slice& /*key*/, void* value) {
  delete static_cast<Entry*>(value);
}

namespace {
void DeleteCachedMetadata(const Slice& /*key*/, void* value) {
  delete static_cast<std::string*>(value);
}
}  // namespace

TableCache::TableCache(stoc::StocClient* client, Cache* cache,
                       uint32_t range_id, bool cache_data_blocks,
                       int readahead_blocks, ReadaheadCounters* readahead,
                       Cache* compressed_cache)
    : client_(client),
      live_readers_(std::make_shared<std::atomic<size_t>>(0)),
      compressed_cache_(compressed_cache),
      range_id_(range_id),
      cache_data_blocks_(cache_data_blocks),
      readahead_blocks_(readahead_blocks),
      readahead_(readahead) {
  if (cache == nullptr) {
    owned_cache_.reset(NewShardedLRUCache(kDefaultReaderCacheBytes));
    cache = owned_cache_.get();
  }
  cache_ = cache;
}

TableCache::~TableCache() {
  if (owned_cache_ == nullptr) {
    // Shared caches outlive us: drop this range's readers and blocks so a
    // departed range does not squat on the node-wide charge budget.
    std::string range_prefix;
    PutFixed32(&range_prefix, range_id_);
    cache_->EraseWithPrefix(range_prefix);
    if (compressed_cache_ != nullptr) {
      compressed_cache_->EraseWithPrefix(range_prefix);
    }
  }
}

Status TableCache::GetReader(const FileMetaRef& meta, Handle* handle) {
  std::string key = BlockCachePrefix(range_id_, meta->number);
  Cache::Handle* h = cache_->Lookup(key, /*count=*/false);
  if (h == nullptr) {
    // The compressed tier keeps the encoded metadata block under the
    // reader's own key (block keys always append an offset, so the bare
    // prefix cannot collide): a reader evicted from the hot tier reopens
    // without a StoC round trip.
    std::string encoded;
    bool cached = false;
    if (compressed_cache_ != nullptr) {
      Cache::Handle* ch = compressed_cache_->Lookup(key);
      if (ch != nullptr) {
        encoded = *static_cast<const std::string*>(
            compressed_cache_->Value(ch));
        compressed_cache_->Release(ch);
        cached = true;
      }
    }
    if (!cached) {
      // Fetch the metadata block via power-of-d replica selection (the
      // replicas are equivalent, so the least-loaded wins). Concurrent
      // misses on the same file may both open it; the loser's entry is
      // displaced and reclaimed once its pins drop.
      Status s = client_->Read(meta->meta_replicas, 0, 0).Wait(&encoded);
      if (!s.ok()) {
        return s;
      }
      if (compressed_cache_ != nullptr) {
        auto* copy = new std::string(encoded);
        compressed_cache_->Release(compressed_cache_->Insert(
            key, copy, copy->size() + sizeof(std::string),
            &DeleteCachedMetadata));
      }
    }
    SSTableMetadata table_meta;
    Status s = table_meta.DecodeFrom(encoded);
    if (!s.ok()) {
      return s;
    }
    auto* entry = new Entry;
    entry->fetcher = std::make_unique<StocBlockFetcher>(client_, meta);
    entry->reader = std::make_unique<SSTableReader>(
        std::move(table_meta), entry->fetcher.get(),
        cache_data_blocks_ ? cache_ : nullptr, range_id_, readahead_blocks_,
        readahead_, cache_data_blocks_ ? compressed_cache_ : nullptr);
    entry->live_readers = live_readers_;
    live_readers_->fetch_add(1, std::memory_order_relaxed);
    size_t charge = sizeof(Entry) + sizeof(SSTableReader) +
                    entry->reader->meta().index_contents.size() +
                    entry->reader->meta().bloom.size();
    h = cache_->Insert(key, entry, charge, &DeleteEntry);
  }
  auto* entry = static_cast<Entry*>(cache_->Value(h));
  Cache* cache = cache_;
  handle->pin = std::shared_ptr<void>(
      static_cast<void*>(entry), [cache, h](void*) { cache->Release(h); });
  handle->reader = entry->reader.get();
  return Status::OK();
}

void TableCache::Evict(uint64_t number) {
  // The reader entry and all of the file's data blocks share this prefix
  // in both tiers.
  std::string prefix = BlockCachePrefix(range_id_, number);
  cache_->EraseWithPrefix(prefix);
  if (compressed_cache_ != nullptr) {
    compressed_cache_->EraseWithPrefix(prefix);
  }
}

void TableCache::EvictBatch(const std::vector<uint64_t>& numbers) {
  if (numbers.empty()) {
    return;
  }
  std::set<uint64_t> dead(numbers.begin(), numbers.end());
  std::string range_prefix;
  PutFixed32(&range_prefix, range_id_);
  // The match runs per resident entry under the shard lock: decode the
  // file number in place rather than allocating a prefix string.
  auto match = [&](const Slice& key) {
    return key.size() >= range_prefix.size() + 8 &&
           memcmp(key.data(), range_prefix.data(), range_prefix.size()) ==
               0 &&
           dead.count(DecodeFixed64(key.data() + range_prefix.size())) > 0;
  };
  cache_->EraseMatching(match);
  if (compressed_cache_ != nullptr) {
    compressed_cache_->EraseMatching(match);
  }
}

size_t TableCache::size() const {
  return live_readers_->load(std::memory_order_relaxed);
}

SSTablePlacer::SSTablePlacer(stoc::StocClient* client,
                             const PlacementOptions& options)
    : client_(client), options_(options) {}

void SSTablePlacer::UpdateStocs(const std::vector<rdma::NodeId>& stocs) {
  std::lock_guard<std::mutex> l(mu_);
  options_.stocs = stocs;
}

PlacementOptions SSTablePlacer::options() const {
  std::lock_guard<std::mutex> l(mu_);
  return options_;
}

void SSTablePlacer::set_options(const PlacementOptions& options) {
  std::lock_guard<std::mutex> l(mu_);
  options_ = options;
}

std::vector<rdma::NodeId> SSTablePlacer::PickStocs(int count) {
  PlacementOptions opt = options();
  std::vector<rdma::NodeId> candidates = opt.stocs;
  // Membership exclusion (ISSUE 9): never place new blocks on
  // suspect/dead StoCs while any healthy candidate exists — a placement
  // there either fails outright or produces a replica the repair manager
  // immediately has to re-replicate.
  std::vector<rdma::NodeId> healthy;
  healthy.reserve(candidates.size());
  for (rdma::NodeId n : candidates) {
    if (client_->IsRoutable(n)) {
      healthy.push_back(n);
    }
  }
  if (!healthy.empty()) {
    candidates = std::move(healthy);
  }
  if (count >= static_cast<int>(candidates.size())) {
    return candidates;
  }
  std::vector<rdma::NodeId> picked;
  if (!opt.power_of_d) {
    // Random: choose `count` distinct StoCs.
    std::lock_guard<std::mutex> l(mu_);
    for (int i = 0; i < count; i++) {
      size_t j = i + rng_.Uniform(candidates.size() - i);
      std::swap(candidates[i], candidates[j]);
      picked.push_back(candidates[i]);
    }
    return picked;
  }
  // Power-of-d: peek at the disk queues of d = 2*count random StoCs and
  // take the `count` shortest (paper Section 4.4).
  int d = std::min<int>(2 * count, static_cast<int>(candidates.size()));
  {
    // mu_ guards the RNG only. Never hold it across the probe RPCs:
    // UpdateStocs (the KillStoc path) must not block behind a probe
    // waiting on a StoC that just died.
    std::lock_guard<std::mutex> l(mu_);
    for (int i = 0; i < d; i++) {
      size_t j = i + rng_.Uniform(candidates.size() - i);
      std::swap(candidates[i], candidates[j]);
    }
  }
  std::vector<std::pair<int, rdma::NodeId>> depths;
  for (int i = 0; i < d; i++) {
    stoc::StocStats stats;
    int depth = 1 << 20;  // unreachable StoCs sort last
    if (client_->GetStats(candidates[i], &stats, util::Deadline::After(100))
            .ok()) {
      depth = stats.queue_depth;
    }
    depths.emplace_back(depth, candidates[i]);
  }
  // Stable sort on depth alone: ties keep the shuffled order. A plain
  // pair-sort would tie-break on NodeId and collapse power-of-d to
  // "always the lowest-numbered StoCs" whenever the cluster is idle.
  std::stable_sort(depths.begin(), depths.end(),
                   [](const std::pair<int, rdma::NodeId>& a,
                      const std::pair<int, rdma::NodeId>& b) {
                     return a.first < b.first;
                   });
  for (int i = 0; i < count; i++) {
    picked.push_back(depths[i].second);
  }
  return picked;
}

/// Everything an in-flight SSTable write owns until its flush acks drain:
/// the built data (append slices point into it), the planned tasks, and
/// the armed appends. The FileMetaData is complete except for the block
/// locations, which Wait fills as acknowledgments arrive.
struct PendingSSTable::State {
  struct WriteTask {
    int fragment;  // >= 0 data, -1 parity, -2 metadata
    int replica;
    rdma::NodeId stoc;
    uint64_t file_id;
    Slice data;
  };
  std::string data;
  std::string parity;
  std::string meta_encoded;
  std::vector<WriteTask> tasks;
  std::vector<stoc::PendingAppend> appends;
  FileMetaData meta;
};

PendingSSTable::PendingSSTable() = default;
PendingSSTable::~PendingSSTable() = default;
PendingSSTable::PendingSSTable(PendingSSTable&&) noexcept = default;
PendingSSTable& PendingSSTable::operator=(PendingSSTable&&) noexcept =
    default;

Status PendingSSTable::Wait(FileMetaData* out,
                            const util::Deadline& deadline) {
  if (state_ == nullptr) {
    return Status::InvalidArgument("no write in flight");
  }
  std::unique_ptr<State> st = std::move(state_);
  Status first_error;
  // One deadline spans the whole ack drain: a wedged StoC costs the batch
  // a single budget, not one per outstanding task.
  for (size_t i = 0; i < st->tasks.size(); i++) {
    const State::WriteTask& t = st->tasks[i];
    stoc::StocBlockHandle handle;
    Status s = st->appends[i].Wait(&handle, deadline);
    if (!s.ok()) {
      if (first_error.ok()) {
        first_error = s;
      }
      continue;  // keep draining so no acknowledgment is orphaned
    }
    if (t.fragment >= 0) {
      st->meta.fragments[t.fragment][t.replica] =
          BlockLocation{t.stoc, t.file_id};
    } else if (t.fragment == -1) {
      st->meta.parity = BlockLocation{t.stoc, t.file_id};
    } else {
      st->meta.meta_replicas[t.replica] = BlockLocation{t.stoc, t.file_id};
    }
  }
  *out = std::move(st->meta);
  return first_error;
}

Status SSTablePlacer::Write(SSTableBuilder::Result&& built, int drange_id,
                            uint32_t generation, FileMetaData* out) {
  PendingSSTable pending;
  Status s = StartWrite(std::move(built), drange_id, generation, &pending);
  if (!s.ok()) {
    return s;
  }
  return pending.Wait(out);
}

Status SSTablePlacer::StartWrite(SSTableBuilder::Result&& built,
                                 int drange_id, uint32_t generation,
                                 PendingSSTable* pending) {
  PlacementOptions opt = options();
  if (opt.stocs.empty()) {
    return Status::InvalidArgument("no stocs configured");
  }

  auto state = std::make_unique<PendingSSTable::State>();
  state->data = std::move(built.data);  // the task slices point into this
  FileMetaData* out = &state->meta;

  // Decide ρ for this SSTable from its size (Figure 9: a small SSTable is
  // partitioned across fewer StoCs).
  int rho = opt.rho;
  if (opt.adjust_rho_by_size && opt.rho > 1) {
    uint64_t frag_target =
        std::max<uint64_t>(1, opt.max_sstable_size / opt.rho);
    uint64_t by_size = (state->data.size() + frag_target - 1) / frag_target;
    rho = static_cast<int>(
        std::clamp<uint64_t>(by_size, 1, static_cast<uint64_t>(opt.rho)));
  }
  rho = std::min<int>(rho, static_cast<int>(opt.stocs.size()));

  // Re-partition the built data into exactly the chosen fragment count.
  // (Builder already split at block boundaries for the requested count.)
  const SSTableMetadata& tmeta = built.meta;
  int nfrags = tmeta.num_fragments();

  out->number = tmeta.file_number;
  out->data_size = state->data.size();
  out->smallest = tmeta.smallest;
  out->largest = tmeta.largest;
  out->drange_id = drange_id;
  out->generation = generation;
  out->fragment_sizes = tmeta.fragment_sizes;
  out->fragments.assign(nfrags, {});

  int replicas = std::max(1, opt.num_data_replicas);
  // One StoC per (fragment, replica), all distinct when possible.
  std::vector<rdma::NodeId> targets = PickStocs(nfrags * replicas);
  if (targets.empty()) {
    return Status::Unavailable("no stocs reachable");
  }

  using WriteTask = PendingSSTable::State::WriteTask;
  std::vector<WriteTask>& tasks = state->tasks;
  uint64_t frag_offset = 0;
  uint64_t max_frag = 0;
  for (int f = 0; f < nfrags; f++) {
    max_frag = std::max(max_frag, tmeta.fragment_sizes[f]);
    for (int r = 0; r < replicas; r++) {
      WriteTask t;
      t.fragment = f;
      t.replica = r;
      t.stoc = targets[(f * replicas + r) % targets.size()];
      t.file_id = stoc::MakeFileId(
          opt.range_id, static_cast<uint32_t>(tmeta.file_number),
          stoc::FileKind::kData, static_cast<uint8_t>(f * 8 + r));
      t.data = Slice(state->data.data() + frag_offset,
                     tmeta.fragment_sizes[f]);
      tasks.push_back(t);
    }
    frag_offset += tmeta.fragment_sizes[f];
  }

  // Parity block over the fragments (Hybrid availability): XOR of all
  // fragments zero-padded to the longest. Computed up front so its append
  // can join the fragment batch below.
  std::string& parity = state->parity;
  if (opt.use_parity && nfrags >= 1) {
    parity.assign(max_frag, '\0');
    uint64_t off = 0;
    for (int f = 0; f < nfrags; f++) {
      XorInto(&parity, Slice(state->data.data() + off,
                             tmeta.fragment_sizes[f]));
      off += tmeta.fragment_sizes[f];
    }
    // Prefer a StoC not already hosting a fragment.
    std::set<rdma::NodeId> used;
    for (const auto& t : tasks) {
      used.insert(t.stoc);
    }
    rdma::NodeId parity_stoc = -1;
    for (rdma::NodeId n : opt.stocs) {
      if (!used.count(n) && client_->IsRoutable(n)) {
        parity_stoc = n;
        break;
      }
    }
    for (rdma::NodeId n : opt.stocs) {
      if (parity_stoc >= 0) {
        break;
      }
      if (!used.count(n)) {
        parity_stoc = n;
      }
    }
    if (parity_stoc < 0) {
      parity_stoc = opt.stocs[0];
    }
    WriteTask t;
    t.fragment = -1;  // parity
    t.replica = 0;
    t.stoc = parity_stoc;
    t.file_id = stoc::MakeFileId(
        opt.range_id, static_cast<uint32_t>(tmeta.file_number),
        stoc::FileKind::kParity, 0);
    t.data = Slice(parity);
    tasks.push_back(t);
  }

  // Metadata block replicas (index + bloom); small, so replication is
  // cheap and lets reads use any replica (Section 3.1).
  std::string& meta_encoded = state->meta_encoded;
  tmeta.EncodeTo(&meta_encoded);
  int meta_replicas =
      std::min<int>(std::max(1, opt.num_meta_replicas),
                    static_cast<int>(opt.stocs.size()));
  std::vector<rdma::NodeId> meta_targets = PickStocs(meta_replicas);
  out->meta_replicas.assign(meta_targets.size(), BlockLocation{});
  for (int r = 0; r < static_cast<int>(meta_targets.size()); r++) {
    WriteTask t;
    t.fragment = -2;  // metadata
    t.replica = r;
    t.stoc = meta_targets[r];
    t.file_id = stoc::MakeFileId(
        opt.range_id, static_cast<uint32_t>(tmeta.file_number),
        stoc::FileKind::kMeta, static_cast<uint8_t>(r));
    t.data = Slice(meta_encoded);
    tasks.push_back(t);
  }

  // One async batch for the whole SSTable (the point of scattering: the
  // write uses the disk bandwidth of ρ StoCs at once). Phase 1 queued the
  // buffer-grant RPCs above; Arm() collects each grant and issues the
  // one-sided data write (both cheap). The slow part — every StoC
  // flushing its blocks — stays in flight until PendingSSTable::Wait
  // collects the acknowledgments, so a pipelined caller can keep merging
  // (or building the next output) meanwhile.
  out->fragments.assign(nfrags, std::vector<BlockLocation>(replicas));
  state->appends.reserve(tasks.size());
  for (const WriteTask& t : tasks) {
    state->appends.push_back(
        client_->AsyncAppendBlock(t.stoc, t.file_id, t.data));
  }
  for (stoc::PendingAppend& a : state->appends) {
    a.Arm();  // failures surface again in Wait()
  }
  pending->state_ = std::move(state);
  return Status::OK();
}

}  // namespace lsm
}  // namespace nova
