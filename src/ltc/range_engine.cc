#include "ltc/range_engine.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "sim/cost_model.h"
#include "sstable/merging_iterator.h"
#include "util/coding.h"
#include "util/logging.h"

namespace nova {
namespace ltc {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedUs(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

// The newest version of one key among the tables a get has probed. Its
// value goes straight into the caller's string (reusing its capacity on
// the common single-probe path); an older candidate lands in scratch.
struct NewestVersion {
  explicit NewestVersion(std::string* out) : value(out) {}

  bool found = false;
  SequenceNumber seq = 0;
  Status status;
  std::string* value;
  std::string scratch;

  // Probe one memtable or SSTable (both share the Get contract) and keep
  // its entry if it is the newest so far.
  template <typename Table>
  void Probe(Table* table, const LookupKey& lkey) {
    Status s;
    SequenceNumber entry_seq;
    if (table->Get(lkey, found ? &scratch : value, &s, &entry_seq) &&
        (!found || entry_seq > seq)) {
      if (found) {
        value->swap(scratch);
      }
      found = true;
      seq = entry_seq;
      status = s;
    }
  }

  // The get's one consistency rule (lookup_index.h): stop probing once the
  // newest version found is at least as new as the index claims.
  bool Reaches(SequenceNumber claimed_seq) const {
    return found && seq >= claimed_seq;
  }

  Status Finish() const {
    return found ? status : Status::NotFound("key not found");
  }
};

}  // namespace

RangeEngine::RangeEngine(const RangeEngineOptions& options,
                         stoc::StocClient* client,
                         const std::vector<rdma::NodeId>& stocs,
                         sim::CpuThrottle* throttle, ThreadPool* flush_pool,
                         ThreadPool* compaction_pool, Cache* block_cache,
                         Cache* compressed_cache, int readahead_blocks)
    : options_(options),
      client_(client),
      stocs_(stocs),
      throttle_(throttle),
      flush_pool_(flush_pool),
      compaction_pool_(compaction_pool),
      compressor_(GetCompressor(options_.compression_codec)) {
  DrangeOptions dopt = options_.drange;
  drange_ = std::make_unique<DrangeManager>(options_.lower, options_.upper,
                                            dopt);
  versions_ = std::make_unique<lsm::VersionSet>(
      options_.lsm, [this](const Slice& record) {
        return ManifestAppend(record);
      });
  table_cache_ = std::make_unique<lsm::TableCache>(
      client_, block_cache, options_.range_id,
      /*cache_data_blocks=*/block_cache != nullptr, readahead_blocks,
      &readahead_counters_, compressed_cache);
  lsm::PlacementOptions popt;
  popt.stocs = stocs;
  popt.range_id = options_.range_id;
  popt.max_sstable_size = options_.max_sstable_size;
  placer_ = std::make_unique<lsm::SSTablePlacer>(client_, popt);
  executor_ = std::make_unique<lsm::CompactionExecutor>(
      table_cache_.get(), placer_.get(), throttle_);
  CompactionSchedulerOptions sched_opt;
  sched_opt.offload = options_.offload_compaction;
  scheduler_ =
      std::make_unique<CompactionScheduler>(client_, stocs, sched_opt);
  logc_ = std::make_unique<logc::LogClient>(client_, options_.range_id,
                                            options_.log);
  range_index_ =
      std::make_unique<RangeIndex>(options_.lower, options_.upper);
}

RangeEngine::~RangeEngine() { stopping_.store(true); }

MemTableRef RangeEngine::NewMemTableLocked(int drange_id) {
  // Idempotent per Drange: two writers that both stalled on a full δ
  // budget must not each install a replacement — the loser's table would
  // be orphaned (never flushed) and leak a memtable slot forever.
  auto existing = actives_.find(drange_id);
  if (existing != actives_.end() && existing->second.active != nullptr &&
      !existing->second.active->immutable()) {
    return existing->second.active;
  }
  uint64_t mid = next_mid_.fetch_add(1);
  auto mem = std::make_shared<MemTable>(icmp_, mid);
  mem->set_drange_id(drange_id);
  mem->set_generation(generation_hint_);
  all_memtables_[mid] = mem;
  actives_[drange_id] = DrangeMem{mem};
  mid_table_.SetMemtable(mid, mem);
  std::string lo = options_.lower;
  std::string hi = options_.upper;
  if (options_.enable_dranges) {
    auto bounds = drange_->DrangeBounds(drange_id);
    if (!bounds.first.empty() || !bounds.second.empty()) {
      lo = bounds.first;
      hi = bounds.second;
    }
  }
  range_index_->AddMemtable(mid, lo, hi);
  mem_spans_[mid] = {lo, hi};
  if (options_.log.mode != logc::LogMode::kNone) {
    logc_->CreateLogFile(mid, stocs_);
    mem->set_log_file_id(mid);
  }
  return mem;
}

void RangeEngine::Bootstrap() {
  std::unique_lock<std::mutex> lk(mu_);
  if (options_.enable_dranges) {
    for (int d = 0; d < drange_->num_dranges(); d++) {
      NewMemTableLocked(d);
    }
  } else {
    for (int d = 0; d < options_.num_active_memtables; d++) {
      NewMemTableLocked(d);
    }
  }
}

Status RangeEngine::Put(const Slice& key, const Slice& value) {
  const sim::CostModel& costs = sim::DefaultCostModel();
  throttle_->Charge(costs.request_dispatch_us + costs.put_base_us +
                    (options_.enable_lookup_index
                         ? costs.lookup_index_update_us
                         : 0) +
                    (options_.enable_range_index
                         ? costs.range_index_update_us
                         : 0));
  SequenceNumber seq = last_sequence_.fetch_add(1) + 1;
  Status s = RouteAndAppend(seq, kTypeValue, key, value);
  if (s.ok()) {
    std::lock_guard<std::mutex> l(stats_mu_);
    stats_.puts++;
  }
  return s;
}

Status RangeEngine::Delete(const Slice& key) {
  const sim::CostModel& costs = sim::DefaultCostModel();
  throttle_->Charge(costs.request_dispatch_us + costs.put_base_us);
  SequenceNumber seq = last_sequence_.fetch_add(1) + 1;
  return RouteAndAppend(seq, kTypeDeletion, key, Slice());
}

Status RangeEngine::RouteAndAppend(SequenceNumber seq, ValueType type,
                                   const Slice& key, const Slice& value) {
  static thread_local Random tl_rng(
      reinterpret_cast<uint64_t>(&tl_rng) ^ 0x1234567);
  const sim::CostModel& costs = sim::DefaultCostModel();
  foreground_writes_.fetch_add(1, std::memory_order_acquire);
  struct WriteGuard {
    std::atomic<int>* n;
    ~WriteGuard() { n->fetch_sub(1, std::memory_order_release); }
  } write_guard{&foreground_writes_};
  Status log_status;
  for (int attempt = 0; attempt < 1000; attempt++) {
    if (stopping_.load(std::memory_order_relaxed)) {
      return Status::Unavailable("range decommissioned");
    }
    MemTableRef mem;
    {
      std::unique_lock<std::mutex> lk(mu_);
      // Write stall: L0 too large (Challenge 1).
      if (l0_bytes_.load() >= options_.lsm.l0_stop_bytes) {
        auto t0 = Clock::now();
        {
          std::lock_guard<std::mutex> sl(stats_mu_);
          stats_.stall_events++;
        }
        stall_cv_.wait(lk, [this] {
          return l0_bytes_.load() < options_.lsm.l0_stop_bytes ||
                 stopping_.load();
        });
        uint64_t us = ElapsedUs(t0);
        std::lock_guard<std::mutex> sl(stats_mu_);
        stats_.stall_us += us;
      }
      if (stopping_.load()) {
        return Status::Unavailable("engine stopping");
      }
      int did;
      if (options_.enable_dranges) {
        did = drange_->RouteWrite(key);
        if (did < 0) {
          return Status::InvalidArgument("key outside range");
        }
      } else {
        did = static_cast<int>(
            tl_rng.Uniform(options_.num_active_memtables));
      }
      auto it = actives_.find(did);
      if (it == actives_.end() || it->second.active == nullptr) {
        // Write stall: all δ memtables in use.
        if (static_cast<int>(all_memtables_.size()) >=
            options_.max_memtables) {
          auto t0 = Clock::now();
          {
            std::lock_guard<std::mutex> sl(stats_mu_);
            stats_.stall_events++;
          }
          stall_cv_.wait(lk, [this] {
            return static_cast<int>(all_memtables_.size()) <
                       options_.max_memtables ||
                   stopping_.load();
          });
          uint64_t us = ElapsedUs(t0);
          std::lock_guard<std::mutex> sl(stats_mu_);
          stats_.stall_us += us;
          if (stopping_.load()) {
            return Status::Unavailable("engine stopping");
          }
        }
        mem = NewMemTableLocked(did);
      } else {
        mem = it->second.active;
      }
      if (mem->ApproximateMemoryUsage() >= options_.memtable_size) {
        RotateLocked(did, &lk);
        auto it2 = actives_.find(did);
        if (it2 == actives_.end() || it2->second.active == nullptr) {
          continue;  // stalled and state changed; retry
        }
        mem = it2->second.active;
      }
      if (options_.enable_range_index) {
        // If a reorg moved this Drange's bounds between routing and
        // rotation, the key may fall outside the memtable's range-index
        // registration; expand it so scans keep seeing every key.
        auto span_it = mem_spans_.find(mem->id());
        if (span_it != mem_spans_.end()) {
          auto& span = span_it->second;
          bool below =
              !span.first.empty() && key.compare(span.first) < 0;
          bool above =
              !span.second.empty() && key.compare(span.second) >= 0;
          if (below || above) {
            std::string upper_key = key.ToString() + std::string(1, '\0');
            range_index_->AddMemtable(mem->id(), key.ToString(), upper_key);
            if (below) span.first = key.ToString();
            if (above) span.second = upper_key;
          }
        }
      }
    }

    // Log record first (durability ordering, Section 2.1/5), then the
    // memtable append. Both happen outside the lifecycle lock.
    if (options_.log.mode != logc::LogMode::kNone) {
      throttle_->Charge(costs.log_append_us * options_.log.num_replicas);
      logc::LogRecord rec;
      rec.memtable_id = mem->id();
      rec.sequence = seq;
      rec.type = type;
      rec.key = key.ToString();
      rec.value = value.ToString();
      log_status = logc_->Append(mem->id(), rec);
      if (!log_status.ok()) {
        // Never ack a put without its log record. The log may have lost a
        // replica for good, so seal the memtable (it still flushes what
        // it holds) and retry into a fresh one with a freshly placed log.
        std::lock_guard<std::mutex> lk(mu_);
        auto it = actives_.find(mem->drange_id());
        if (it != actives_.end() && it->second.active == mem) {
          mem->MarkImmutable();
          flush_queue_.push_back(mem);
          it->second.active = nullptr;
        }
        continue;
      }
    }
    if (mem->AddIfActive(seq, type, key, value)) {
      if (options_.enable_lookup_index) {
        lookup_index_.Update(key, mem->id(), seq);
      }
      return Status::OK();
    }
    // The memtable became immutable under us; retry with the new active.
  }
  if (!log_status.ok()) {
    return log_status;
  }
  return Status::Busy("put retry limit exceeded");
}

void RangeEngine::RotateLocked(int drange_id,
                               std::unique_lock<std::mutex>* lk) {
  auto it = actives_.find(drange_id);
  if (it == actives_.end() || it->second.active == nullptr) {
    return;
  }
  MemTableRef old = it->second.active;
  if (old->ApproximateMemoryUsage() < options_.memtable_size) {
    return;  // somebody else already rotated
  }
  old->MarkImmutable();
  flush_queue_.push_back(old);
  it->second.active = nullptr;
  // Stall if we are at the memtable budget δ.
  if (static_cast<int>(all_memtables_.size()) >= options_.max_memtables) {
    auto t0 = Clock::now();
    {
      std::lock_guard<std::mutex> sl(stats_mu_);
      stats_.stall_events++;
    }
    stall_cv_.wait(*lk, [this] {
      return static_cast<int>(all_memtables_.size()) <
                 options_.max_memtables ||
             stopping_.load();
    });
    uint64_t us = ElapsedUs(t0);
    std::lock_guard<std::mutex> sl(stats_mu_);
    stats_.stall_us += us;
  }
  if (stopping_.load()) {
    return;
  }
  NewMemTableLocked(drange_id);
}

Status RangeEngine::Get(const Slice& key, std::string* value) {
  const sim::CostModel& costs = sim::DefaultCostModel();
  throttle_->Charge(costs.request_dispatch_us + costs.get_base_us);
  {
    std::lock_guard<std::mutex> l(stats_mu_);
    stats_.gets++;
  }
  // A point get reads the newest version present and follows the one
  // consistency rule stated in lookup_index.h.
  LookupKey lkey(key, kMaxSequenceNumber);
  NewestVersion newest(value);
  SequenceNumber claimed_seq = 0;
  bool sweep_memtables = !options_.enable_lookup_index;
  if (options_.enable_lookup_index) {
    uint64_t mid;
    if (lookup_index_.Lookup(key, &mid, &claimed_seq)) {
      MidTable::Entry entry;
      bool resolved = mid_table_.Get(mid, &entry);
      if (resolved && !entry.is_file) {
        throttle_->Charge(costs.memtable_probe_us);
        newest.Probe(entry.memtable.get(), lkey);
      } else if (resolved) {
        // A null meta means the L0 file was just compacted into L1+; the
        // slot keeps its claim so the levels are consulted below.
        lsm::FileMetaRef meta = FindL0File(entry.file_number);
        lsm::TableCache::Handle handle;
        if (meta != nullptr && table_cache_->GetReader(meta, &handle).ok()) {
          throttle_->Charge(costs.l0_sstable_probe_us);
          newest.Probe(handle.reader, lkey);
        }
      }
      if (newest.Reaches(claimed_seq)) {
        std::lock_guard<std::mutex> l(stats_mu_);
        stats_.lookup_index_hits++;
        return newest.Finish();
      }
      // The slot named a memtable, or a mid that no longer resolves (see
      // lookup_index.h): the claimed version may sit in another memtable.
      sweep_memtables = !resolved || !entry.is_file;
    }
    std::lock_guard<std::mutex> l(stats_mu_);
    stats_.lookup_index_misses++;
  }
  if (sweep_memtables) {
    std::vector<MemTableRef> mems;
    {
      std::lock_guard<std::mutex> lk(mu_);
      mems.reserve(all_memtables_.size());
      for (auto& [mid, mem] : all_memtables_) {
        mems.push_back(mem);
      }
    }
    for (auto& mem : mems) {
      throttle_->Charge(costs.memtable_probe_us);
      newest.Probe(mem.get(), lkey);
    }
  }
  // After recovery or migration L0-resident keys may be unindexed (the
  // index is rebuilt from log records), so every overlapping L0 file is
  // probed, bloom first.
  lsm::VersionRef version = versions_->current();
  for (const auto& f : version->files(0)) {
    if (key.compare(f->smallest.user_key()) < 0 ||
        key.compare(f->largest.user_key()) > 0) {
      continue;
    }
    lsm::TableCache::Handle handle;
    if (!table_cache_->GetReader(f, &handle).ok() ||
        !handle.reader->KeyMayMatch(key)) {
      continue;
    }
    throttle_->Charge(costs.l0_sstable_probe_us);
    newest.Probe(handle.reader, lkey);
  }
  if (newest.Reaches(claimed_seq)) {
    return newest.Finish();
  }
  // Nothing yet, or the index claims a newer version than memtables and
  // L0 hold: it was compacted into the levels. Levels are normally
  // disjoint, but while compactions are in flight one can transiently hold
  // overlapping files, so every overlapping file of a level is probed. A
  // fresh version also covers an L0 file compacted since the L0 probe.
  version = versions_->current();
  for (int level = 1;
       level < version->num_levels() && !newest.Reaches(claimed_seq);
       level++) {
    for (const auto& f : version->OverlappingFiles(level, key, key)) {
      lsm::TableCache::Handle handle;
      Status s = table_cache_->GetReader(f, &handle);
      if (!s.ok()) {
        if (s.IsUnavailable()) {
          degraded_gets_.fetch_add(1);
        }
        continue;
      }
      if (!handle.reader->KeyMayMatch(key)) {
        continue;  // bloom filter skip (Section 4.1.1)
      }
      throttle_->Charge(costs.high_level_probe_us);
      newest.Probe(handle.reader, lkey);
    }
  }
  return newest.Finish();
}

lsm::FileMetaRef RangeEngine::FindL0File(uint64_t number) {
  return FindL0FileIn(versions_->current(), number);
}

lsm::FileMetaRef RangeEngine::FindL0FileIn(const lsm::VersionRef& version,
                                           uint64_t number) {
  for (const auto& f : version->files(0)) {
    if (f->number == number) {
      return f;
    }
  }
  return nullptr;
}

Status RangeEngine::Scan(
    const Slice& start_key, int num_records,
    std::vector<std::pair<std::string, std::string>>* out) {
  const sim::CostModel& costs = sim::DefaultCostModel();
  throttle_->Charge(costs.request_dispatch_us + costs.scan_seek_us);
  {
    std::lock_guard<std::mutex> l(stats_mu_);
    stats_.scans++;
  }
  SequenceNumber snapshot = last_sequence_.load();

  std::string pos = start_key.ToString();
  std::string last_emitted;
  bool has_last = false;

  while (static_cast<int>(out->size()) < num_records) {
    // Determine the table set for this stretch of keyspace.
    std::vector<uint64_t> l0_numbers;
    std::string upper;
    std::vector<Iterator*> children;
    std::vector<lsm::TableCache::Handle> pins;
    std::vector<MemTableRef> mem_pins;
    if (options_.enable_range_index) {
      RangeIndex::PartitionView view = range_index_->Collect(pos);
      if (!view.valid) {
        break;
      }
      l0_numbers = std::move(view.l0_files);
      upper = view.upper;
      // Pin the collected memtables. A miss means a flush committed
      // after the collect, so the memtable's keys now live in an L0
      // file the collect did not see — merging this view would silently
      // drop them. Throw the stretch away and re-collect.
      bool stale = false;
      {
        std::lock_guard<std::mutex> lk(mu_);
        for (uint64_t mid : view.memtables) {
          auto it = all_memtables_.find(mid);
          if (it == all_memtables_.end()) {
            stale = true;
            break;
          }
          mem_pins.push_back(it->second);
          children.push_back(it->second->NewIterator());
        }
      }
      if (stale) {
        for (Iterator* c : children) {
          delete c;
        }
        continue;
      }
    } else {
      // Ablation: merge everything (Challenge 2's slow scan). Pin under
      // the same lock as the collect so no flush can retire a memtable
      // in between.
      std::lock_guard<std::mutex> lk(mu_);
      for (auto& [mid, mem] : all_memtables_) {
        mem_pins.push_back(mem);
        children.push_back(mem->NewIterator());
      }
      upper = options_.upper;
    }

    // One consistent LSM view for the whole stretch, captured after the
    // memtables are pinned: an L0 number the collect saw that compaction
    // has since retired is covered by this version's deeper levels, and
    // a flush that committed after pinning merely duplicates a pinned
    // memtable (the emit loop dedupes by user key). Mixing the collect's
    // L0 list with a different version's L1 files is how scans used to
    // lose keys mid-compaction.
    lsm::VersionRef version = versions_->current();
    if (!options_.enable_range_index) {
      for (const auto& f : version->files(0)) {
        l0_numbers.push_back(f->number);
      }
    }
    for (uint64_t number : l0_numbers) {
      lsm::FileMetaRef f = FindL0FileIn(version, number);
      if (f == nullptr) {
        continue;  // compacted away; this version's L1+ covers it
      }
      lsm::TableCache::Handle handle;
      if (table_cache_->GetReader(f, &handle).ok()) {
        pins.push_back(handle);
        children.push_back(handle.reader->NewIterator());
      }
    }
    for (int level = 1; level < version->num_levels(); level++) {
      auto files = version->OverlappingFiles(level, pos, upper);
      for (const auto& f : files) {
        lsm::TableCache::Handle handle;
        if (table_cache_->GetReader(f, &handle).ok()) {
          pins.push_back(handle);
          children.push_back(handle.reader->NewIterator());
        }
      }
    }
    throttle_->Charge(costs.scan_per_table_us * children.size());

    std::unique_ptr<Iterator> merged(
        NewMergingIterator(&icmp_, std::move(children)));
    LookupKey lkey(pos, snapshot);
    merged->Seek(lkey.internal_key());
    while (merged->Valid() && static_cast<int>(out->size()) < num_records) {
      throttle_->Charge(costs.scan_per_record_us);
      ParsedInternalKey parsed;
      if (!ParseInternalKey(merged->key(), &parsed)) {
        return Status::Corruption("bad key during scan");
      }
      if (!upper.empty() && parsed.user_key.compare(upper) >= 0) {
        break;
      }
      if (parsed.sequence > snapshot) {
        merged->Next();
        continue;
      }
      if (has_last && parsed.user_key.compare(last_emitted) == 0) {
        merged->Next();  // an older version of an already-handled key
        continue;
      }
      last_emitted.assign(parsed.user_key.data(), parsed.user_key.size());
      has_last = true;
      if (parsed.type != kTypeDeletion) {
        out->emplace_back(last_emitted, merged->value().ToString());
      }
      merged->Next();
    }
    if (upper.empty()) {
      break;  // end of the keyspace
    }
    if (!options_.enable_range_index) {
      // The ablation merged the whole table set in one pass; stepping to
      // `upper` would re-collect the same set and spin forever whenever
      // the range holds fewer than num_records keys past `pos`.
      break;
    }
    if (upper <= pos) {
      break;  // partition failed to advance; never loop in place
    }
    pos = upper;  // continue in the next partition (Section 4.1.2)
    throttle_->Charge(costs.scan_seek_us);
  }
  return Status::OK();
}

void RangeEngine::MaintenanceTick() {
  // 1. Drange reorganization (Section 4.1).
  if (options_.enable_dranges && drange_->NeedsReorg() &&
      !drange_->MaybeReorg().empty()) {
    HandleReorg();
  }
  // 2. Dispatch queued flushes. First break the parked-small-immutable
  // cycle: Drange merge outputs wait in small_immutables_ for the *next*
  // flush of their Drange to gather them (FlushTask), but when they and
  // the actives together exhaust the δ budget, puts and rotations stall
  // and that next flush never materializes. With the budget at the cap
  // and nothing queued or in flight, force-flush the parked tables —
  // at the cap merge_has_room is false, so FlushTask writes them out as
  // SSTables and frees budget.
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (flush_queue_.empty() && flushes_inflight_ == 0 &&
        static_cast<int>(all_memtables_.size()) >= options_.max_memtables) {
      for (auto& [did, mids] : small_immutables_) {
        for (uint64_t mid : mids) {
          auto it = all_memtables_.find(mid);
          if (it != all_memtables_.end()) {
            flush_queue_.push_back(it->second);
          }
        }
        mids.clear();
      }
    }
    while (!flush_queue_.empty()) {
      MemTableRef mem = flush_queue_.front();
      flush_queue_.erase(flush_queue_.begin());
      flushes_inflight_++;
      flush_pool_->Submit([this, mem] { FlushTask(mem); });
    }
  }
  // 3. Compactions.
  ScheduleCompactions();
}

void RangeEngine::HandleReorg() {
  // Rotate every active memtable: reorganized Dranges get fresh memtables
  // with a bumped generation id (Section 4.1's second technique).
  std::lock_guard<std::mutex> lk(mu_);
  uint32_t next_gen = 0;
  for (auto& [did, dm] : actives_) {
    if (dm.active != nullptr) {
      next_gen = std::max(next_gen, dm.active->generation() + 1);
    }
  }
  for (auto& [did, dm] : actives_) {
    if (dm.active != nullptr) {
      dm.active->MarkImmutable();
      flush_queue_.push_back(dm.active);
    }
  }
  actives_.clear();
  // New actives are created lazily on the next put with the new Drange
  // ids; record the generation they must carry.
  generation_hint_ = next_gen;
  // Refine the range index at the new boundaries; splits are idempotent.
  if (options_.enable_range_index) {
    for (const std::string& b : drange_->Boundaries()) {
      range_index_->SplitAt(b);
    }
  }
}

void RangeEngine::FlushTask(MemTableRef mem) {
  const sim::CostModel& costs = sim::DefaultCostModel();
  throttle_->Charge(costs.flush_per_record_us * mem->num_entries());
  uint64_t unique = mem->CountUniqueKeys();
  int did = mem->drange_id();

  // The merge path keeps the table in memory, so it must leave slack in
  // the δ budget: with θ Dranges each holding an active plus a merged
  // small immutable, merging at the cap would deadlock rotation.
  bool merge_has_room;
  {
    std::lock_guard<std::mutex> lk(mu_);
    merge_has_room = static_cast<int>(all_memtables_.size()) + 1 <
                     options_.max_memtables;
  }
  Status s;
  if (options_.enable_memtable_merge && unique > 0 && merge_has_room &&
      unique < static_cast<uint64_t>(options_.unique_key_threshold)) {
    // Small memtable: merge with the Drange's other small immutables
    // instead of writing an SSTable (Section 4.2).
    std::vector<MemTableRef> mems = {mem};
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (uint64_t mid : small_immutables_[did]) {
        auto it = all_memtables_.find(mid);
        if (it != all_memtables_.end()) {
          mems.push_back(it->second);
        }
      }
      small_immutables_[did].clear();
    }
    s = MergeSmallMemtables(mems, did);
  } else if (unique == 0) {
    // Empty memtable: just drop it.
    std::lock_guard<std::mutex> lk(mu_);
    all_memtables_.erase(mem->id());
    mem_spans_.erase(mem->id());
    mid_table_.Erase(mem->id());
    range_index_->RemoveMemtable(mem->id());
    logc_->DeleteLogFile(mem->id());
  } else {
    s = FlushToSSTable({mem}, did, mem->generation());
  }
  if (!s.ok()) {
    NOVA_WARN("flush failed: %s", s.ToString().c_str());
    // Requeue so data is not lost.
    std::lock_guard<std::mutex> lk(mu_);
    flush_queue_.push_back(mem);
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    flushes_inflight_--;
  }
  stall_cv_.notify_all();
}

Status RangeEngine::MergeSmallMemtables(const std::vector<MemTableRef>& mems,
                                        int drange_id) {
  // Merge-iterate the inputs, keep only the newest version per key.
  std::vector<Iterator*> children;
  for (const auto& m : mems) {
    children.push_back(m->NewIterator());
  }
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(&icmp_, std::move(children)));

  uint64_t new_mid = next_mid_.fetch_add(1);
  auto new_mem = std::make_shared<MemTable>(icmp_, new_mid);
  new_mem->set_drange_id(drange_id);

  // New log file first so the merged table is as durable as its sources.
  if (options_.log.mode != logc::LogMode::kNone) {
    Status ls = logc_->CreateLogFile(new_mid, stocs_);
    if (!ls.ok()) {
      return ls;
    }
  }

  std::string last_key;
  bool has_last = false;
  bool logged = true;
  uint64_t unique = 0;
  merged->SeekToFirst();
  while (merged->Valid()) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(merged->key(), &parsed)) {
      return Status::Corruption("bad key during memtable merge");
    }
    if (!has_last || parsed.user_key.compare(last_key) != 0) {
      last_key.assign(parsed.user_key.data(), parsed.user_key.size());
      has_last = true;
      unique++;
      new_mem->Add(parsed.sequence, parsed.type, parsed.user_key,
                   merged->value());
      if (options_.log.mode != logc::LogMode::kNone) {
        logc::LogRecord rec;
        rec.memtable_id = new_mid;
        rec.sequence = parsed.sequence;
        rec.type = parsed.type;
        rec.key = last_key;
        rec.value = merged->value().ToString();
        logged = logged && logc_->Append(new_mid, rec).ok();
      }
    }
    merged->Next();
  }
  new_mem->MarkImmutable();

  if (!logged ||
      unique >= static_cast<uint64_t>(options_.unique_key_threshold) ||
      new_mem->ApproximateMemoryUsage() >= options_.memtable_size) {
    // Merged result grew past the threshold, or its log is incomplete and
    // could not stand in for the inputs' logs: flush it for real. Old
    // memtables are released below either way.
    Status fs = FlushToSSTable(mems, drange_id, mems[0]->generation());
    logc_->DeleteLogFile(new_mid);
    return fs;
  }

  // Install the merged memtable and re-index its keys. Each key is
  // re-pointed with the merged entry's *own* sequence number through the
  // seq-guarded Update: a newer version living in an active memtable (or
  // indexed by a racing merge) always keeps the slot, so the index
  // invariant — the slot's table contains key@slot.seq — stays intact
  // under concurrent merges.
  mid_table_.SetMemtable(new_mid, new_mem);
  {
    std::unique_ptr<Iterator> it(new_mem->NewIterator());
    it->SeekToFirst();
    while (it->Valid()) {
      ParsedInternalKey parsed;
      if (ParseInternalKey(it->key(), &parsed)) {
        lookup_index_.Update(parsed.user_key, new_mid, parsed.sequence);
      }
      it->Next();
    }
  }
  std::string lo = new_mem->SmallestUserKey();
  std::string hi_inclusive = new_mem->LargestUserKey();
  range_index_->AddMemtable(new_mid, lo, hi_inclusive + std::string(1, '\0'));
  {
    std::lock_guard<std::mutex> lk(mu_);
    all_memtables_[new_mid] = new_mem;
    // Append (not assign): a concurrent merge on the same Drange may have
    // installed its own table between our gather and now.
    small_immutables_[drange_id].push_back(new_mid);
    for (const auto& m : mems) {
      all_memtables_.erase(m->id());
      mem_spans_.erase(m->id());
    }
  }
  for (const auto& m : mems) {
    mid_table_.Erase(m->id());
    range_index_->RemoveMemtable(m->id());
    logc_->DeleteLogFile(m->id());
  }
  {
    std::lock_guard<std::mutex> l(stats_mu_);
    stats_.memtable_merges++;
  }
  stall_cv_.notify_all();
  return Status::OK();
}

Status RangeEngine::FlushToSSTable(const std::vector<MemTableRef>& mems,
                                   int drange_id, uint32_t generation) {
  std::vector<Iterator*> children;
  for (const auto& m : mems) {
    children.push_back(m->NewIterator());
  }
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(&icmp_, std::move(children)));

  SSTableBuilderOptions bopt;
  bopt.compressor = compressor_;
  SSTableBuilder builder(bopt);
  std::string last_key;
  bool has_last = false;
  merged->SeekToFirst();
  while (merged->Valid()) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(merged->key(), &parsed)) {
      return Status::Corruption("bad key during flush");
    }
    // Retain only the newest version of each key (Section 4.2).
    if (!has_last || parsed.user_key.compare(last_key) != 0) {
      last_key.assign(parsed.user_key.data(), parsed.user_key.size());
      has_last = true;
      builder.Add(merged->key(), merged->value());
    }
    merged->Next();
  }
  if (builder.empty()) {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& m : mems) {
      all_memtables_.erase(m->id());
      mid_table_.Erase(m->id());
      range_index_->RemoveMemtable(m->id());
      logc_->DeleteLogFile(m->id());
    }
    return Status::OK();
  }

  uint64_t number = versions_->NewFileNumber();
  lsm::PlacementOptions popt = placer_->options();
  auto built = builder.Finish(number, popt.rho);
  uint64_t data_size = built.data.size();
  uint64_t raw_size = built.raw_bytes;
  lsm::FileMetaData meta;
  Status s = placer_->Write(std::move(built), drange_id, generation, &meta);
  if (!s.ok()) {
    return s;
  }

  lsm::VersionEdit edit;
  edit.new_files.emplace_back(0, meta);
  if (options_.enable_dranges) {
    edit.drange_state = drange_->Serialize();
  }
  versions_->SetLastSequence(last_sequence_.load());
  s = versions_->LogAndApply(&edit);
  if (!s.ok()) {
    return s;
  }
  l0_bytes_.store(versions_->current()->LevelBytes(0));

  // Atomically redirect the mids to the new L0 file, publish it in the
  // range index, then retire the memtables.
  for (const auto& m : mems) {
    mid_table_.SetFile(m->id(), number);
  }
  {
    std::lock_guard<std::mutex> cl(compaction_mu_);
    for (const auto& m : mems) {
      file_to_mids_[number].push_back(m->id());
    }
  }
  range_index_->AddL0File(number, meta.smallest.user_key().ToString(),
                          meta.largest.user_key().ToString());
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& m : mems) {
      all_memtables_.erase(m->id());
      mem_spans_.erase(m->id());
      range_index_->RemoveMemtable(m->id());
    }
  }
  for (const auto& m : mems) {
    logc_->DeleteLogFile(m->id());
  }
  {
    std::lock_guard<std::mutex> l(stats_mu_);
    stats_.flushes++;
    stats_.bytes_flushed += data_size;
    stats_.sstable_stored_bytes += data_size;
    stats_.sstable_raw_bytes += raw_size;
  }
  stall_cv_.notify_all();
  return Status::OK();
}

void RangeEngine::ScheduleCompactions() {
  std::lock_guard<std::mutex> cl(compaction_mu_);
  if (compactions_inflight_ >= options_.max_parallel_compactions) {
    return;
  }
  lsm::VersionRef v = versions_->current();
  std::vector<lsm::CompactionJob> jobs = lsm::CompactionPicker::Pick(
      *versions_, v,
      options_.max_parallel_compactions - compactions_inflight_);
  for (auto& job : jobs) {
    bool busy = false;
    for (const auto& f : job.inputs) {
      if (compacting_files_.count(f->number)) busy = true;
    }
    for (const auto& f : job.inputs_next) {
      if (compacting_files_.count(f->number)) busy = true;
    }
    // Defer jobs whose key range overlaps an in-flight compaction: two
    // concurrent jobs over overlapping ranges would emit overlapping
    // SSTables into the same sorted level.
    std::string job_lo, job_hi;
    auto extend_hull = [&](const std::vector<lsm::FileMetaRef>& files) {
      for (const auto& f : files) {
        std::string lo = f->smallest.user_key().ToString();
        std::string hi = f->largest.user_key().ToString();
        if (job_lo.empty() || lo < job_lo) job_lo = lo;
        if (job_hi.empty() || hi > job_hi) job_hi = hi;
      }
    };
    extend_hull(job.inputs);
    extend_hull(job.inputs_next);
    for (const auto& [lo, hi] : inflight_hulls_) {
      if (job_lo <= hi && lo <= job_hi) busy = true;
    }
    if (busy) {
      continue;
    }
    if (job.input_level == 0 && options_.enable_dranges) {
      job.boundaries = drange_->Boundaries();
    }
    job.max_output_bytes = options_.max_sstable_size;
    // The gather pipeline depth travels with the job so an offloaded run
    // honors this range's knob.
    job.readahead_blocks = options_.compaction_readahead_blocks;
    // The output codec travels with the job too: an offloaded StoC must
    // write blocks this LTC can read back.
    job.compression_codec = options_.compression_codec;
    uint64_t estimate =
        job.total_input_bytes() / std::max<uint64_t>(1, job.max_output_bytes) +
        job.boundaries.size() + 4;
    job.first_output_number = versions_->ReserveFileNumbers(estimate);
    for (const auto& f : job.inputs) {
      compacting_files_.insert(f->number);
    }
    for (const auto& f : job.inputs_next) {
      compacting_files_.insert(f->number);
    }
    compactions_inflight_++;
    inflight_hulls_.emplace_back(job_lo, job_hi);
    Clock::time_point queued_at = Clock::now();
    compaction_pool_->Submit([this, job = std::move(job), job_lo, job_hi,
                              queued_at] {
      RunCompaction(job, ElapsedUs(queued_at));
      std::lock_guard<std::mutex> cl(compaction_mu_);
      for (size_t i = 0; i < inflight_hulls_.size(); i++) {
        if (inflight_hulls_[i].first == job_lo &&
            inflight_hulls_[i].second == job_hi) {
          inflight_hulls_.erase(inflight_hulls_.begin() + i);
          break;
        }
      }
    });
  }
}

void RangeEngine::RunCompaction(lsm::CompactionJob job, uint64_t queue_us) {
  lsm::CompactionResult result;
  bool offloaded = false;
  // The scheduler offloads to the least-loaded StoC (Section 4.3
  // "Offloading") and retries locally on failure, so the job completes
  // exactly once wherever it ran.
  Status s = scheduler_->Run(job, executor_.get(), &result, &offloaded);
  if (s.ok()) {
    ApplyCompactionResult(job, result);
  } else {
    NOVA_WARN("compaction failed: %s", s.ToString().c_str());
  }
  {
    std::lock_guard<std::mutex> sl(stats_mu_);
    stats_.compaction_queue_us += queue_us;
    stats_.compaction_gather_waves += result.gather_waves;
    stats_.compaction_bytes_read += result.bytes_read;
    stats_.compaction_bytes_written += result.bytes_written;
    stats_.sstable_stored_bytes += result.bytes_written;
    stats_.sstable_raw_bytes += result.raw_bytes_written;
  }
  {
    std::lock_guard<std::mutex> cl(compaction_mu_);
    for (const auto& f : job.inputs) {
      compacting_files_.erase(f->number);
    }
    for (const auto& f : job.inputs_next) {
      compacting_files_.erase(f->number);
    }
    compactions_inflight_--;
  }
  // l0_bytes_ was lowered outside mu_ (ApplyCompactionResult), so without
  // this empty critical section the notify can land in the window between
  // a stalled writer's predicate check and its block — and if this was
  // the last scheduled compaction nothing ever notifies again (all the
  // writers are stalled, so the flush queue stays empty). Taking mu_
  // orders the store before either the writer's re-check or its block.
  { std::lock_guard<std::mutex> lk(mu_); }
  stall_cv_.notify_all();
}

void RangeEngine::ApplyCompactionResult(const lsm::CompactionJob& job,
                                        const lsm::CompactionResult& result) {
  lsm::VersionEdit edit;
  for (const auto& f : job.inputs) {
    edit.deleted_files.emplace_back(job.input_level, f->number);
  }
  for (const auto& f : job.inputs_next) {
    edit.deleted_files.emplace_back(job.output_level, f->number);
  }
  for (const auto& out : result.outputs) {
    edit.new_files.emplace_back(job.output_level, out);
  }
  Status s = versions_->LogAndApply(&edit);
  if (!s.ok()) {
    NOVA_WARN("compaction apply failed: %s", s.ToString().c_str());
    return;
  }
  l0_bytes_.store(versions_->current()->LevelBytes(0));

  // Lookup-index upkeep (Section 4.1.1): keys whose MIDToTable entries
  // pointed at a compacted L0 file now resolve through the levels.
  if (job.input_level == 0) {
    std::lock_guard<std::mutex> cl(compaction_mu_);
    for (const auto& f : job.inputs) {
      auto it = file_to_mids_.find(f->number);
      if (it != file_to_mids_.end()) {
        for (uint64_t mid : it->second) {
          mid_table_.Erase(mid);
        }
        file_to_mids_.erase(it);
      }
      range_index_->RemoveL0File(f->number);
    }
  }
  // Retire the inputs: delete the StoC blocks first, then drop cache
  // entries in one sweep for all dead files. Sweeping after the deletes
  // closes (almost all of) the window where an in-flight read of the old
  // version re-inserts a dead file's block that nothing would invalidate
  // again; dead entries are otherwise unreachable and would squat on the
  // charge budget until LRU churn reached them.
  std::vector<uint64_t> dead;
  for (const auto* files : {&job.inputs, &job.inputs_next}) {
    for (const auto& f : *files) {
      dead.push_back(f->number);
      DeleteFileBlocks(*f);
    }
  }
  table_cache_->EvictBatch(dead);
  {
    std::lock_guard<std::mutex> l(stats_mu_);
    stats_.compactions++;
  }
}

void RangeEngine::DeleteFileBlocks(const lsm::FileMetaData& meta) {
  for (const auto& replicas : meta.fragments) {
    for (const auto& loc : replicas) {
      client_->DeleteFile(loc.stoc_id, loc.file_id, false);
    }
  }
  for (const auto& loc : meta.meta_replicas) {
    client_->DeleteFile(loc.stoc_id, loc.file_id, false);
  }
  if (meta.parity.valid()) {
    client_->DeleteFile(meta.parity.stoc_id, meta.parity.file_id, false);
  }
}

Status RangeEngine::ManifestAppend(const Slice& record) {
  std::string framed;
  PutFixed32(&framed, static_cast<uint32_t>(record.size()));
  framed.append(record.data(), record.size());
  int ok_count = 0;
  int replicas = std::min<int>(std::max(1, options_.manifest_replicas),
                               static_cast<int>(stocs_.size()));
  for (int r = 0; r < replicas; r++) {
    uint64_t file_id =
        stoc::MakeFileId(options_.range_id, 0, stoc::FileKind::kManifest,
                         static_cast<uint8_t>(r));
    stoc::StocBlockHandle handle;
    Status s = client_->AppendBlock(stocs_[r], file_id, framed, &handle);
    if (s.ok()) {
      ok_count++;
    }
  }
  if (ok_count == 0 && !stocs_.empty()) {
    return Status::IOError("no manifest replica reachable");
  }
  return Status::OK();
}

Status RangeEngine::ReadManifestRecords(std::vector<std::string>* records) {
  int replicas = std::min<int>(std::max(1, options_.manifest_replicas),
                               static_cast<int>(stocs_.size()));
  // Each replica is its own file (they may differ: stale replicas), so
  // each is one single-replica read; all are issued before any is waited.
  std::vector<stoc::PendingRead> reads;
  for (int r = 0; r < replicas; r++) {
    uint64_t file_id =
        stoc::MakeFileId(options_.range_id, 0, stoc::FileKind::kManifest,
                         static_cast<uint8_t>(r));
    reads.push_back(client_->Read({{stocs_[r], file_id}}, 0, 0));
  }
  util::Deadline deadline = rdma::RpcDeadline();
  std::vector<std::string> best;
  for (stoc::PendingRead& read : reads) {
    std::string contents;
    if (!read.Wait(&contents, deadline).ok()) {
      continue;  // stale or unreachable replica
    }
    std::vector<std::string> parsed;
    Slice in(contents);
    while (in.size() >= 4) {
      uint32_t len = DecodeFixed32(in.data());
      in.remove_prefix(4);
      if (in.size() < len) {
        break;  // torn tail
      }
      parsed.emplace_back(in.data(), len);
      in.remove_prefix(len);
    }
    // The replica with the most edits has the highest manifest version;
    // shorter ones are stale (Section 3: stale manifest replicas).
    if (parsed.size() > best.size()) {
      best = std::move(parsed);
    }
  }
  if (best.empty()) {
    return Status::NotFound("no manifest records");
  }
  *records = std::move(best);
  return Status::OK();
}

Status RangeEngine::RecoverFromManifest(int recovery_threads) {
  std::vector<std::string> records;
  Status s = ReadManifestRecords(&records);
  if (s.ok()) {
    s = versions_->Recover(records);
    if (!s.ok()) {
      return s;
    }
  }
  last_sequence_.store(versions_->last_sequence());
  std::string dstate = versions_->drange_state();
  if (!dstate.empty()) {
    drange_->Deserialize(dstate);
  }
  l0_bytes_.store(versions_->current()->LevelBytes(0));
  // Rebuild the range index from the recovered Dranges and L0 files
  // (Section 4.5).
  if (options_.enable_range_index) {
    for (const std::string& b : drange_->Boundaries()) {
      range_index_->SplitAt(b);
    }
    lsm::VersionRef v = versions_->current();
    for (const auto& f : v->files(0)) {
      range_index_->AddL0File(f->number, f->smallest.user_key().ToString(),
                              f->largest.user_key().ToString());
    }
  }
  return RebuildFromLogs(recovery_threads);
}

Status RangeEngine::RebuildFromLogs(int recovery_threads) {
  std::map<uint64_t, std::vector<logc::LogRecord>> by_memtable;
  std::map<uint64_t, std::vector<stoc::InMemFileHandle>> handles;
  Status s = logc::LogClient::FetchAllLogRecords(
      client_, stocs_, options_.range_id, &by_memtable, &handles);
  if (!s.ok()) {
    return s;
  }
  // Adopt the surviving log files so flushing the rebuilt memtables can
  // reclaim their StoC memory.
  for (auto& [file_id, replicas] : handles) {
    logc_->Adopt(stoc::FileIdNumber(file_id), std::move(replicas));
  }
  std::vector<std::pair<uint64_t, std::vector<logc::LogRecord>*>> work;
  for (auto& [mid, recs] : by_memtable) {
    work.emplace_back(mid, &recs);
  }
  // Reserve every log memtable's mid before replay starts: a mid handed
  // out meanwhile must never equal one still to be rebuilt, or the two
  // memtables overwrite each other's mid-table and memtable-map slots.
  if (!work.empty()) {
    uint64_t above = work.back().first + 1;
    uint64_t cur = next_mid_.load();
    while (cur < above && !next_mid_.compare_exchange_weak(cur, above)) {
    }
  }
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> max_seq{last_sequence_.load()};
  const sim::CostModel& costs = sim::DefaultCostModel();
  auto worker = [&] {
    for (;;) {
      size_t i = next.fetch_add(1);
      if (i >= work.size()) {
        return;
      }
      auto [mid, recs] = work[i];
      auto mem = std::make_shared<MemTable>(icmp_, mid);
      mem->set_drange_id(-1);
      for (const auto& rec : *recs) {
        throttle_->Charge(costs.flush_per_record_us);
        mem->Add(rec.sequence, rec.type, rec.key, rec.value);
        if (options_.enable_lookup_index) {
          lookup_index_.Update(rec.key, mid, rec.sequence);
        }
        uint64_t prev = max_seq.load();
        while (rec.sequence > prev &&
               !max_seq.compare_exchange_weak(prev, rec.sequence)) {
        }
      }
      mem->MarkImmutable();
      mid_table_.SetMemtable(mid, mem);
      std::string lo = mem->SmallestUserKey();
      std::string hi = mem->LargestUserKey();
      if (options_.enable_range_index && !lo.empty()) {
        range_index_->AddMemtable(mid, lo, hi + std::string(1, '\0'));
      }
      {
        std::lock_guard<std::mutex> lk(mu_);
        all_memtables_[mid] = mem;
        flush_queue_.push_back(mem);
      }
      if (replay_hook_) {
        replay_hook_(mid);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < std::max(1, recovery_threads); t++) {
    threads.emplace_back(worker);
  }
  for (auto& t : threads) {
    t.join();
  }
  last_sequence_.store(max_seq.load());

  // Rebuild lookup-index entries for keys living in L0 SSTables. Without
  // this, a rebuilt memtable holding an *old* version of a key would win
  // index lookups over a newer version that was flushed before the crash.
  // Each L0 file gets a synthetic mid so MIDToTable resolves to it and
  // compaction upkeep retires the entries normally.
  if (options_.enable_lookup_index) {
    lsm::VersionRef v = versions_->current();
    // Keys whose newest version was compacted into L1+ before the crash
    // must not be claimed by an older memtable/L0 version: live operation
    // leaves such keys with a dangling index slot that still carries the
    // newest seq, and Get uses that claimed seq to route down to the
    // levels. Recreate the same shape here by claiming every L1+ key
    // under one sentinel mid that is never registered in MIDToTable —
    // a hit on it fails to resolve and falls back to the levels.
    // This pass runs before the L0 pass so an L0 copy at the same seq
    // wins the slot (>= guard) and keeps the resolvable fast path.
    uint64_t levels_mid = next_mid_.fetch_add(1);
    for (int level = 1; level < v->num_levels(); level++) {
      for (const auto& f : v->files(level)) {
        lsm::TableCache::Handle handle;
        if (!table_cache_->GetReader(f, &handle).ok()) {
          continue;
        }
        std::unique_ptr<Iterator> it(handle.reader->NewIterator());
        for (it->SeekToFirst(); it->Valid(); it->Next()) {
          throttle_->Charge(costs.flush_per_record_us);
          ParsedInternalKey parsed;
          if (ParseInternalKey(it->key(), &parsed)) {
            lookup_index_.Update(parsed.user_key, levels_mid,
                                 parsed.sequence);
          }
        }
      }
    }
    for (const auto& f : v->files(0)) {
      lsm::TableCache::Handle handle;
      if (!table_cache_->GetReader(f, &handle).ok()) {
        continue;
      }
      uint64_t synthetic_mid = next_mid_.fetch_add(1);
      mid_table_.SetFile(synthetic_mid, f->number);
      {
        std::lock_guard<std::mutex> cl(compaction_mu_);
        file_to_mids_[f->number].push_back(synthetic_mid);
      }
      std::unique_ptr<Iterator> it(handle.reader->NewIterator());
      it->SeekToFirst();
      while (it->Valid()) {
        throttle_->Charge(costs.flush_per_record_us);
        ParsedInternalKey parsed;
        if (ParseInternalKey(it->key(), &parsed)) {
          lookup_index_.Update(parsed.user_key, synthetic_mid,
                               parsed.sequence);
        }
        it->Next();
      }
    }
  }
  return Status::OK();
}

std::string RangeEngine::ExtractMigrationState() {
  lsm::VersionEdit snapshot;
  lsm::VersionRef v = versions_->current();
  for (int level = 0; level < v->num_levels(); level++) {
    for (const auto& f : v->files(level)) {
      snapshot.new_files.emplace_back(level, *f);
    }
  }
  snapshot.last_sequence = last_sequence_.load();
  snapshot.next_file_number = versions_->NewFileNumber() + 1;
  snapshot.drange_state = drange_->Serialize();
  std::string out;
  snapshot.EncodeTo(&out);
  return out;
}

Status RangeEngine::InstallFromMigrationState(const Slice& state,
                                              int recovery_threads) {
  lsm::VersionEdit edit;
  Status s = edit.DecodeFrom(state);
  if (!s.ok()) {
    return s;
  }
  std::string record;
  edit.EncodeTo(&record);
  s = versions_->Recover({record});
  if (!s.ok()) {
    return s;
  }
  last_sequence_.store(edit.last_sequence);
  if (!edit.drange_state.empty()) {
    drange_->Deserialize(edit.drange_state);
  }
  l0_bytes_.store(versions_->current()->LevelBytes(0));
  if (options_.enable_range_index) {
    for (const std::string& b : drange_->Boundaries()) {
      range_index_->SplitAt(b);
    }
    lsm::VersionRef v = versions_->current();
    for (const auto& f : v->files(0)) {
      range_index_->AddL0File(f->number, f->smallest.user_key().ToString(),
                              f->largest.user_key().ToString());
    }
  }
  return RebuildFromLogs(recovery_threads);
}

void RangeEngine::BeginDecommission() {
  stopping_.store(true);
  // Same lost-wakeup pairing as FinishCompaction: stopping_ is stored
  // outside mu_, and a writer blocking on stall_cv_ must not miss the
  // only notify that will ever release it.
  { std::lock_guard<std::mutex> lk(mu_); }
  stall_cv_.notify_all();
}

void RangeEngine::FlushAllMemtables() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [did, dm] : actives_) {
    if (dm.active != nullptr && dm.active->num_entries() > 0) {
      dm.active->MarkImmutable();
      flush_queue_.push_back(dm.active);
      dm.active = nullptr;
    }
  }
}

void RangeEngine::WaitForQuiescence(bool flush_all) {
  for (;;) {
    MaintenanceTick();
    bool idle;
    {
      std::lock_guard<std::mutex> lk(mu_);
      idle = flush_queue_.empty() && flushes_inflight_ == 0;
    }
    if (idle && stopping_.load()) {
      // Decommission (migration/removal): writers that entered
      // RouteAndAppend before stopping_ was set may still have log
      // appends in flight; hand off only after they have returned.
      idle = foreground_writes_.load(std::memory_order_acquire) == 0;
    }
    if (idle) {
      std::lock_guard<std::mutex> cl(compaction_mu_);
      idle = compactions_inflight_ == 0;
    }
    if (idle && flush_all) {
      lsm::VersionRef v = versions_->current();
      idle = lsm::CompactionPicker::Pick(*versions_, v, 1).empty();
    }
    if (idle) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

std::string RangeEngine::DebugMaintenanceState() {
  std::string out;
  char buf[256];
  {
    std::lock_guard<std::mutex> lk(mu_);
    snprintf(buf, sizeof(buf),
             "flush_queue=%zu inflight_flushes=%d memtables=%zu",
             flush_queue_.size(), flushes_inflight_, all_memtables_.size());
    out += buf;
    out += " actives=[";
    for (const auto& [did, dm] : actives_) {
      snprintf(buf, sizeof(buf), "%d:%s ", did,
               dm.active == nullptr
                   ? "null"
                   : std::to_string(dm.active->num_entries()).c_str());
      out += buf;
    }
    out += "] small=[";
    for (const auto& [did, mids] : small_immutables_) {
      snprintf(buf, sizeof(buf), "%d:%zu ", did, mids.size());
      out += buf;
    }
    out += "] mems=[";
    for (const auto& [mid, mem] : all_memtables_) {
      snprintf(buf, sizeof(buf), "%llu:%llu%s ",
               (unsigned long long)mid, (unsigned long long)mem->num_entries(),
               mem->immutable() ? "i" : "");
      out += buf;
    }
    out += "]";
  }
  {
    std::lock_guard<std::mutex> cl(compaction_mu_);
    snprintf(buf, sizeof(buf),
             " inflight_compactions=%d compacting_files=%zu hulls=%zu",
             compactions_inflight_, compacting_files_.size(),
             inflight_hulls_.size());
    out += buf;
  }
  return out;
}

RangeStats RangeEngine::stats() const {
  RangeStats out;
  {
    std::lock_guard<std::mutex> l(stats_mu_);
    out = stats_;
  }
  out.readahead_issued =
      readahead_counters_.issued.load(std::memory_order_relaxed);
  out.readahead_hits =
      readahead_counters_.hits.load(std::memory_order_relaxed);
  CompactionScheduler::Stats sched = scheduler_->stats();
  out.compaction_offloads = sched.offloads;
  out.compaction_offload_failures = sched.offload_failures;
  out.compaction_local_fallbacks = sched.local_fallbacks;
  return out;
}

bool RangeEngine::IsFileNumberLive(uint64_t number) {
  lsm::VersionRef v = versions_->current();
  for (int level = 0; level < v->num_levels(); level++) {
    for (const auto& f : v->files(level)) {
      if (f->number == number) {
        return true;
      }
    }
  }
  return false;
}

Status RangeEngine::SwapFileMeta(const lsm::FileMetaData& updated) {
  // Claim the file number in compacting_files_ so no compaction starts on
  // it while the swap's manifest append is in flight; conversely, a file
  // already claimed by a compaction returns Busy — by the time the repair
  // manager retries, the compaction has either retired the file (repair is
  // moot) or released it.
  {
    std::lock_guard<std::mutex> cl(compaction_mu_);
    if (compacting_files_.count(updated.number)) {
      return Status::Busy("file is being compacted");
    }
    compacting_files_.insert(updated.number);
  }
  struct Unclaim {
    RangeEngine* e;
    uint64_t number;
    ~Unclaim() {
      std::lock_guard<std::mutex> cl(e->compaction_mu_);
      e->compacting_files_.erase(number);
    }
  } unclaim{this, updated.number};
  // Locate the file's level; compactions cannot move it while we hold the
  // claim, so the snapshot stays accurate through LogAndApply.
  lsm::VersionRef v = versions_->current();
  int level = -1;
  for (int l = 0; l < v->num_levels() && level < 0; l++) {
    for (const auto& f : v->files(l)) {
      if (f->number == updated.number) {
        level = l;
        break;
      }
    }
  }
  if (level < 0) {
    return Status::NotFound("file no longer live");
  }
  lsm::VersionEdit edit;
  edit.deleted_files.emplace_back(level, updated.number);
  edit.new_files.emplace_back(level, updated);
  Status s = versions_->LogAndApply(&edit);
  if (!s.ok()) {
    return s;
  }
  // Readers holding the old FileMetaRef keep working (the surviving
  // replica locations are unchanged); evict the cached reader so new
  // opens see the repaired placement.
  table_cache_->Evict(updated.number);
  return Status::OK();
}

std::string RangeEngine::DebugLookupState(const Slice& key) {
  char buf[256];
  uint64_t mid = 0, iseq = 0;
  if (!lookup_index_.Lookup(key, &mid, &iseq)) {
    return "no-index-entry";
  }
  MidTable::Entry entry;
  if (!mid_table_.Get(mid, &entry)) {
    snprintf(buf, sizeof(buf), "mid=%llu iseq=%llu midtable-missing",
             (unsigned long long)mid, (unsigned long long)iseq);
    return buf;
  }
  if (entry.is_file) {
    snprintf(buf, sizeof(buf), "mid=%llu iseq=%llu file=%llu l0=%d",
             (unsigned long long)mid, (unsigned long long)iseq,
             (unsigned long long)entry.file_number,
             FindL0File(entry.file_number) != nullptr);
    return buf;
  }
  LookupKey lkey(key, kMaxSequenceNumber);
  std::string v;
  Status s;
  SequenceNumber seq = 0;
  bool found = entry.memtable->Get(lkey, &v, &s, &seq);
  snprintf(buf, sizeof(buf),
           "mid=%llu iseq=%llu memtable found=%d seq=%llu val=%.12s "
           "drange=%d entries=%llu",
           (unsigned long long)mid, (unsigned long long)iseq, found,
           (unsigned long long)seq, v.c_str(), entry.memtable->drange_id(),
           (unsigned long long)entry.memtable->num_entries());
  return buf;
}

std::string RangeEngine::DebugFindNewest(const Slice& key) {
  LookupKey lkey(key, kMaxSequenceNumber);
  char buf[256];
  SequenceNumber best = 0;
  std::string where = "nowhere";
  std::vector<std::pair<uint64_t, MemTableRef>> mems;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [m, mem] : all_memtables_) {
      mems.emplace_back(m, mem);
    }
  }
  for (auto& [m, mem] : mems) {
    std::string v;
    Status s;
    SequenceNumber seq = 0;
    if (mem->Get(lkey, &v, &s, &seq) && seq > best) {
      best = seq;
      snprintf(buf, sizeof(buf), "memtable mid=%llu seq=%llu im=%d dr=%d",
               (unsigned long long)m, (unsigned long long)seq,
               mem->immutable(), mem->drange_id());
      where = buf;
    }
  }
  lsm::VersionRef version = versions_->current();
  for (int level = 0; level < version->num_levels(); level++) {
    for (const auto& f : version->files(level)) {
      lsm::TableCache::Handle handle;
      if (!table_cache_->GetReader(f, &handle).ok()) continue;
      std::string v;
      Status s;
      SequenceNumber seq = 0;
      if (handle.reader->Get(lkey, &v, &s, &seq) && seq > best) {
        best = seq;
        snprintf(buf, sizeof(buf), "L%d file=%llu seq=%llu", level,
                 (unsigned long long)f->number, (unsigned long long)seq);
        where = buf;
      }
    }
  }
  return where;
}

int RangeEngine::num_memtables() {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int>(all_memtables_.size());
}

}  // namespace ltc
}  // namespace nova
