// RangeEngine: one application range's LSM-tree at an LTC (paper
// Section 4). It ties together every Nova-LSM mechanism:
//   * θ Dranges, each with an active memtable; minor/major reorganizations
//     rotate affected actives and bump the generation id;
//   * the lookup index (key -> memtable | L0 SSTable via MIDToTable) and
//     the range index (keyspace partitions -> overlapping tables);
//   * flushing with the small-memtable merge policy (< ~100 unique keys
//     are re-logged into a fresh memtable instead of hitting disk);
//   * write stalls when all δ memtables are in use or L0 exceeds its
//     limit (Challenge 1), with stall time accounted for the benchmarks;
//   * disjoint parallel L0 compactions split at Drange boundaries,
//     executed locally or offloaded to StoCs round-robin;
//   * crash recovery from the replicated MANIFEST + log records, and
//     range migration between LTCs (Sections 4.5, 8.2.6, 9).
//
// Thread model: client worker threads call Put/Get/Scan/Delete; the
// owning LtcServer drives MaintenanceTick() from its maintenance thread
// and provides shared flush/compaction pools.
#ifndef NOVA_LTC_RANGE_ENGINE_H_
#define NOVA_LTC_RANGE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "logc/log_client.h"
#include "lsm/compaction.h"
#include "lsm/table_io.h"
#include "ltc/compaction_scheduler.h"
#include "lsm/version.h"
#include "ltc/drange.h"
#include "ltc/lookup_index.h"
#include "ltc/range_index.h"
#include "mem/memtable.h"
#include "sim/cpu_throttle.h"
#include "util/compressor.h"
#include "util/thread_pool.h"

namespace nova {
namespace ltc {

struct RangeEngineOptions {
  uint32_t range_id = 0;
  std::string lower;
  std::string upper;  // empty = unbounded

  DrangeOptions drange;
  /// false => the paper's Nova-LSM-R ablation: writes pick a random
  /// active memtable, L0 SSTables span the whole keyspace.
  bool enable_dranges = true;
  bool enable_lookup_index = true;
  bool enable_range_index = true;
  /// Merge immutable memtables with < unique_key_threshold unique keys
  /// instead of flushing them (Section 4.2; off in Nova-LSM-R/S).
  bool enable_memtable_merge = true;
  int unique_key_threshold = 100;

  size_t memtable_size = 256 << 10;  // τ
  int max_memtables = 32;            // δ
  /// Active memtables when Dranges are disabled (Nova-R); with Dranges,
  /// the number of Dranges (θ, plus duplicates) governs actives.
  int num_active_memtables = 8;  // α

  lsm::LsmOptions lsm;
  logc::LogOptions log;
  /// Codec data blocks are written with (a CompressionCodec id);
  /// kNoCompression stores raw blocks (still trailer-checksummed).
  CompressionCodec compression_codec = kNovaLzCompression;
  uint64_t max_sstable_size = 512 << 10;
  int max_parallel_compactions = 4;
  /// Compaction input-gather pipeline depth: data blocks each input
  /// stream keeps in flight while the merge drains the current one
  /// (travels with offloaded jobs). 0 = serial.
  int compaction_readahead_blocks = 0;
  /// Offload compaction jobs to StoCs (Section 4.3); the scheduler picks
  /// the least-loaded StoC and falls back to local execution.
  bool offload_compaction = false;
  /// Replicas of the MANIFEST file.
  int manifest_replicas = 1;
};

struct RangeStats {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t scans = 0;
  uint64_t stall_us = 0;
  uint64_t stall_events = 0;
  uint64_t flushes = 0;
  uint64_t memtable_merges = 0;
  uint64_t compactions = 0;
  uint64_t bytes_flushed = 0;
  uint64_t lookup_index_hits = 0;
  uint64_t lookup_index_misses = 0;
  /// Data-block cache counters. The cache belongs to the LTC and is shared
  /// by its ranges, so per-range numbers stay zero and
  /// LtcServer::TotalStats() reports the node cache once.
  uint64_t block_cache_hits = 0;
  uint64_t block_cache_misses = 0;
  uint64_t block_cache_bytes = 0;
  /// Compressed-tier counters (same ownership rule as the hot tier).
  uint64_t block_cache_compressed_hits = 0;
  uint64_t block_cache_compressed_misses = 0;
  uint64_t block_cache_compressed_bytes = 0;
  /// Compression accounting: stored (possibly compressed) vs raw bytes of
  /// every SSTable this range built (flushes + compactions, including
  /// offloaded ones). raw/stored = the achieved compression ratio.
  uint64_t sstable_stored_bytes = 0;
  uint64_t sstable_raw_bytes = 0;
  /// StoC wire traffic (StocClient byte counters; shared-client rule as
  /// pod_reads — filled once by LtcServer::TotalStats).
  uint64_t bytes_over_wire = 0;
  /// Scan-readahead counters: prefetches issued and prefetches that
  /// served a block the scan then consumed.
  uint64_t readahead_issued = 0;
  uint64_t readahead_hits = 0;
  /// Compaction pipeline accounting (includes offloaded jobs, which
  /// report their numbers back in the CompactionResult): prefetch waves
  /// issued by input gathers, input/output bytes moved, and total time
  /// jobs spent queued between scheduling and execution start.
  uint64_t compaction_gather_waves = 0;
  uint64_t compaction_bytes_read = 0;
  uint64_t compaction_bytes_written = 0;
  uint64_t compaction_queue_us = 0;
  /// Scheduler outcomes: jobs completed on a StoC, offload attempts that
  /// failed, and failed offloads retried (successfully or not) locally.
  uint64_t compaction_offloads = 0;
  uint64_t compaction_offload_failures = 0;
  uint64_t compaction_local_fallbacks = 0;
  /// Read-path replica selection (StocClient counters). Like the shared
  /// block cache, the client is usually shared across an LTC's ranges:
  /// per-range numbers stay zero and LtcServer::TotalStats() reports the
  /// shared client once.
  uint64_t pod_reads = 0;
  uint64_t hedged_issued = 0;
  uint64_t hedged_won = 0;
  /// Repair accounting (ISSUE 9; filled by ltc::RepairManager through
  /// LtcServer::TotalStats — per-range numbers stay zero).
  /// degraded_fragments is a gauge: fragment/parity/meta replicas whose
  /// StoC is currently dead and which have not been re-replicated yet.
  uint64_t degraded_fragments = 0;
  uint64_t repaired_fragments = 0;
  uint64_t repaired_bytes = 0;
  /// Wall time from a death verdict to the scan that found the node's
  /// files fully re-replicated (the measured repair window).
  uint64_t repair_us = 0;

  /// The single roll-up used by LtcServer and Cluster TotalStats — new
  /// fields only need to be added here.
  RangeStats& operator+=(const RangeStats& o) {
    puts += o.puts;
    gets += o.gets;
    scans += o.scans;
    stall_us += o.stall_us;
    stall_events += o.stall_events;
    flushes += o.flushes;
    memtable_merges += o.memtable_merges;
    compactions += o.compactions;
    bytes_flushed += o.bytes_flushed;
    lookup_index_hits += o.lookup_index_hits;
    lookup_index_misses += o.lookup_index_misses;
    block_cache_hits += o.block_cache_hits;
    block_cache_misses += o.block_cache_misses;
    block_cache_bytes += o.block_cache_bytes;
    block_cache_compressed_hits += o.block_cache_compressed_hits;
    block_cache_compressed_misses += o.block_cache_compressed_misses;
    block_cache_compressed_bytes += o.block_cache_compressed_bytes;
    sstable_stored_bytes += o.sstable_stored_bytes;
    sstable_raw_bytes += o.sstable_raw_bytes;
    bytes_over_wire += o.bytes_over_wire;
    readahead_issued += o.readahead_issued;
    readahead_hits += o.readahead_hits;
    compaction_gather_waves += o.compaction_gather_waves;
    compaction_bytes_read += o.compaction_bytes_read;
    compaction_bytes_written += o.compaction_bytes_written;
    compaction_queue_us += o.compaction_queue_us;
    compaction_offloads += o.compaction_offloads;
    compaction_offload_failures += o.compaction_offload_failures;
    compaction_local_fallbacks += o.compaction_local_fallbacks;
    pod_reads += o.pod_reads;
    hedged_issued += o.hedged_issued;
    hedged_won += o.hedged_won;
    degraded_fragments += o.degraded_fragments;
    repaired_fragments += o.repaired_fragments;
    repaired_bytes += o.repaired_bytes;
    repair_us += o.repair_us;
    return *this;
  }
};

class RangeEngine {
 public:
  /// stocs: the StoCs this range may use (log files, manifest, SSTables —
  /// the placer's list governs SSTable placement and may differ).
  /// The throttle, pools, caches and scan readahead depth belong to the
  /// hosting LtcServer and are shared by every range on it:
  /// block_cache / compressed_cache are the node's hot and compressed
  /// block tiers (null = tier off); readahead_blocks is how many data
  /// blocks a scan keeps in flight past its position (0 = off).
  RangeEngine(const RangeEngineOptions& options, stoc::StocClient* client,
              const std::vector<rdma::NodeId>& stocs,
              sim::CpuThrottle* throttle, ThreadPool* flush_pool,
              ThreadPool* compaction_pool, Cache* block_cache,
              Cache* compressed_cache, int readahead_blocks);
  ~RangeEngine();

  RangeEngine(const RangeEngine&) = delete;
  RangeEngine& operator=(const RangeEngine&) = delete;

  /// Create the active memtable(s) missing after construction, recovery
  /// or migration (LtcServer::PublishRange calls it).
  void Bootstrap();

  Status Put(const Slice& key, const Slice& value);
  Status Delete(const Slice& key);
  Status Get(const Slice& key, std::string* value);
  /// Appends records from start_key onward until *out holds num_records
  /// entries in total (so continuation across ranges composes) or this
  /// range's keyspace is exhausted.
  Status Scan(const Slice& start_key, int num_records,
              std::vector<std::pair<std::string, std::string>>* out);

  /// Drive reorganizations, flush dispatch, and compaction scheduling.
  /// Non-blocking; called periodically by the LtcServer.
  void MaintenanceTick();

  /// Block until no flushes or compactions are in flight and nothing is
  /// queued (tests / orderly shutdown).
  void WaitForQuiescence(bool flush_all = false);

  /// Force every active memtable to rotate and flush (used by tests and
  /// graceful migration).
  void FlushAllMemtables();

  /// Stop accepting writes (reads keep working); used by migration so the
  /// extracted state cannot be invalidated by concurrent puts.
  void BeginDecommission();

  // --- Recovery & migration (Sections 4.5, 8.2.6) ---

  /// Serialize everything a destination LTC needs: version snapshot,
  /// Drange state, last sequence. Log records stay on the StoCs.
  std::string ExtractMigrationState();
  /// Install migrated metadata and rebuild memtables from log records
  /// using `recovery_threads` parallel workers.
  Status InstallFromMigrationState(const Slice& state, int recovery_threads);
  /// Full crash recovery: manifest replay + log replay.
  Status RecoverFromManifest(int recovery_threads);
  /// Test hook: runs on the replaying thread after each log memtable is
  /// rebuilt (tests interleave memtable work with recovery through it).
  void set_replay_hook(std::function<void(uint64_t mid)> hook) {
    replay_hook_ = std::move(hook);
  }

  RangeStats stats() const;
  DrangeManager* dranges() { return drange_.get(); }
  lsm::VersionSet* versions() { return versions_.get(); }
  lsm::TableCache* table_cache() { return table_cache_.get(); }
  /// True if the current version references this SSTable number.
  bool IsFileNumberLive(uint64_t number);
  /// Atomically replace the placement metadata of a live SSTable (same
  /// file number, same key range — only BlockLocations change). Used by
  /// the repair manager after re-replicating fragments away from a dead
  /// StoC. Returns Busy if the file is being compacted (the caller
  /// retries on its next scan: the compaction either keeps the file,
  /// making the swap valid later, or retires it, making repair moot) and
  /// NotFound if the file is no longer live.
  Status SwapFileMeta(const lsm::FileMetaData& updated);
  LookupIndex* lookup_index() { return &lookup_index_; }
  RangeIndex* range_index() { return range_index_.get(); }
  lsm::SSTablePlacer* placer() { return placer_.get(); }
  CompactionScheduler* compaction_scheduler() { return scheduler_.get(); }
  const RangeEngineOptions& options() const { return options_; }
  int num_memtables();
  uint64_t l0_bytes() const { return l0_bytes_.load(); }
  /// For fault-injection tests: how many gets were served degraded.
  uint64_t degraded_gets() const { return degraded_gets_.load(); }

  /// Diagnostic: where does the lookup index say `key` lives, and what is
  /// the newest sequence actually present there (tests/debugging).
  std::string DebugLookupState(const Slice& key);
  /// Diagnostic: one-line snapshot of the background machinery (flush
  /// queue, in-flight work, memtable census) for stuck-state triage.
  std::string DebugMaintenanceState();
  /// Diagnostic: exhaustively locate the newest version of key.
  std::string DebugFindNewest(const Slice& key);

 private:
  struct DrangeMem {
    MemTableRef active;
  };

  MemTableRef NewMemTableLocked(int drange_id);
  /// Route a put; handles stalls and rotation. Returns the memtable.
  Status RouteAndAppend(SequenceNumber seq, ValueType type, const Slice& key,
                        const Slice& value);
  void RotateLocked(int drange_id, std::unique_lock<std::mutex>* lk);
  void FlushTask(MemTableRef mem);
  Status FlushToSSTable(const std::vector<MemTableRef>& mems, int drange_id,
                        uint32_t generation);
  /// Merge small memtables into a fresh one (re-logging its records).
  Status MergeSmallMemtables(const std::vector<MemTableRef>& mems,
                             int drange_id);
  void ScheduleCompactions();
  /// queue_us: time the job waited between scheduling and pool pickup.
  void RunCompaction(lsm::CompactionJob job, uint64_t queue_us);
  void ApplyCompactionResult(const lsm::CompactionJob& job,
                             const lsm::CompactionResult& result);
  void DeleteFileBlocks(const lsm::FileMetaData& meta);
  Status ManifestAppend(const Slice& record);
  Status ReadManifestRecords(std::vector<std::string>* records);
  lsm::FileMetaRef FindL0File(uint64_t number);
  static lsm::FileMetaRef FindL0FileIn(const lsm::VersionRef& version,
                                       uint64_t number);
  Status RebuildFromLogs(int recovery_threads);
  void HandleReorg();

  RangeEngineOptions options_;
  stoc::StocClient* client_;
  std::vector<rdma::NodeId> stocs_;
  sim::CpuThrottle* throttle_;
  ThreadPool* flush_pool_;
  ThreadPool* compaction_pool_;

  InternalKeyComparator icmp_;
  std::unique_ptr<DrangeManager> drange_;
  std::unique_ptr<lsm::VersionSet> versions_;
  /// The registered codec for options_.compression_codec (null = raw).
  const Compressor* compressor_;
  std::unique_ptr<lsm::TableCache> table_cache_;
  std::unique_ptr<lsm::SSTablePlacer> placer_;
  std::unique_ptr<lsm::CompactionExecutor> executor_;
  std::unique_ptr<logc::LogClient> logc_;
  LookupIndex lookup_index_;
  MidTable mid_table_;
  std::unique_ptr<RangeIndex> range_index_;

  std::function<void(uint64_t)> replay_hook_;
  std::atomic<uint64_t> last_sequence_{0};
  std::atomic<uint64_t> next_mid_{1};
  std::atomic<uint64_t> l0_bytes_{0};

  // Memtable lifecycle. mu_ guards the maps below and rotation; individual
  // memtable writes use the memtable's own lock.
  std::mutex mu_;
  std::condition_variable stall_cv_;
  std::map<int, DrangeMem> actives_;              // by drange id
  /// Span each memtable is registered under in the range index; a put
  /// landing outside it (drange boundary moved between routing and
  /// rotation) expands the registration so scans never miss the key.
  std::map<uint64_t, std::pair<std::string, std::string>> mem_spans_;
  std::map<uint64_t, MemTableRef> all_memtables_;  // by mid
  std::vector<MemTableRef> flush_queue_;
  std::map<int, std::vector<uint64_t>> small_immutables_;  // drange -> mids
  int flushes_inflight_ = 0;

  // Compaction bookkeeping.
  std::mutex compaction_mu_;
  std::set<uint64_t> compacting_files_;
  /// Key-range hulls of in-flight compactions; a new job overlapping any
  /// hull is deferred so concurrent jobs cannot emit overlapping files
  /// into the same level (reorgs shift Drange boundaries over time, so
  /// L0 groups from different epochs may overlap).
  std::vector<std::pair<std::string, std::string>> inflight_hulls_;
  int compactions_inflight_ = 0;
  std::unique_ptr<CompactionScheduler> scheduler_;
  /// L0 file number -> the mids flushed into it (for index upkeep when the
  /// file is compacted away).
  std::map<uint64_t, std::vector<uint64_t>> file_to_mids_;
  /// Generation for actives created after a reorganization.
  uint32_t generation_hint_ = 0;

  mutable std::mutex stats_mu_;
  RangeStats stats_;
  ReadaheadCounters readahead_counters_;
  std::atomic<uint64_t> degraded_gets_{0};
  std::atomic<bool> stopping_{false};
  /// Writers currently inside RouteAndAppend. A decommission must drain
  /// these before the range is handed off (see WaitForQuiescence): their
  /// log appends may still be landing at the StoCs, and a record arriving
  /// after the destination replayed the log files would be acknowledged
  /// here yet invisible there.
  std::atomic<int> foreground_writes_{0};
};

}  // namespace ltc
}  // namespace nova

#endif  // NOVA_LTC_RANGE_ENGINE_H_
