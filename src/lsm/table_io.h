// SSTable I/O over StoCs:
//  * StocBlockFetcher — reads a fragment range, failing over across
//    replicas and, when all replicas of a fragment are down, rebuilding
//    the fragment from the other fragments + the parity block (the paper's
//    Hybrid availability, Sections 3.1/4.4.1).
//  * TableCache — LTC-side cache of SSTableMetadata (index + bloom) and
//    open readers, keyed by file number (Section 4.1.1: "LTC caches them
//    in its memory"). Readers live in a sharded, charge-bounded LRU
//    (util/cache.h) — optionally the same instance that caches data
//    blocks — so concurrent gets on different files do not serialize on
//    one mutex and open readers are evicted under memory pressure instead
//    of accumulating forever.
//  * SSTablePlacer — decides ρ from the SSTable's size, picks StoCs by
//    random or power-of-d on disk-queue length, writes the ρ fragments in
//    parallel with R replicas each, an optional parity block, and
//    replicated metadata blocks (Section 4.4, Figure 9/10).
#ifndef NOVA_LSM_TABLE_IO_H_
#define NOVA_LSM_TABLE_IO_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "lsm/file_meta.h"
#include "sstable/sstable_builder.h"
#include "sstable/sstable_reader.h"
#include "stoc/stoc_client.h"
#include "util/cache.h"
#include "util/random.h"

namespace nova {
namespace lsm {

class StocBlockFetcher : public BlockFetcher {
 public:
  StocBlockFetcher(stoc::StocClient* client, FileMetaRef meta)
      : client_(client), meta_(std::move(meta)) {}

  Status Fetch(int fragment, uint64_t offset, uint64_t size,
               std::string* out) override;

  /// Async fetch for scan readahead: issues the same StocClient::Read as
  /// Fetch (replica choice, failover and hedging included). A failed read
  /// surfaces from Pending::Wait; callers retry through Fetch, which adds
  /// parity reconstruction.
  std::unique_ptr<Pending> StartFetch(int fragment, uint64_t offset,
                                      uint64_t size) override;

  /// Number of reads that had to be served by parity reconstruction.
  uint64_t degraded_reads() const { return degraded_reads_; }

 private:
  stoc::StocClient* client_;
  FileMetaRef meta_;
  std::atomic<uint64_t> degraded_reads_{0};
};

/// XOR `data` into the first bytes of *acc (parity is the XOR of all
/// fragments, each zero-padded to the longest).
void XorInto(std::string* acc, const Slice& data);

/// Rebuild fragment `fragment` of `meta` from its parity block and every
/// other fragment, read as one batch under one deadline (the paper's
/// Hybrid availability, Sections 3.1/4.4.1). Fails when the parity block
/// or a second fragment is lost too.
Status ReconstructFromParity(stoc::StocClient* client,
                             const FileMetaData& meta, int fragment,
                             std::string* out);

class TableCache {
 public:
  /// Capacity of the private reader cache created when no shared cache is
  /// given (readers are small: metadata only).
  static constexpr size_t kDefaultReaderCacheBytes = 64 << 20;

  /// cache (optional): the sharded LRU backing the reader entries — at an
  /// LTC, the node-wide block cache, so readers and data blocks share one
  /// charge budget. When null, a private reader-only cache is created.
  /// cache_data_blocks: opened readers also consult `cache` for data
  /// blocks in ReadBlock (the StoC read-path block cache).
  /// readahead_blocks/readahead: scan-readahead depth and counter sink
  /// handed to every reader this cache opens (see SSTableReader).
  /// compressed_cache (optional): the compressed block tier handed to
  /// every reader (see SSTableReader); invalidation sweeps it alongside
  /// the hot tier.
  explicit TableCache(stoc::StocClient* client, Cache* cache = nullptr,
                      uint32_t range_id = 0, bool cache_data_blocks = false,
                      int readahead_blocks = 0,
                      ReadaheadCounters* readahead = nullptr,
                      Cache* compressed_cache = nullptr);
  ~TableCache();

  /// A pinned reader: keeps the underlying reader (and its fetcher) alive
  /// even if the entry is evicted concurrently (e.g., by a compaction
  /// finishing while a scan is mid-flight).
  struct Handle {
    std::shared_ptr<void> pin;
    SSTableReader* reader = nullptr;
  };

  /// Returns a cached (or freshly opened) pinned reader for the file.
  Status GetReader(const FileMetaRef& meta, Handle* handle);

  /// Drop the file's reader and every cached data block of the file
  /// (compaction apply / file deletion invalidate through this).
  void Evict(uint64_t number);
  /// Same for many files in one cache sweep (a compaction retires all of
  /// its inputs at once; per-file sweeps of a large cache add up).
  void EvictBatch(const std::vector<uint64_t>& numbers);
  /// Resident (not yet reclaimed) reader entries opened by this cache.
  size_t size() const;

  Cache* cache() { return cache_; }

 private:
  struct Entry;
  static void DeleteEntry(const Slice& key, void* value);

  stoc::StocClient* client_;
  std::shared_ptr<std::atomic<size_t>> live_readers_;
  std::unique_ptr<Cache> owned_cache_;
  Cache* cache_;
  Cache* compressed_cache_;
  uint32_t range_id_;
  bool cache_data_blocks_;
  int readahead_blocks_;
  ReadaheadCounters* readahead_;
};

struct PlacementOptions {
  /// Candidate StoCs; mutated by elasticity (add/remove StoC).
  std::vector<rdma::NodeId> stocs;
  /// Maximum scatter width ρ.
  int rho = 1;
  /// Use power-of-d (d = 2ρ) on disk queue length; otherwise random.
  bool power_of_d = true;
  /// Replication degree R for data fragments (1 = no replication).
  int num_data_replicas = 1;
  /// Metadata block replicas (Hybrid uses 3; small blocks).
  int num_meta_replicas = 1;
  /// Construct one parity block over the data fragments (Hybrid).
  bool use_parity = false;
  /// Shrink ρ for small SSTables (paper: a SSTable with few unique keys
  /// after compaction is partitioned across fewer StoCs).
  bool adjust_rho_by_size = true;
  uint64_t max_sstable_size = 512 << 10;
  uint32_t range_id = 0;
};

class SSTablePlacer;

/// An SSTable whose scatter writes are in flight. StartWrite ran phases
/// 1-2 of the Figure-10 flow for every fragment/parity/metadata block
/// (buffer-grant RPC + one-sided data write); Wait drains the flush
/// acknowledgments and fills in the block locations. The compaction
/// executor keeps a small bound of these armed so the merge loop never
/// blocks on a StoC flush. Dropping an unwaited one abandons its appends
/// safely (each PendingAppend reaps its completion token).
class PendingSSTable {
 public:
  PendingSSTable();
  ~PendingSSTable();
  PendingSSTable(PendingSSTable&&) noexcept;
  PendingSSTable& operator=(PendingSSTable&&) noexcept;

  bool valid() const { return state_ != nullptr; }
  /// Collect every flush acknowledgment under one deadline and fill
  /// *out. Call at most once; the pending state is consumed.
  Status Wait(FileMetaData* out,
              const util::Deadline& deadline = rdma::RpcDeadline());

 private:
  friend class SSTablePlacer;
  struct State;
  std::unique_ptr<State> state_;
};

class SSTablePlacer {
 public:
  /// options are read under a lock on each write, so elasticity can mutate
  /// them (via UpdateStocs) while the system runs.
  SSTablePlacer(stoc::StocClient* client, const PlacementOptions& options);

  Status Write(SSTableBuilder::Result&& built, int drange_id,
               uint32_t generation, FileMetaData* out);

  /// Async half of Write: pick placements, issue and arm every append,
  /// and hand back the in-flight SSTable without waiting for flush acks.
  /// StartWrite + PendingSSTable::Wait == Write.
  Status StartWrite(SSTableBuilder::Result&& built, int drange_id,
                    uint32_t generation, PendingSSTable* pending);

  void UpdateStocs(const std::vector<rdma::NodeId>& stocs);
  PlacementOptions options() const;
  void set_options(const PlacementOptions& options);

  /// Pick `count` distinct StoCs for writes of `bytes_each` using the
  /// configured policy (exposed for tests and Table 5).
  std::vector<rdma::NodeId> PickStocs(int count);

 private:
  stoc::StocClient* client_;
  mutable std::mutex mu_;
  PlacementOptions options_;
  Random rng_{0x9d1ace};
};

}  // namespace lsm
}  // namespace nova

#endif  // NOVA_LSM_TABLE_IO_H_
