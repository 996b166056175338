// The lookup index (paper Section 4.1.1, Challenge 2): key -> unique
// memtable id (mid), plus the indirect MIDToTable map from mid to either a
// live memtable or the Level-0 SSTable its contents were flushed into.
// A get that hits the index searches exactly one memtable or one L0
// SSTable instead of all of them.
//
// Index invariant: a slot (mid, seq) claims that key@seq, or a newer
// version, exists. Every write records its own seq through the seq-guarded
// Update, so slot.seq only grows and is at least the seq of every
// acknowledged write of the key. Slots are never erased: the claim is
// what stops an older version left in another memtable or L0 file from
// being returned. The slot's mid may stop resolving to the table that
// holds the claimed version: a memtable merge retires the mid, compaction
// moves the mid's L0 file into L1+, and recovery claims keys that live
// only in L1+ under a sentinel mid that never resolves.
//
// A point get's one consistency rule follows from it. The get reads the
// newest version present (no snapshot) and trusts the slot's table only
// if the version found there has seq >= slot.seq. Otherwise it falls back
// to a sweep that keeps the newest version across memtables and L0, and
// it consults the levels while that newest version is older than slot.seq.
#ifndef NOVA_LTC_LOOKUP_INDEX_H_
#define NOVA_LTC_LOOKUP_INDEX_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "mem/memtable.h"

namespace nova {
namespace ltc {

class LookupIndex {
 public:
  static constexpr int kShards = 16;

  /// Point key at mid. seq is the sequence number of the write; stale
  /// racers (lower seq) never overwrite a newer mapping.
  void Update(const Slice& key, uint64_t mid, uint64_t seq);
  /// The slot for key: its mid and the seq that table claims to hold.
  bool Lookup(const Slice& key, uint64_t* mid, uint64_t* seq) const;
  size_t size() const;
  /// Approximate memory footprint (paper reports 240 MB at its scale).
  size_t ApproximateBytes() const;

 private:
  struct Slot {
    uint64_t mid = 0;
    uint64_t seq = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, Slot> map;
  };
  Shard& shard(const Slice& key) const;

  mutable Shard shards_[kShards];
};

/// MIDToTable: mid -> memtable pointer or L0 SSTable file number. Flushing
/// a memtable atomically swaps its entry from the pointer to the file
/// number; compacting the L0 file into L1 erases the entry.
class MidTable {
 public:
  struct Entry {
    MemTableRef memtable;     // set while the data lives in a memtable
    uint64_t file_number = 0;  // set after the flush
    bool is_file = false;
  };

  void SetMemtable(uint64_t mid, MemTableRef mem);
  /// Atomic flush handoff: the mid now resolves to the L0 file.
  void SetFile(uint64_t mid, uint64_t file_number);
  bool Get(uint64_t mid, Entry* entry) const;
  void Erase(uint64_t mid);
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Entry> map_;
};

}  // namespace ltc
}  // namespace nova

#endif  // NOVA_LTC_LOOKUP_INDEX_H_
