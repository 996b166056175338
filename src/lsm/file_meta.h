// FileMetaData: everything an LTC must know about one SSTable — key range,
// level bookkeeping, and the *placement* of its pieces across StoCs:
// data fragments (each possibly replicated R times), replicated metadata
// blocks, and an optional parity block (paper Sections 4.4-4.5). This is
// what the MANIFEST persists.
#ifndef NOVA_LSM_FILE_META_H_
#define NOVA_LSM_FILE_META_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/dbformat.h"
#include "stoc/stoc_common.h"
#include "util/slice.h"
#include "util/status.h"

namespace nova {
namespace lsm {

/// One stored copy of a fragment / metadata / parity block.
using BlockLocation = stoc::BlockLocation;

struct FileMetaData {
  uint64_t number = 0;
  uint64_t data_size = 0;  // total data bytes across fragments
  InternalKey smallest;
  InternalKey largest;
  /// Drange that produced this L0 SSTable (-1 for compaction outputs).
  int32_t drange_id = -1;
  uint32_t generation = 0;

  /// fragments[i] lists the R replica locations of data fragment i.
  std::vector<std::vector<BlockLocation>> fragments;
  std::vector<uint64_t> fragment_sizes;
  /// Replicated metadata block (index + bloom), small (Section 3.1).
  std::vector<BlockLocation> meta_replicas;
  /// Parity over the data fragments (Hybrid availability); invalid if off.
  BlockLocation parity;

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);
};

using FileMetaRef = std::shared_ptr<FileMetaData>;

}  // namespace lsm
}  // namespace nova

#endif  // NOVA_LSM_FILE_META_H_
