// Shared definitions for the Storage Component (StoC) protocol: globally
// unique file ids, block handles, and the request opcodes that ride on the
// RDMA RPC layer.
//
// File ids encode their provenance ("Each file name maintains its range id
// and SSTable file number", paper Section 9) so a restarting StoC can ask
// the owning LTC whether a file is still referenced:
//   [16 bits range id][32 bits number][8 bits kind][8 bits fragment index]
#ifndef NOVA_STOC_STOC_COMMON_H_
#define NOVA_STOC_STOC_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/coding.h"
#include "util/slice.h"
#include "util/status.h"

namespace nova {
namespace stoc {

enum class FileKind : uint8_t {
  kData = 1,      // one SSTable data fragment
  kMeta = 2,      // SSTable metadata block (index + bloom), replicated
  kParity = 3,    // parity block over the data fragments
  kLog = 4,       // LogC log file
  kManifest = 5,  // per-range MANIFEST
};

inline uint64_t MakeFileId(uint32_t range_id, uint32_t number, FileKind kind,
                           uint8_t fragment) {
  return (static_cast<uint64_t>(range_id & 0xffff) << 48) |
         (static_cast<uint64_t>(number) << 16) |
         (static_cast<uint64_t>(kind) << 8) | fragment;
}

inline uint32_t FileIdRange(uint64_t file_id) {
  return static_cast<uint32_t>(file_id >> 48);
}
inline uint32_t FileIdNumber(uint64_t file_id) {
  return static_cast<uint32_t>((file_id >> 16) & 0xffffffff);
}
inline FileKind FileIdKind(uint64_t file_id) {
  return static_cast<FileKind>((file_id >> 8) & 0xff);
}
inline uint8_t FileIdFragment(uint64_t file_id) {
  return static_cast<uint8_t>(file_id & 0xff);
}

/// One replica of a persistent block: the StoC holding it and its file.
struct BlockLocation {
  int32_t stoc_id = -1;
  uint64_t file_id = 0;

  bool valid() const { return stoc_id >= 0; }
};

/// Location of one block inside a persistent StoC file.
struct StocBlockHandle {
  int32_t stoc_id = -1;
  uint64_t file_id = 0;
  uint64_t offset = 0;
  uint64_t size = 0;

  void EncodeTo(std::string* dst) const {
    PutVarint32(dst, static_cast<uint32_t>(stoc_id));
    PutVarint64(dst, file_id);
    PutVarint64(dst, offset);
    PutVarint64(dst, size);
  }
  bool DecodeFrom(Slice* input) {
    uint32_t sid;
    if (!GetVarint32(input, &sid) || !GetVarint64(input, &file_id) ||
        !GetVarint64(input, &offset) || !GetVarint64(input, &size)) {
      return false;
    }
    stoc_id = static_cast<int32_t>(sid);
    return true;
  }
};

/// One registered memory region of an in-memory StoC file.
struct InMemRegion {
  uint32_t mr_id = 0;
  uint64_t size = 0;
};

/// Client-side handle for an in-memory StoC file (paper Section 6.1: a set
/// of contiguous memory regions written with one-sided RDMA WRITE).
struct InMemFileHandle {
  int32_t stoc_id = -1;
  uint64_t file_id = 0;
  std::vector<InMemRegion> regions;
};

enum StocOp : uint8_t {
  kOpOpenInMemFile = 1,
  kOpExtendInMemFile = 2,
  kOpDeleteFile = 3,
  kOpAllocBlock = 4,
  kOpReadBlock = 5,
  kOpStats = 6,
  kOpQueryLogFiles = 7,
  kOpCompaction = 8,
  kOpListFiles = 9,
  kOpCopyFileTo = 10,
  /// Append to an in-memory file through the server's CPU instead of a
  /// one-sided write — the paper's NIC-path replication (Section 8.2.3).
  kOpNicAppend = 11,
};

/// Response status convention: u8 1=ok followed by payload, or 0 followed
/// by an error message.
inline std::string OkResponse(const Slice& payload = Slice()) {
  std::string r;
  r.push_back(1);
  r.append(payload.data(), payload.size());
  return r;
}
inline std::string ErrorResponse(const Status& s) {
  std::string r;
  r.push_back(0);
  std::string msg = s.ToString();
  r.append(msg);
  return r;
}
inline Status ParseResponse(const Slice& resp, Slice* payload) {
  if (resp.empty()) {
    return Status::IOError("empty stoc response");
  }
  if (resp[0] == 1) {
    *payload = Slice(resp.data() + 1, resp.size() - 1);
    return Status::OK();
  }
  return Status::IOError(Slice(resp.data() + 1, resp.size() - 1));
}

}  // namespace stoc
}  // namespace nova

#endif  // NOVA_STOC_STOC_COMMON_H_
