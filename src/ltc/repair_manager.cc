#include "ltc/repair_manager.h"

#include <algorithm>
#include <chrono>

#include "lsm/table_io.h"
#include "stoc/stoc_common.h"
#include "util/logging.h"

namespace nova {
namespace ltc {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedUs(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               start)
      .count();
}

bool IsDead(const std::vector<rdma::NodeId>& dead, int32_t stoc) {
  return std::find(dead.begin(), dead.end(), stoc) != dead.end();
}

/// Lost pieces a file has on the given dead StoCs (the cheap
/// metadata-only pass that publishes the degraded gauge before any
/// repair I/O starts).
int CountDegraded(const lsm::FileMetaData& meta,
                  const std::vector<rdma::NodeId>& dead) {
  int n = 0;
  for (const auto& replicas : meta.fragments) {
    for (const auto& loc : replicas) {
      if (IsDead(dead, loc.stoc_id)) n++;
    }
  }
  for (const auto& loc : meta.meta_replicas) {
    if (IsDead(dead, loc.stoc_id)) n++;
  }
  if (meta.parity.valid() && IsDead(dead, meta.parity.stoc_id)) n++;
  return n;
}

}  // namespace

RepairManager::RepairManager(
    stoc::StocClient* client,
    std::function<std::vector<RangeEngine*>()> engines,
    const RepairOptions& options)
    : client_(client),
      engines_(std::move(engines)),
      options_(options),
      budget_refilled_(Clock::now()) {}

RepairManager::~RepairManager() { Stop(); }

void RepairManager::Start() {
  if (!options_.enabled || running_.exchange(true)) {
    return;
  }
  thread_ = std::thread([this] { Loop(); });
}

void RepairManager::Stop() {
  running_.store(false);
  if (thread_.joinable()) {
    thread_.join();
  }
}

void RepairManager::Loop() {
  while (running_.load(std::memory_order_relaxed)) {
    ScanOnce();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.scan_interval_ms));
  }
}

RepairStats RepairManager::stats() const {
  RepairStats out;
  // Acquire pairs with PublishDegraded's release store: the counters
  // below are at least as new as the gauge.
  out.degraded_fragments = degraded_fragments_.load(std::memory_order_acquire);
  out.repaired_fragments = repaired_fragments_.load(std::memory_order_relaxed);
  out.repaired_bytes = repaired_bytes_.load(std::memory_order_relaxed);
  out.repair_us = repair_us_.load(std::memory_order_relaxed);
  return out;
}

void RepairManager::PublishDegraded(uint64_t degraded) {
  // Close the window before the gauge reads zero: a poller that sees no
  // degraded fragments must also see the repair time.
  if (degraded == 0 && window_open_) {
    repair_us_.fetch_add(ElapsedUs(window_start_), std::memory_order_relaxed);
    window_open_ = false;
  }
  degraded_fragments_.store(degraded, std::memory_order_release);
}

void RepairManager::ScanOnce() {
  coord::Membership* membership = client_->membership();
  if (membership == nullptr) {
    return;
  }
  std::vector<rdma::NodeId> dead = membership->DeadNodes();
  if (dead.empty()) {
    PublishDegraded(0);
    return;
  }
  std::vector<RangeEngine*> engines = engines_();

  // Pass 1 (metadata only): publish the degraded gauge before repair I/O
  // starts, so pollers observe the peak even when repair is fast.
  uint64_t found = 0;
  for (RangeEngine* engine : engines) {
    lsm::VersionRef v = engine->versions()->current();
    for (int level = 0; level < v->num_levels(); level++) {
      for (const auto& f : v->files(level)) {
        found += CountDegraded(*f, dead);
      }
    }
  }
  if (found > 0 && !window_open_) {
    window_open_ = true;
    window_start_ = Clock::now();
  }
  PublishDegraded(found);
  if (found == 0) {
    return;
  }

  // Pass 2: repair file by file. Each file's pieces are rebuilt from
  // survivors and the new placement swapped in atomically; a file that
  // cannot be repaired yet (compaction claim, no healthy target, budget
  // withdrawn mid-scan) simply stays degraded until the next scan.
  uint64_t remaining = found;
  for (RangeEngine* engine : engines) {
    lsm::VersionRef v = engine->versions()->current();
    for (int level = 0; level < v->num_levels(); level++) {
      for (const auto& f : v->files(level)) {
        if (CountDegraded(*f, dead) == 0) {
          continue;
        }
        FileRepairOutcome outcome = RepairFile(engine, f, dead);
        remaining -= std::min<uint64_t>(remaining, outcome.repaired);
        PublishDegraded(remaining);
        if (!running_.load(std::memory_order_relaxed) &&
            thread_.joinable()) {
          return;  // Stop() requested mid-scan
        }
      }
    }
  }
}

Status RepairManager::FetchFragment(const lsm::FileMetaData& meta,
                                    int fragment, std::string* out) {
  // Surviving replicas first (cheap path)...
  std::vector<lsm::BlockLocation> survivors;
  for (const lsm::BlockLocation& loc : meta.fragments[fragment]) {
    if (client_->IsRoutable(loc.stoc_id)) {
      survivors.push_back(loc);
    }
  }
  if (!survivors.empty() &&
      client_->Read(survivors, 0, meta.fragment_sizes[fragment])
          .Wait(out)
          .ok()) {
    return Status::OK();
  }
  // ... else rebuild from parity + the other fragments.
  return lsm::ReconstructFromParity(client_, meta, fragment, out);
}

rdma::NodeId RepairManager::PickTarget(
    const std::vector<rdma::NodeId>& candidates,
    const std::vector<rdma::NodeId>& exclude) {
  if (candidates.empty()) {
    return -1;
  }
  // Rotate the starting point so repair load spreads across the healthy
  // StoCs instead of piling onto the first one.
  size_t start = rr_seed_++ % candidates.size();
  for (size_t i = 0; i < candidates.size(); i++) {
    rdma::NodeId n = candidates[(start + i) % candidates.size()];
    if (!client_->IsRoutable(n)) {
      continue;
    }
    if (std::find(exclude.begin(), exclude.end(), n) != exclude.end()) {
      continue;
    }
    return n;
  }
  return -1;
}

bool RepairManager::WaitForBudget(uint64_t bytes) {
  if (options_.bandwidth_bytes_per_sec == 0) {
    return true;
  }
  double rate = static_cast<double>(options_.bandwidth_bytes_per_sec);
  auto refill = [&] {
    Clock::time_point now = Clock::now();
    double secs = std::chrono::duration<double>(now - budget_refilled_).count();
    // Burst cap of one second of budget; debt from an oversized piece is
    // paid down over subsequent refills, so pieces larger than the cap
    // still eventually go through instead of deadlocking.
    budget_bytes_ = std::min(budget_bytes_ + secs * rate, rate);
    budget_refilled_ = now;
  };
  refill();
  while (budget_bytes_ < 0) {
    if (thread_.joinable() && !running_.load(std::memory_order_relaxed)) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    refill();
  }
  budget_bytes_ -= static_cast<double>(bytes);
  return true;
}

RepairManager::FileRepairOutcome RepairManager::RepairFile(
    RangeEngine* engine, const lsm::FileMetaRef& file,
    const std::vector<rdma::NodeId>& dead) {
  FileRepairOutcome outcome;
  lsm::FileMetaData updated = *file;
  const std::vector<rdma::NodeId> candidates =
      engine->placer()->options().stocs;
  // Newly written replacement blocks, rolled back if the swap fails so a
  // retried repair never appends a second copy into the same StoC file.
  std::vector<std::pair<rdma::NodeId, uint64_t>> written;
  uint64_t bytes_written = 0;
  int repaired = 0;
  bool skipped = false;

  auto write_piece = [&](rdma::NodeId target, uint64_t file_id,
                         const std::string& data) {
    if (!WaitForBudget(data.size())) {
      return false;
    }
    // Clear any partial block a previously failed repair attempt left
    // behind under this id (idempotence), then write the replacement.
    client_->DeleteFile(target, file_id, false);
    stoc::StocBlockHandle handle;
    Status s = client_->AppendBlock(target, file_id, data, &handle);
    if (!s.ok()) {
      return false;
    }
    written.emplace_back(target, file_id);
    bytes_written += data.size();
    return true;
  };

  // Data fragments: every lost replica of fragment f gets the fragment
  // bytes (fetched once) rewritten to a healthy StoC not already holding
  // a copy of the same fragment.
  for (int f = 0; f < static_cast<int>(updated.fragments.size()); f++) {
    std::string data;
    bool fetched = false;
    for (int r = 0; r < static_cast<int>(updated.fragments[f].size()); r++) {
      lsm::BlockLocation& loc = updated.fragments[f][r];
      if (!IsDead(dead, loc.stoc_id)) {
        continue;
      }
      outcome.degraded++;
      if (!fetched) {
        Status s = FetchFragment(updated, f, &data);
        if (!s.ok()) {
          NOVA_WARN("repair: fragment %d of file %llu unrecoverable: %s", f,
                    (unsigned long long)updated.number, s.ToString().c_str());
          skipped = true;
          break;  // nothing to write for this fragment's lost replicas
        }
        fetched = true;
      }
      std::vector<rdma::NodeId> exclude;
      for (const lsm::BlockLocation& other : updated.fragments[f]) {
        exclude.push_back(other.stoc_id);
      }
      rdma::NodeId target = PickTarget(candidates, exclude);
      if (target < 0 || !write_piece(target, loc.file_id, data)) {
        skipped = true;
        continue;
      }
      loc = {target, loc.file_id};
      repaired++;
    }
  }

  // Metadata replicas: rebuilt from any surviving replica (they are
  // identical copies of the index + bloom block).
  {
    std::string meta_block;
    bool fetched = false;
    for (int r = 0; r < static_cast<int>(updated.meta_replicas.size()); r++) {
      lsm::BlockLocation& loc = updated.meta_replicas[r];
      if (!IsDead(dead, loc.stoc_id)) {
        continue;
      }
      outcome.degraded++;
      if (!fetched) {
        std::vector<lsm::BlockLocation> survivors;
        for (const lsm::BlockLocation& other : updated.meta_replicas) {
          if (!IsDead(dead, other.stoc_id)) {
            survivors.push_back(other);
          }
        }
        if (survivors.empty() ||
            !client_->Read(survivors, 0, 0).Wait(&meta_block).ok()) {
          skipped = true;
          break;
        }
        fetched = true;
      }
      std::vector<rdma::NodeId> exclude;
      for (const lsm::BlockLocation& other : updated.meta_replicas) {
        exclude.push_back(other.stoc_id);
      }
      rdma::NodeId target = PickTarget(candidates, exclude);
      if (target < 0 || !write_piece(target, loc.file_id, meta_block)) {
        skipped = true;
        continue;
      }
      loc = {target, loc.file_id};
      repaired++;
    }
  }

  // Parity: recomputed as the XOR of all data fragments, zero-padded to
  // the longest (exactly how the placer built it).
  if (updated.parity.valid() && IsDead(dead, updated.parity.stoc_id)) {
    outcome.degraded++;
    uint64_t max_frag = 0;
    for (uint64_t fs : updated.fragment_sizes) {
      max_frag = std::max(max_frag, fs);
    }
    std::string parity(max_frag, '\0');
    bool ok = true;
    for (int f = 0; f < static_cast<int>(updated.fragments.size()); f++) {
      std::string data;
      if (!FetchFragment(updated, f, &data).ok()) {
        ok = false;
        break;
      }
      lsm::XorInto(&parity, data);
    }
    std::vector<rdma::NodeId> exclude;
    for (const auto& replicas : updated.fragments) {
      for (const lsm::BlockLocation& other : replicas) {
        exclude.push_back(other.stoc_id);
      }
    }
    rdma::NodeId target = ok ? PickTarget(candidates, exclude) : -1;
    if (target < 0 && ok) {
      // Co-locating parity with a fragment beats leaving it lost.
      target = PickTarget(candidates, {});
    }
    if (!ok || target < 0 ||
        !write_piece(target, updated.parity.file_id, parity)) {
      skipped = true;
    } else {
      updated.parity = {target, updated.parity.file_id};
      repaired++;
    }
  }

  if (repaired == 0) {
    return outcome;
  }
  Status s = engine->SwapFileMeta(updated);
  if (!s.ok()) {
    // Compaction holds the file (Busy) or already retired it (NotFound):
    // roll the fresh blocks back and let the next scan decide.
    for (const auto& [stoc, file_id] : written) {
      client_->DeleteFile(stoc, file_id, false);
    }
    return outcome;
  }
  outcome.repaired = repaired;
  repaired_fragments_.fetch_add(repaired, std::memory_order_relaxed);
  repaired_bytes_.fetch_add(bytes_written, std::memory_order_relaxed);
  if (skipped) {
    NOVA_WARN("repair: file %llu partially repaired (%d of %d pieces)",
              (unsigned long long)updated.number, repaired, outcome.degraded);
  }
  return outcome;
}

}  // namespace ltc
}  // namespace nova
