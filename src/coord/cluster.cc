#include "coord/cluster.h"

#include <chrono>
#include <thread>

#include "lsm/compaction.h"
#include "util/logging.h"

namespace nova {
namespace coord {

Cluster::Cluster(const ClusterOptions& options)
    : options_(options), coordinator_(1000, options.membership) {}

Cluster::~Cluster() { Stop(); }

std::vector<rdma::NodeId> Cluster::AliveStocNodes() {
  std::vector<rdma::NodeId> nodes;
  for (size_t i = 0; i < stocs_.size(); i++) {
    if (stoc_alive_[i]) {
      nodes.push_back(StocNode(static_cast<int>(i)));
    }
  }
  return nodes;
}

void Cluster::WireStoc(int index) {
  stocs_[index]->stoc_client()->set_membership(coordinator_.membership());
  stocs_[index]->set_compaction_handler(
      [this, index](rdma::NodeId, const Slice& payload) -> std::string {
        lsm::CompactionJob job;
        if (!job.Deserialize(payload).ok()) {
          return "";
        }
        uint32_t range_id = 0;
        if (!job.inputs.empty() && !job.inputs[0]->meta_replicas.empty()) {
          range_id =
              stoc::FileIdRange(job.inputs[0]->meta_replicas[0].file_id);
        }
        stoc::StocClient* client = stocs_[index]->stoc_client();
        lsm::TableCache cache(client);
        lsm::SSTablePlacer placer(client,
                                  PlacementFor(range_id, AliveStocNodes()));
        lsm::CompactionExecutor exec(&cache, &placer,
                                     stocs_[index]->throttle());
        lsm::CompactionResult result;
        if (!exec.Run(job, &result).ok()) {
          return "";  // the LTC retries the job later
        }
        return result.Serialize();
      });
}

ltc::RangeEngineOptions Cluster::RangeOptionsFor(const RangeAssignment& r) {
  ltc::RangeEngineOptions opt = options_.range;
  opt.range_id = r.range_id;
  opt.lower = r.lower;
  opt.upper = r.upper;
  return opt;
}

lsm::PlacementOptions Cluster::PlacementFor(
    uint32_t range_id, const std::vector<rdma::NodeId>& stocs) const {
  lsm::PlacementOptions p = options_.placement;
  p.stocs = stocs;
  p.range_id = range_id;
  p.max_sstable_size = options_.range.max_sstable_size;
  return p;
}

void Cluster::RefreshPlacements() {
  std::vector<rdma::NodeId> nodes = AliveStocNodes();
  for (size_t l = 0; l < ltcs_.size(); l++) {
    if (!ltc_alive_[l]) {
      continue;
    }
    for (ltc::RangeEngine* engine : ltcs_[l]->ranges()) {
      engine->placer()->UpdateStocs(nodes);
    }
  }
}

void Cluster::Start() {
  if (started_) {
    return;
  }
  started_ = true;

  for (int i = 0; i < options_.num_stocs; i++) {
    devices_.push_back(std::make_unique<SimulatedDevice>(
        "stoc-" + std::to_string(i), options_.device));
    stores_.push_back(std::make_unique<BlockStore>());
    stocs_.push_back(std::make_unique<stoc::StocServer>(
        &fabric_, StocNode(i), devices_.back().get(), stores_.back().get(),
        options_.stoc));
    stoc_alive_.push_back(true);
    WireStoc(i);
    stocs_[i]->Start();
    coordinator_.GrantLease(StocNode(i));
  }

  for (int i = 0; i < options_.num_ltcs; i++) {
    ltc::LtcServerOptions lopt = options_.ltc;
    lopt.node = LtcNode(i);
    ltcs_.push_back(std::make_unique<ltc::LtcServer>(&fabric_, lopt));
    // Every LTC's StoC client enforces the coordinator's membership
    // verdicts (circuit breaker + placement exclusion + repair trigger).
    ltcs_.back()->stoc_client()->set_membership(coordinator_.membership());
    ltc_alive_.push_back(true);
    ltcs_[i]->Start();
    coordinator_.GrantLease(LtcNode(i));
  }

  // Partition the keyspace into ranges and assign contiguous blocks of
  // ranges to LTCs (the paper's range partitioning, Section 3).
  Configuration config;
  int num_ranges = static_cast<int>(options_.split_points.size()) + 1;
  std::vector<rdma::NodeId> stoc_nodes = AliveStocNodes();
  for (int r = 0; r < num_ranges; r++) {
    RangeAssignment a;
    a.range_id = static_cast<uint32_t>(r);
    a.lower = (r == 0) ? "" : options_.split_points[r - 1];
    a.upper = (r == num_ranges - 1) ? "" : options_.split_points[r];
    a.ltc_index = r * options_.num_ltcs / num_ranges;
    config.ranges.push_back(a);

    std::unique_ptr<ltc::RangeEngine> engine =
        ltcs_[a.ltc_index]->NewRange(RangeOptionsFor(a), stoc_nodes);
    engine->placer()->set_options(PlacementFor(a.range_id, stoc_nodes));
    ltcs_[a.ltc_index]->PublishRange(std::move(engine));
  }
  for (int i = 0; i < options_.num_stocs; i++) {
    config.alive_stocs.push_back(i);
  }
  coordinator_.UpdateConfig(std::move(config));
}

void Cluster::Stop() {
  if (!started_) {
    return;
  }
  started_ = false;
  for (size_t i = 0; i < ltcs_.size(); i++) {
    ltcs_[i]->Stop();
  }
  for (size_t i = 0; i < stocs_.size(); i++) {
    stocs_[i]->Stop();
  }
}

Status Cluster::Put(const Slice& key, const Slice& value) {
  for (int attempt = 0; attempt < 200; attempt++) {
    Configuration cfg = coordinator_.config();
    int idx = cfg.LtcForKey(key);
    if (idx < 0) {
      return Status::InvalidArgument("key outside all ranges");
    }
    if (ltc_alive_[idx]) {
      Status s = ltcs_[idx]->Put(key, value);
      if (!s.IsInvalidArgument() && !s.IsUnavailable()) {
        return s;
      }
    }
    // The range is migrating or its LTC is down; wait for a new config.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Status::Unavailable("range unavailable");
}

Status Cluster::Get(const Slice& key, std::string* value) {
  for (int attempt = 0; attempt < 200; attempt++) {
    Configuration cfg = coordinator_.config();
    int idx = cfg.LtcForKey(key);
    if (idx < 0) {
      return Status::InvalidArgument("key outside all ranges");
    }
    if (ltc_alive_[idx]) {
      Status s = ltcs_[idx]->Get(key, value);
      if (!s.IsInvalidArgument() && !s.IsUnavailable()) {
        return s;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Status::Unavailable("range unavailable");
}

Status Cluster::Delete(const Slice& key) {
  Configuration cfg = coordinator_.config();
  int idx = cfg.LtcForKey(key);
  if (idx < 0 || !ltc_alive_[idx]) {
    return Status::Unavailable("range unavailable");
  }
  return ltcs_[idx]->Delete(key);
}

Status Cluster::Scan(
    const Slice& start_key, int num_records,
    std::vector<std::pair<std::string, std::string>>* out) {
  for (int attempt = 0; attempt < 200; attempt++) {
    Configuration cfg = coordinator_.config();
    int idx = cfg.LtcForKey(start_key);
    if (idx < 0) {
      return Status::InvalidArgument("key outside all ranges");
    }
    if (ltc_alive_[idx]) {
      Status s = ltcs_[idx]->Scan(start_key, num_records, out);
      if (!s.IsInvalidArgument() && !s.IsUnavailable()) {
        // Scans spanning LTCs: continue on the next LTC (read committed).
        while (s.ok() && static_cast<int>(out->size()) < num_records &&
               !out->empty()) {
          // Find the range containing the last returned key and continue
          // past its LTC's upper bound if another LTC follows.
          const std::string& last = out->back().first;
          int cur = cfg.LtcForKey(last);
          std::string next_lower;
          for (const auto& r : cfg.ranges) {
            if (r.ltc_index == cur &&
                (r.lower.empty() || last >= r.lower) &&
                (r.upper.empty() || last < r.upper)) {
              next_lower = r.upper;
              break;
            }
          }
          if (next_lower.empty()) {
            break;
          }
          int next_idx = cfg.LtcForKey(next_lower);
          if (next_idx < 0 || next_idx == idx || !ltc_alive_[next_idx]) {
            break;
          }
          idx = next_idx;
          // num_records is the total target on `out` (see RangeEngine::Scan).
          s = ltcs_[idx]->Scan(next_lower, num_records, out);
        }
        return s;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Status::Unavailable("range unavailable");
}

void Cluster::KillStoc(int index) {
  stoc_alive_[index] = false;
  stocs_[index]->Stop();
  fabric_.RemoveNode(StocNode(index));
  coordinator_.ExpireLease(StocNode(index));
  RefreshPlacements();
}

void Cluster::RestartStoc(int index) {
  // The device and block store survived the crash; only component state
  // is rebuilt. In-memory StoC files (log replicas) are lost — that is
  // exactly the availability tradeoff Section 5 describes.
  stocs_[index] = std::make_unique<stoc::StocServer>(
      &fabric_, StocNode(index), devices_[index].get(),
      stores_[index].get(), options_.stoc);
  WireStoc(index);
  stocs_[index]->Start();
  stoc_alive_[index] = true;
  // The lease re-grant moves a dead node to probing; drive the half-open
  // probes from here so the StoC earns its way back to alive (and into
  // placement) without waiting for organic read traffic to find it.
  coordinator_.GrantLease(StocNode(index));
  rdma::NodeId node = StocNode(index);
  Membership* membership = coordinator_.membership();
  stoc::StocClient* prober = nullptr;
  for (size_t l = 0; l < ltcs_.size(); l++) {
    if (ltc_alive_[l]) {
      prober = ltcs_[l]->stoc_client();
      break;
    }
  }
  if (prober != nullptr) {
    for (int p = 0; p < 10 * membership->options().rejoin_probes &&
                    membership->health(node) != NodeHealth::kAlive;
         p++) {
      stoc::StocStats stats;
      prober->GetStats(node, &stats);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(membership->options().probe_interval_ms) +
          std::chrono::milliseconds(1));
    }
  }
  RefreshPlacements();
}

void Cluster::KillLtc(int index) {
  ltc_alive_[index] = false;
  ltcs_[index]->Stop();
  fabric_.RemoveNode(LtcNode(index));
  coordinator_.ExpireLease(LtcNode(index));
}

Status Cluster::RecoverLtcRanges(int crashed_ltc, int dst_ltc,
                                 int recovery_threads) {
  Configuration cfg = coordinator_.config();
  std::vector<rdma::NodeId> stoc_nodes = AliveStocNodes();
  int rr = 0;
  for (auto& r : cfg.ranges) {
    if (r.ltc_index != crashed_ltc) {
      continue;
    }
    int target = dst_ltc;
    if (target < 0) {
      // Scatter across the η-1 surviving LTCs (Section 4.5).
      do {
        target = rr++ % static_cast<int>(ltcs_.size());
      } while (!ltc_alive_[target] || target == crashed_ltc);
    }
    std::unique_ptr<ltc::RangeEngine> engine =
        ltcs_[target]->NewRange(RangeOptionsFor(r), stoc_nodes);
    engine->placer()->set_options(PlacementFor(r.range_id, stoc_nodes));
    Status s = engine->RecoverFromManifest(recovery_threads);
    if (!s.ok() && !s.IsNotFound()) {
      return s;
    }
    ltcs_[target]->PublishRange(std::move(engine));
    r.ltc_index = target;
  }
  coordinator_.UpdateConfig(std::move(cfg));
  return Status::OK();
}

Status Cluster::MigrateRange(uint32_t range_id, int dst_ltc,
                             int recovery_threads) {
  Configuration cfg = coordinator_.config();
  int src = -1;
  RangeAssignment* assignment = nullptr;
  for (auto& r : cfg.ranges) {
    if (r.range_id == range_id) {
      src = r.ltc_index;
      assignment = &r;
      break;
    }
  }
  if (src < 0 || assignment == nullptr) {
    return Status::NotFound("no such range");
  }
  if (src == dst_ltc) {
    return Status::OK();
  }
  // 1. Stop serving writes at the source and drain its background work so
  //    every record is either in the version snapshot or in a surviving
  //    log file at the StoCs.
  ltc::RangeEngine* old = ltcs_[src]->DetachRange(range_id);
  if (old == nullptr) {
    return Status::NotFound("range not at source LTC");
  }
  old->BeginDecommission();
  old->WaitForQuiescence();
  // 2. Ship the metadata (LSM-tree, Dranges, indexes' seeds) — paper
  //    Section 9: ~1% of migrated bytes; log records stay at StoCs. The
  //    source's memtables are discarded; the destination rebuilds them
  //    from the log records.
  std::string state = old->ExtractMigrationState();

  // 3. Install at the destination and rebuild memtables from log records
  //    with parallel background threads.
  std::vector<rdma::NodeId> stoc_nodes = AliveStocNodes();
  std::unique_ptr<ltc::RangeEngine> engine =
      ltcs_[dst_ltc]->NewRange(RangeOptionsFor(*assignment), stoc_nodes);
  engine->placer()->set_options(PlacementFor(range_id, stoc_nodes));
  Status s = engine->InstallFromMigrationState(state, recovery_threads);
  if (!s.ok()) {
    return s;
  }
  ltcs_[dst_ltc]->PublishRange(std::move(engine));
  // 4. Publish the new configuration.
  assignment->ltc_index = dst_ltc;
  coordinator_.UpdateConfig(std::move(cfg));
  return Status::OK();
}

int Cluster::AddStoc() {
  int index = static_cast<int>(stocs_.size());
  devices_.push_back(std::make_unique<SimulatedDevice>(
      "stoc-" + std::to_string(index), options_.device));
  stores_.push_back(std::make_unique<BlockStore>());
  stocs_.push_back(std::make_unique<stoc::StocServer>(
      &fabric_, StocNode(index), devices_.back().get(),
      stores_.back().get(), options_.stoc));
  stoc_alive_.push_back(true);
  WireStoc(index);
  stocs_[index]->Start();
  coordinator_.GrantLease(StocNode(index));
  // LTCs assign new SSTables to the new StoC immediately (Section 9).
  RefreshPlacements();
  Configuration cfg = coordinator_.config();
  cfg.alive_stocs.push_back(index);
  coordinator_.UpdateConfig(std::move(cfg));
  return index;
}

Status Cluster::RemoveStocGraceful(int index) {
  rdma::NodeId node = StocNode(index);
  // 1. No new placements on the departing StoC.
  stoc_alive_[index] = false;
  RefreshPlacements();
  std::vector<rdma::NodeId> alive = AliveStocNodes();
  if (alive.empty()) {
    return Status::InvalidArgument("cannot remove the last StoC");
  }
  // 2. Copy every referenced block elsewhere and update file metadata
  //    (Section 9: the LTC identifies fragments and instructs the source
  //    StoC to copy them to destinations).
  int rr = 0;
  for (size_t l = 0; l < ltcs_.size(); l++) {
    if (!ltc_alive_[l]) {
      continue;
    }
    for (ltc::RangeEngine* engine : ltcs_[l]->ranges()) {
      engine->WaitForQuiescence();
      lsm::VersionRef v = engine->versions()->current();
      for (int level = 0; level < v->num_levels(); level++) {
        for (const auto& f : v->files(level)) {
          lsm::FileMetaData updated = *f;
          bool touched = false;
          auto relocate = [&](lsm::BlockLocation* loc) -> Status {
            if (loc->stoc_id != node) {
              return Status::OK();
            }
            rdma::NodeId dst = alive[rr++ % alive.size()];
            Status cs = ltcs_[l]->stoc_client()->CopyFileTo(
                node, loc->file_id, dst);
            if (!cs.ok()) {
              return cs;
            }
            loc->stoc_id = dst;
            touched = true;
            return Status::OK();
          };
          for (auto& replicas : updated.fragments) {
            for (auto& loc : replicas) {
              Status cs = relocate(&loc);
              if (!cs.ok()) return cs;
            }
          }
          for (auto& loc : updated.meta_replicas) {
            Status cs = relocate(&loc);
            if (!cs.ok()) return cs;
          }
          if (updated.parity.valid()) {
            Status cs = relocate(&updated.parity);
            if (!cs.ok()) return cs;
          }
          if (touched) {
            lsm::VersionEdit edit;
            edit.deleted_files.emplace_back(level, f->number);
            edit.new_files.emplace_back(level, updated);
            Status es = engine->versions()->LogAndApply(&edit);
            if (!es.ok()) {
              return es;
            }
            engine->table_cache()->Evict(f->number);
          }
        }
      }
    }
  }
  // 3. Shut the StoC down.
  stocs_[index]->Stop();
  fabric_.RemoveNode(node);
  coordinator_.ExpireLease(node);
  Configuration cfg = coordinator_.config();
  cfg.alive_stocs.clear();
  for (size_t i = 0; i < stocs_.size(); i++) {
    if (stoc_alive_[i]) {
      cfg.alive_stocs.push_back(static_cast<int>(i));
    }
  }
  coordinator_.UpdateConfig(std::move(cfg));
  return Status::OK();
}

Status Cluster::GcStocFiles(int index) {
  // A re-added StoC enumerates its files and asks the owning LTC whether
  // each is still referenced; unreferenced files are deleted (Section 9).
  std::vector<uint64_t> files;
  rdma::NodeId node = StocNode(index);
  // Use any alive LTC's client to query.
  stoc::StocClient* client = nullptr;
  for (size_t l = 0; l < ltcs_.size(); l++) {
    if (ltc_alive_[l]) {
      client = ltcs_[l]->stoc_client();
      break;
    }
  }
  if (client == nullptr) {
    return Status::Unavailable("no alive ltc");
  }
  Status s = client->ListFiles(node, &files);
  if (!s.ok()) {
    return s;
  }
  Configuration cfg = coordinator_.config();
  for (uint64_t file_id : files) {
    stoc::FileKind kind = stoc::FileIdKind(file_id);
    if (kind == stoc::FileKind::kManifest || kind == stoc::FileKind::kLog) {
      continue;  // always kept
    }
    uint32_t range_id = stoc::FileIdRange(file_id);
    uint32_t number = stoc::FileIdNumber(file_id);
    bool referenced = false;
    for (const auto& r : cfg.ranges) {
      if (r.range_id == range_id && ltc_alive_[r.ltc_index]) {
        ltc::RangeEngine* engine =
            ltcs_[r.ltc_index]->GetRange(range_id);
        if (engine != nullptr && engine->IsFileNumberLive(number)) {
          referenced = true;
        }
        break;
      }
    }
    if (!referenced) {
      client->DeleteFile(node, file_id, false);
    }
  }
  return Status::OK();
}

ltc::RangeStats Cluster::TotalStats() {
  ltc::RangeStats total;
  for (size_t i = 0; i < ltcs_.size(); i++) {
    if (!ltc_alive_[i]) {
      continue;
    }
    total += ltcs_[i]->TotalStats();
  }
  return total;
}

}  // namespace coord
}  // namespace nova
