#include "ltc/ltc_server.h"

#include <chrono>

namespace nova {
namespace ltc {

LtcServer::LtcServer(rdma::RdmaFabric* fabric,
                     const LtcServerOptions& options)
    : fabric_(fabric), options_(options) {
  throttle_ = std::make_unique<sim::CpuThrottle>(options_.cpu_rate_us_per_sec);
  endpoint_ = std::make_unique<rdma::RpcEndpoint>(
      fabric_, options_.node, options_.num_xchg_threads, throttle_.get());
  endpoint_->set_request_handler(
      [](rdma::NodeId, uint64_t, const Slice&) {});
  stoc_client_ = std::make_unique<stoc::StocClient>(endpoint_.get());
  stoc::ReadPolicy read_policy = stoc_client_->read_policy();
  read_policy.replica_d = std::max(1, options_.read_replica_d);
  read_policy.hedge = options_.read_hedging;
  stoc_client_->set_read_policy(read_policy);
  if (options_.block_cache_bytes > 0) {
    block_cache_.reset(NewShardedLRUCache(options_.block_cache_bytes,
                                          /*shard_bits=*/4,
                                          options_.cache_hot_fraction));
  }
  if (options_.compressed_cache_bytes > 0) {
    // Plain LRU: the compressed tier is already the demotion target, so
    // no two-queue split inside it.
    compressed_cache_.reset(NewShardedLRUCache(
        options_.compressed_cache_bytes, /*shard_bits=*/4,
        /*hot_fraction=*/1.0));
  }
  flush_pool_ = std::make_unique<ThreadPool>("ltc-flush",
                                             options_.num_flush_threads);
  compaction_pool_ = std::make_unique<ThreadPool>(
      "ltc-compaction", options_.num_compaction_threads);
  repair_manager_ = std::make_unique<RepairManager>(
      stoc_client_.get(), [this] { return ranges(); }, options_.repair);
}

LtcServer::~LtcServer() { Stop(); }

void LtcServer::Start() {
  if (running_.exchange(true)) {
    return;
  }
  fabric_->AddNode(options_.node);
  endpoint_->Start();
  maintenance_thread_ = std::thread([this] { MaintenanceLoop(); });
  repair_manager_->Start();
}

void LtcServer::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  if (maintenance_thread_.joinable()) {
    maintenance_thread_.join();
  }
  // Repair must stop before the ranges and pools it scans go away.
  repair_manager_->Stop();
  flush_pool_->Shutdown();
  compaction_pool_->Shutdown();
  endpoint_->Stop();
}

void LtcServer::MaintenanceLoop() {
  while (running_.load(std::memory_order_relaxed)) {
    {
      std::lock_guard<std::mutex> l(mu_);
      for (auto& [id, engine] : ranges_) {
        engine->MaintenanceTick();
      }
    }
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.maintenance_interval_us));
  }
}

std::unique_ptr<RangeEngine> LtcServer::NewRange(
    const RangeEngineOptions& options,
    const std::vector<rdma::NodeId>& stocs) {
  return std::make_unique<RangeEngine>(
      options, stoc_client_.get(), stocs, throttle_.get(), flush_pool_.get(),
      compaction_pool_.get(), block_cache_.get(), compressed_cache_.get(),
      options_.readahead_blocks);
}

RangeEngine* LtcServer::PublishRange(std::unique_ptr<RangeEngine> engine) {
  engine->Bootstrap();
  RangeEngine* ptr = engine.get();
  std::lock_guard<std::mutex> l(mu_);
  ranges_[ptr->options().range_id] = std::move(engine);
  return ptr;
}

RangeEngine* LtcServer::DetachRange(uint32_t range_id) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = ranges_.find(range_id);
  if (it == ranges_.end()) {
    return nullptr;
  }
  RangeEngine* engine = it->second.get();
  retired_ranges_.push_back(std::move(it->second));
  ranges_.erase(it);
  return engine;
}

RangeEngine* LtcServer::GetRange(uint32_t range_id) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = ranges_.find(range_id);
  return it == ranges_.end() ? nullptr : it->second.get();
}

std::vector<RangeEngine*> LtcServer::ranges() {
  std::lock_guard<std::mutex> l(mu_);
  std::vector<RangeEngine*> out;
  out.reserve(ranges_.size());
  for (auto& [id, engine] : ranges_) {
    out.push_back(engine.get());
  }
  return out;
}

RangeEngine* LtcServer::RouteKey(const Slice& key) {
  std::lock_guard<std::mutex> l(mu_);
  for (auto& [id, engine] : ranges_) {
    const RangeEngineOptions& opt = engine->options();
    bool ge_lower = opt.lower.empty() || key.compare(opt.lower) >= 0;
    bool lt_upper = opt.upper.empty() || key.compare(opt.upper) < 0;
    if (ge_lower && lt_upper) {
      return engine.get();
    }
  }
  return nullptr;
}

Status LtcServer::Put(const Slice& key, const Slice& value) {
  RangeEngine* engine = RouteKey(key);
  if (engine == nullptr) {
    return Status::InvalidArgument("no range for key at this LTC");
  }
  return engine->Put(key, value);
}

Status LtcServer::Get(const Slice& key, std::string* value) {
  RangeEngine* engine = RouteKey(key);
  if (engine == nullptr) {
    return Status::InvalidArgument("no range for key at this LTC");
  }
  return engine->Get(key, value);
}

Status LtcServer::Delete(const Slice& key) {
  RangeEngine* engine = RouteKey(key);
  if (engine == nullptr) {
    return Status::InvalidArgument("no range for key at this LTC");
  }
  return engine->Delete(key);
}

Status LtcServer::Scan(
    const Slice& start_key, int num_records,
    std::vector<std::pair<std::string, std::string>>* out) {
  RangeEngine* engine = RouteKey(start_key);
  if (engine == nullptr) {
    return Status::InvalidArgument("no range for key at this LTC");
  }
  Status s = engine->Scan(start_key, num_records, out);
  // A scan spanning two application ranges continues in the next range
  // (read committed across ranges, Section 8.1).
  while (s.ok() && static_cast<int>(out->size()) < num_records) {
    const std::string& upper = engine->options().upper;
    if (upper.empty()) {
      break;
    }
    engine = RouteKey(upper);
    if (engine == nullptr) {
      break;
    }
    // num_records is the *total* target: Scan appends until out holds it.
    s = engine->Scan(upper, num_records, out);
  }
  return s;
}

RangeStats LtcServer::TotalStats() {
  RangeStats total;
  for (RangeEngine* engine : ranges()) {
    total += engine->stats();
  }
  if (block_cache_ != nullptr) {
    // The node cache is shared by every range (see RangeStats), so it is
    // accounted once here.
    total.block_cache_hits += block_cache_->hits();
    total.block_cache_misses += block_cache_->misses();
    total.block_cache_bytes += block_cache_->TotalCharge();
  }
  if (compressed_cache_ != nullptr) {
    total.block_cache_compressed_hits += compressed_cache_->hits();
    total.block_cache_compressed_misses += compressed_cache_->misses();
    total.block_cache_compressed_bytes += compressed_cache_->TotalCharge();
  }
  // The StoC client (and its read-path replica selection) is likewise
  // shared across this LTC's ranges: counted once, node-wide.
  total.pod_reads += stoc_client_->pod_reads();
  total.hedged_issued += stoc_client_->hedged_issued();
  total.hedged_won += stoc_client_->hedged_won();
  total.bytes_over_wire +=
      stoc_client_->bytes_sent() + stoc_client_->bytes_received();
  RepairStats repair = repair_manager_->stats();
  total.degraded_fragments += repair.degraded_fragments;
  total.repaired_fragments += repair.repaired_fragments;
  total.repaired_bytes += repair.repaired_bytes;
  total.repair_us += repair.repair_us;
  return total;
}

}  // namespace ltc
}  // namespace nova
