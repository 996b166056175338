// nova_perfbench: the repository's seeded end-to-end benchmark.
//
// One process, one workload, kClusters in-process coord::Clusters set up
// and measured one after another. The harness generates every key and
// value itself from --seed, drives a closed loop of kClients client
// threads, checks every result it gets back, and prints the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1) as the last
// line of stdout, one JSON object.
//
// Layers are measured from outside: the harness times its own calls into
// each layer's public functions (the traced path below repeats
// Cluster::Get/Put/Scan step by step) and reads public counters. See
// README.md next to this file for why each workload exists and what
// each metric is meant to move.
#include <sys/resource.h>
#include <sys/sysinfo.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "coord/cluster.h"

namespace {

using nova::Slice;
using nova::Status;
using Clock = std::chrono::steady_clock;

// Taken during static initialisation, before main: the start of set-up.
const Clock::time_point g_process_start = Clock::now();

constexpr int kClients = 4;
constexpr size_t kKeySize = 16;  // "user" + 12 digits
constexpr size_t kValueSize = 1024;
constexpr int kScanLength = 10;
constexpr int kRanges = 4;
constexpr int kStocs = 4;
// Each run sets up and measures this many clusters in turn; see main().
constexpr int kClusters = 3;
// The bulk load writes every key once as this writer id, counter 0.
constexpr uint32_t kLoadWriter = kClients;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
int64_t Nanos(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

// ---------------------------------------------------------------------
// Inputs: seeded randomness, key choice, keys and self-describing values.
// ---------------------------------------------------------------------

uint64_t Mix64(uint64_t x) {  // SplitMix64 finaliser
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// xoshiro256** seeded through SplitMix64.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    for (uint64_t& s : s_) {
      seed = Mix64(seed);
      s = seed;
    }
  }
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double Double() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

// Key indices in [0, n): uniform, or YCSB Zipfian (Gray et al.) whose
// ranks are scattered over the keyspace by a fixed odd-multiplier
// permutation, so the hot keys land in every range and many blocks (as
// YCSB's scrambled Zipfian does). The scatter does not depend on the
// seed: every seed sees the same hot set, only the request order moves.
class KeyChooser {
 public:
  KeyChooser(uint64_t n, double theta) : n_(n), theta_(theta) {
    if (theta_ <= 0) {
      return;
    }
    if ((n_ & (n_ - 1)) != 0) {
      fprintf(stderr, "Zipfian key counts must be powers of two\n");
      abort();  // the scatter below is a permutation only then
    }
    for (uint64_t i = 1; i <= n_; i++) {
      zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
    }
    double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
    half_pow_theta_ = 1.0 + std::pow(0.5, theta_);
  }

  uint64_t Next(Rng* rng) const {
    if (theta_ <= 0) {
      return rng->Uniform(n_);
    }
    double u = rng->Double();
    double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < half_pow_theta_) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(static_cast<double>(n_) *
                                   std::pow(eta_ * u - eta_ + 1.0, alpha_));
      rank = std::min(rank, n_ - 1);
    }
    return (rank * 0x9e3779b1ull + 12345) % n_;
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
  double half_pow_theta_ = 0;
};

std::string KeyOf(uint64_t index) {
  char buf[32];
  snprintf(buf, sizeof(buf), "user%012" PRIu64, index);
  return buf;
}

bool ParseKey(const std::string& key, uint64_t* index) {
  if (key.size() != kKeySize || key.compare(0, 4, "user") != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = 4; i < key.size(); i++) {
    if (key[i] < '0' || key[i] > '9') {
      return false;
    }
    v = v * 10 + static_cast<uint64_t>(key[i] - '0');
  }
  *index = v;
  return true;
}

// Which write a value came from.
struct ValueId {
  uint32_t writer = 0;
  uint64_t counter = 0;
};

// Values are 1 KiB: a 32-byte header naming the key and the writing
// (writer, counter), then 496 seeded-random bytes (one of kChunks chunks,
// picked by hashing the header), then 496 copies of one byte. The
// built-in block codec compresses that about 2:1; the random half keeps
// compaction honest (constant-byte values compress to almost nothing).
class ValueCodec {
 public:
  static constexpr size_t kHeader = 32;
  static constexpr size_t kRandom = (kValueSize - kHeader) / 2;
  static constexpr size_t kChunks = 4096;

  explicit ValueCodec(uint64_t seed) : seed_(seed), pool_(kChunks * kRandom) {
    Rng rng(seed ^ 0x76616c7565ull);
    for (size_t i = 0; i < pool_.size(); i += 8) {
      uint64_t r = rng.Next();
      memcpy(&pool_[i], &r, std::min<size_t>(8, pool_.size() - i));
    }
  }

  void Make(const std::string& key, ValueId id, std::string* out) const {
    out->resize(kValueSize);
    char* p = &(*out)[0];
    memset(p, 0, kHeader);
    memcpy(p, key.data(), kKeySize);
    memcpy(p + kKeySize, &id.writer, sizeof(id.writer));
    memcpy(p + kKeySize + 4, &id.counter, sizeof(id.counter));
    uint64_t h = Mix64(seed_ ^ Mix64(Hash(key) ^ (uint64_t{id.writer} << 56) ^
                                     id.counter));
    memcpy(p + kHeader, &pool_[(h % kChunks) * kRandom], kRandom);
    memset(p + kHeader + kRandom, 'a' + static_cast<int>((h >> 32) % 26),
           kValueSize - kHeader - kRandom);
  }

  // True if value is exactly what Make wrote for key and some id; fills
  // *id from the header.
  bool Check(const std::string& key, const std::string& value,
             ValueId* id) const {
    if (value.size() != kValueSize ||
        value.compare(0, kKeySize, key) != 0) {
      return false;
    }
    memcpy(&id->writer, value.data() + kKeySize, sizeof(id->writer));
    memcpy(&id->counter, value.data() + kKeySize + 4, sizeof(id->counter));
    thread_local std::string expected;
    Make(key, *id, &expected);
    return expected == value;
  }

 private:
  static uint64_t Hash(const std::string& s) {
    uint64_t h = 1469598103934665603ull;  // FNV-1a
    for (unsigned char c : s) {
      h = (h ^ c) * 1099511628211ull;
    }
    return h;
  }

  uint64_t seed_;
  std::vector<char> pool_;
};

// ---------------------------------------------------------------------
// Workloads and cluster configurations.
// ---------------------------------------------------------------------

enum OpType { kGet = 0, kPut = 1, kScan = 2, kNumOpTypes = 3 };
const char* const kOpNames[kNumOpTypes] = {"get", "put", "scan"};

struct Workload {
  const char* name;
  // true: the paper model (CPU throttle + scaled HDD); false: real cost
  // of the C++ (no throttle, device time_scale 0).
  bool paper_model;
  uint64_t num_keys;
  double zipf_theta;  // 0 = uniform
  int pct[kNumOpTypes];
  // Flush every memtable and drain compactions after the load.
  bool quiesce_after_load;
};

// Why these three, and the sizes: see README.md.
const Workload kWorkloads[] = {
    {"ingest", false, 24000, 0.0, {0, 100, 0}, false},
    {"read-skew", false, 65536, 0.99, {90, 0, 10}, true},
    {"mixed-paper", true, 8192, 0.99, {50, 50, 0}, false},
};

nova::coord::ClusterOptions OptionsFor(const Workload& w) {
  nova::coord::ClusterOptions opt;
  opt.num_ltcs = 1;
  opt.num_stocs = kStocs;
  for (int p = 1; p < kRanges; p++) {
    opt.split_points.push_back(KeyOf(w.num_keys * p / kRanges));
  }
  // The paper-scaled LSM shape the repo's paper benches use (constants
  // scaled 1/64): τ = 256 KB memtables, δ = 32, θ = 8 Dranges.
  opt.range.memtable_size = 256 << 10;
  opt.range.max_memtables = 32;
  opt.range.drange.theta = 8;
  opt.range.drange.warmup_writes = 2000;
  opt.range.max_sstable_size = 256 << 10;
  opt.range.lsm.l0_compaction_trigger_bytes = 4 << 20;
  opt.range.lsm.l0_stop_bytes = 32 << 20;
  opt.range.lsm.base_level_bytes = 16 << 20;
  opt.range.max_parallel_compactions = 4;
  opt.range.manifest_replicas = 1;
  opt.placement.rho = 2;
  opt.placement.power_of_d = true;
  // Both LTC cache tiers on; scans prefetch two blocks ahead.
  opt.ltc.block_cache_bytes = 4 << 20;
  opt.ltc.compressed_cache_bytes = 8 << 20;
  opt.ltc.readahead_blocks = 2;
  opt.stoc.page_cache_bytes = 8 << 20;
  opt.stoc.slab_bytes = 192 << 20;
  opt.stoc.slab_page_bytes = 512 << 10;
  if (w.paper_model) {
    // Same regime as the paper benches' PaperScaledOptions: 0.4 / 0.8
    // virtual cores per LTC / StoC, 2 MB/s + 1.5 ms-seek disks, log off.
    opt.ltc.cpu_rate_us_per_sec = 400000;
    opt.stoc.cpu_rate_us_per_sec = 800000;
    opt.device.bandwidth_bytes_per_sec = 2.0 * 1024 * 1024;
    opt.device.seek_latency_us = 1500;
    opt.range.log.mode = nova::logc::LogMode::kNone;
  } else {
    opt.ltc.cpu_rate_us_per_sec = 0;
    opt.stoc.cpu_rate_us_per_sec = 0;
    opt.device.time_scale = 0;
    opt.range.log.mode = nova::logc::LogMode::kInMemory;
    opt.range.log.num_replicas = 3;
  }
  return opt;
}

// ---------------------------------------------------------------------
// Tracing: spans around the harness's own calls into each layer.
// ---------------------------------------------------------------------

enum SpanName : uint8_t { kSpanOp, kSpanConfig, kSpanRoute, kSpanEngine };
const char* const kSpanNames[] = {"op", "coord.config", "ltc.route",
                                  "ltc.engine"};

// Every child span's parent is the op span with the same op_id.
struct Span {
  uint64_t op_id;
  SpanName name;
  OpType op;
  int64_t start_ns;  // since the measured window began
  int64_t end_ns;
};

class Tracer {
 public:
  Tracer(std::vector<Span>* out, uint64_t op_id, OpType op,
         Clock::time_point origin)
      : out_(out), op_id_(op_id), op_(op), origin_(origin) {}
  void Add(SpanName name, Clock::time_point start, Clock::time_point end) {
    out_->push_back(
        {op_id_, name, op_, Nanos(start - origin_), Nanos(end - origin_)});
  }

 private:
  std::vector<Span>* out_;
  uint64_t op_id_;
  OpType op_;
  Clock::time_point origin_;
};

// Cluster::Get/Put/Scan step by step, without their retry loop (which
// never fires here: no range migrates and no LTC dies). One LTC, so the
// cross-LTC scan continuation of Cluster::Scan never fires either; the
// cross-range continuation of LtcServer::Scan is repeated below.
struct Routed {
  Status status;
  nova::ltc::LtcServer* ltc = nullptr;
  nova::ltc::RangeEngine* engine = nullptr;
};

Routed TracedRoute(nova::coord::Cluster* cluster, const Slice& key,
                   Tracer* tracer, Clock::time_point t0) {
  Routed r;
  nova::coord::Configuration cfg = cluster->coordinator()->config();
  int idx = cfg.LtcForKey(key);
  Clock::time_point t1 = Clock::now();
  tracer->Add(kSpanConfig, t0, t1);
  if (idx < 0) {
    r.status = Status::InvalidArgument("key outside all ranges");
    return r;
  }
  r.ltc = cluster->ltc(idx);
  r.engine = r.ltc->RouteKey(key);
  tracer->Add(kSpanRoute, t1, Clock::now());
  if (r.engine == nullptr) {
    r.status = Status::InvalidArgument("no range for key at this LTC");
  }
  return r;
}

Status TracedGet(nova::coord::Cluster* cluster, const std::string& key,
                 std::string* value, Tracer* tracer) {
  Routed r = TracedRoute(cluster, key, tracer, Clock::now());
  if (!r.status.ok()) {
    return r.status;
  }
  Clock::time_point t = Clock::now();
  Status s = r.engine->Get(key, value);
  tracer->Add(kSpanEngine, t, Clock::now());
  return s;
}

Status TracedPut(nova::coord::Cluster* cluster, const std::string& key,
                 const std::string& value, Tracer* tracer) {
  Routed r = TracedRoute(cluster, key, tracer, Clock::now());
  if (!r.status.ok()) {
    return r.status;
  }
  Clock::time_point t = Clock::now();
  Status s = r.engine->Put(key, value);
  tracer->Add(kSpanEngine, t, Clock::now());
  return s;
}

Status TracedScan(nova::coord::Cluster* cluster, const std::string& start,
                  std::vector<std::pair<std::string, std::string>>* out,
                  Tracer* tracer) {
  Routed r = TracedRoute(cluster, start, tracer, Clock::now());
  if (!r.status.ok()) {
    return r.status;
  }
  Clock::time_point t = Clock::now();
  Status s = r.engine->Scan(start, kScanLength, out);
  tracer->Add(kSpanEngine, t, Clock::now());
  while (s.ok() && static_cast<int>(out->size()) < kScanLength) {
    std::string upper = r.engine->options().upper;
    if (upper.empty()) {
      break;
    }
    t = Clock::now();
    r.engine = r.ltc->RouteKey(upper);
    Clock::time_point t1 = Clock::now();
    tracer->Add(kSpanRoute, t, t1);
    if (r.engine == nullptr) {
      break;
    }
    s = r.engine->Scan(upper, kScanLength, out);
    tracer->Add(kSpanEngine, t1, Clock::now());
  }
  return s;
}

// ---------------------------------------------------------------------
// Clients: the closed loop, result checks, per-op latency.
// ---------------------------------------------------------------------

// What every client may read about the others' writes.
struct WriteLog {
  explicit WriteLog(uint64_t num_keys)
      : last_ack(kClients, std::vector<uint64_t>(num_keys, 0)) {}
  // issued[w]: highest counter writer w has sent (acknowledged or not).
  std::atomic<uint64_t> issued[kClients] = {};
  // last_ack[w][k]: counter of w's last acknowledged put to key k, 0 if
  // none. Written only by client w; read by others after all clients
  // have joined.
  std::vector<std::vector<uint64_t>> last_ack;
};

struct Client {
  Client(int id_in, uint64_t seed)
      : id(id_in), rng(Mix64(seed) ^ Mix64(0xc11e47ull + id_in)) {}
  int id;
  Rng rng;
  uint64_t counter = 0;
};

// One phase's results, merged across clients.
struct PhaseResult {
  std::vector<uint32_t> lat_ns[kNumOpTypes];  // ops completed in the window
  uint64_t completed[kNumOpTypes] = {};
  // The window cut into equal sub-windows: latencies of every op that
  // completed in each, and process CPU time at each boundary.
  std::vector<std::vector<uint32_t>> sub_lat_ns;
  std::vector<double> sub_cpu_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Trace runs alternate traced and untraced slices of the window.
  uint64_t traced_ops = 0;
  uint64_t untraced_ops = 0;
  double traced_seconds = 0;
  double untraced_seconds = 0;
  std::vector<Span> spans;
  std::string first_error;

  uint64_t ops() const {
    return completed[kGet] + completed[kPut] + completed[kScan];
  }
};

constexpr auto kTraceSlice = std::chrono::milliseconds(200);
// End-to-end figures are medians over sub-windows of about this length,
// so one stalled second moves them less than it moves a window mean.
constexpr double kSubWindowSeconds = 1.0;

double ProcessCpuUs() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

class Bench {
 public:
  Bench(const Workload& w, uint64_t seed)
      : w_(w),
        values_(seed),
        chooser_(w.num_keys, w.zipf_theta),
        writes_(w.num_keys),
        cluster_(std::make_unique<nova::coord::Cluster>(OptionsFor(w))) {
    for (int c = 0; c < kClients; c++) {
      clients_.emplace_back(c, seed);
    }
  }

  nova::coord::Cluster* cluster() { return cluster_.get(); }
  const Workload& workload() const { return w_; }

  // Start the cluster and write every key once (kClients threads).
  PhaseResult Load() {
    cluster_->Start();
    std::atomic<uint64_t> next{0};
    return RunThreads([&](int, PhaseResult* r) {
      std::string value;
      for (;;) {
        uint64_t k = next.fetch_add(1);
        if (k >= w_.num_keys) {
          return;
        }
        std::string key = KeyOf(k);
        values_.Make(key, {kLoadWriter, 0}, &value);
        r->attempted++;
        Status s = cluster_->Put(key, value);
        if (!s.ok()) {
          Fail(r, "load put " + key + ": " + s.ToString());
        }
      }
    });
  }

  void Quiesce() {
    for (nova::ltc::RangeEngine* e : cluster_->ltc(0)->ranges()) {
      e->FlushAllMemtables();
    }
    for (nova::ltc::RangeEngine* e : cluster_->ltc(0)->ranges()) {
      e->WaitForQuiescence(/*flush_all=*/true);
    }
  }

  // Run the workload's mix for `seconds`. Ops that complete inside the
  // window are timed; every op's result is checked.
  PhaseResult RunMix(double seconds, bool trace) {
    Clock::time_point start = Clock::now();
    Clock::duration length = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
    Clock::time_point deadline = start + length;
    size_t subs = std::max<size_t>(1, std::lround(seconds / kSubWindowSeconds));
    Clock::duration sub = length / subs;
    std::vector<double> cpu_us;
    PhaseResult result = RunThreads(
        [&](int c, PhaseResult* r) {
          r->sub_lat_ns.resize(subs);
          ClientLoop(&clients_[c], start, deadline, sub, trace, r);
        },
        [&] {
          for (size_t i = 0; i <= subs; i++) {
            std::this_thread::sleep_until(start + sub * i);
            cpu_us.push_back(ProcessCpuUs());
          }
        });
    result.sub_cpu_us = std::move(cpu_us);
    if (trace) {
      int64_t slice = Nanos(kTraceSlice);
      int64_t total = Nanos(deadline - start);
      for (int64_t s = 0; s * slice < total; s++) {
        double len = static_cast<double>(std::min(slice, total - s * slice)) /
                     1e9;
        (s % 2 == 1 ? result.traced_seconds : result.untraced_seconds) += len;
      }
    }
    return result;
  }

  // Read every key back after all writers stopped: the value must be
  // the last acknowledged write of whichever writer it names.
  PhaseResult VerifyAll() {
    std::atomic<uint64_t> next{0};
    return RunThreads([&](int, PhaseResult* r) {
      std::string value;
      for (;;) {
        uint64_t k = next.fetch_add(1);
        if (k >= w_.num_keys) {
          return;
        }
        std::string key = KeyOf(k);
        r->attempted++;
        Status s = cluster_->Get(key, &value);
        ValueId id;
        if (!s.ok()) {
          Fail(r, "verify get " + key + ": " + s.ToString());
        } else if (!values_.Check(key, value, &id)) {
          Fail(r, "verify get " + key + ": corrupt value");
        } else if (!IsLatest(k, id)) {
          Fail(r, "verify get " + key + ": stale value");
        }
      }
    });
  }

 private:
  // Runs fn(client, result) on kClients threads and `meanwhile` on the
  // calling thread, then merges the clients' results.
  template <typename Fn>
  PhaseResult RunThreads(
      Fn fn, const std::function<void()>& meanwhile = [] {}) {
    std::vector<PhaseResult> parts(kClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; c++) {
      threads.emplace_back([&, c] { fn(c, &parts[c]); });
    }
    meanwhile();
    for (auto& t : threads) {
      t.join();
    }
    PhaseResult out;
    for (PhaseResult& p : parts) {
      for (int op = 0; op < kNumOpTypes; op++) {
        out.lat_ns[op].insert(out.lat_ns[op].end(), p.lat_ns[op].begin(),
                              p.lat_ns[op].end());
        out.completed[op] += p.completed[op];
      }
      out.sub_lat_ns.resize(
          std::max(out.sub_lat_ns.size(), p.sub_lat_ns.size()));
      for (size_t i = 0; i < p.sub_lat_ns.size(); i++) {
        std::vector<uint32_t>& to = out.sub_lat_ns[i];
        to.insert(to.end(), p.sub_lat_ns[i].begin(), p.sub_lat_ns[i].end());
      }
      out.attempted += p.attempted;
      out.failed += p.failed;
      out.traced_ops += p.traced_ops;
      out.untraced_ops += p.untraced_ops;
      out.spans.insert(out.spans.end(), p.spans.begin(), p.spans.end());
      if (out.first_error.empty()) {
        out.first_error = p.first_error;
      }
    }
    return out;
  }

  static void Fail(PhaseResult* r, const std::string& why) {
    r->failed++;
    if (r->first_error.empty()) {
      r->first_error = why;
    }
  }

  // Final value of key k after every writer stopped.
  bool IsLatest(uint64_t k, ValueId id) const {
    if (id.writer == kLoadWriter) {
      if (id.counter != 0) {
        return false;
      }
      for (int w = 0; w < kClients; w++) {
        if (writes_.last_ack[w][k] != 0) {
          return false;  // an acknowledged put came after the load
        }
      }
      return true;
    }
    return id.writer < static_cast<uint32_t>(kClients) &&
           id.counter == writes_.last_ack[id.writer][k];
  }

  // A get seen by client `me` while others may be writing.
  bool IsPlausible(const Client& me, uint64_t k, ValueId id) const {
    if (w_.pct[kPut] == 0) {
      return id.writer == kLoadWriter && id.counter == 0;
    }
    uint64_t mine = writes_.last_ack[me.id][k];
    if (id.writer == kLoadWriter) {
      return id.counter == 0 && mine == 0;  // read-your-writes
    }
    if (id.writer == static_cast<uint32_t>(me.id)) {
      return id.counter == mine;  // my newest write to k, nothing older
    }
    return id.writer < static_cast<uint32_t>(kClients) && id.counter >= 1 &&
           id.counter <= writes_.issued[id.writer].load();
  }

  std::string Describe(const Client& me, uint64_t k, ValueId id) const {
    return "(writer " + std::to_string(id.writer) + " counter " +
           std::to_string(id.counter) + "; client " + std::to_string(me.id) +
           " last acknowledged " + std::to_string(writes_.last_ack[me.id][k]) +
           ")";
  }

  OpType PickOp(Client* c) {
    int roll = static_cast<int>(c->rng.Uniform(100));
    if (roll < w_.pct[kGet]) {
      return kGet;
    }
    return roll < w_.pct[kGet] + w_.pct[kPut] ? kPut : kScan;
  }

  void ClientLoop(Client* c, Clock::time_point start,
                  Clock::time_point deadline, Clock::duration sub, bool trace,
                  PhaseResult* r) {
    std::string key;
    std::string value;
    std::string got;
    std::vector<std::pair<std::string, std::string>> rows;
    for (uint64_t seq = 0;; seq++) {
      Clock::time_point now = Clock::now();
      if (now >= deadline) {
        return;
      }
      bool traced = trace && ((now - start) / kTraceSlice) % 2 == 1;
      OpType op = PickOp(c);
      uint64_t k = chooser_.Next(&c->rng);
      key = KeyOf(k);
      ValueId put_id{static_cast<uint32_t>(c->id), 0};
      if (op == kPut) {
        put_id.counter = ++c->counter;
        writes_.issued[c->id].store(put_id.counter);
        values_.Make(key, put_id, &value);
      }
      rows.clear();
      size_t first_span = r->spans.size();
      uint64_t op_id = (uint64_t{static_cast<uint32_t>(c->id)} << 48) | seq;
      Tracer tracer(&r->spans, op_id, op, start);
      Status s;
      Clock::time_point t0 = Clock::now();
      if (traced) {
        switch (op) {
          case kGet:
            s = TracedGet(cluster_.get(), key, &got, &tracer);
            break;
          case kPut:
            s = TracedPut(cluster_.get(), key, value, &tracer);
            break;
          default:
            s = TracedScan(cluster_.get(), key, &rows, &tracer);
            break;
        }
      } else {
        switch (op) {
          case kGet:
            s = cluster_->Get(key, &got);
            break;
          case kPut:
            s = cluster_->Put(key, value);
            break;
          default:
            s = cluster_->Scan(key, kScanLength, &rows);
            break;
        }
      }
      Clock::time_point t1 = Clock::now();
      if (traced) {
        tracer.Add(kSpanOp, t0, t1);
      }
      r->attempted++;
      std::string error = Check(c, op, k, key, s, got, rows);
      if (!error.empty()) {
        Fail(r, std::string(kOpNames[op]) + " " + key + ": " + error);
      } else if (op == kPut) {
        writes_.last_ack[c->id][k] = put_id.counter;
      }
      if (!error.empty() || t1 >= deadline) {
        r->spans.resize(first_span);  // only timed ops are traced
      } else {
        uint32_t ns = static_cast<uint32_t>(
            std::min<int64_t>(Nanos(t1 - t0), UINT32_MAX));
        r->completed[op]++;
        r->lat_ns[op].push_back(ns);
        size_t i = std::min<size_t>((t1 - start) / sub,
                                    r->sub_lat_ns.size() - 1);
        r->sub_lat_ns[i].push_back(ns);
        (traced ? r->traced_ops : r->untraced_ops)++;
      }
    }
  }

  // Empty if the op's result is right.
  std::string Check(const Client* c, OpType op, uint64_t k,
                    const std::string& key, const Status& s,
                    const std::string& got,
                    const std::vector<std::pair<std::string, std::string>>&
                        rows) const {
    if (!s.ok()) {
      return s.ToString();  // every key is loaded: NotFound is a failure
    }
    ValueId id;
    if (op == kGet) {
      if (!values_.Check(key, got, &id)) {
        return "value does not match its key";
      }
      if (!IsPlausible(*c, k, id)) {
        return "stale or unknown version " + Describe(*c, k, id);
      }
    } else if (op == kScan) {
      // Keys are dense: a scan from k returns exactly k, k+1, ... up to
      // kScanLength of them or the end of the keyspace.
      uint64_t want = std::min<uint64_t>(kScanLength, w_.num_keys - k);
      if (rows.size() != want) {
        return "scan returned " + std::to_string(rows.size()) + " rows, want " +
               std::to_string(want);
      }
      for (size_t i = 0; i < rows.size(); i++) {
        uint64_t idx = 0;
        if (!ParseKey(rows[i].first, &idx) || idx != k + i) {
          return "scan row " + std::to_string(i) + " has key " +
                 rows[i].first;
        }
        if (!values_.Check(rows[i].first, rows[i].second, &id) ||
            !IsPlausible(*c, idx, id)) {
          return "scan row " + rows[i].first + " has a wrong value";
        }
      }
    }
    return "";
  }

  const Workload& w_;
  ValueCodec values_;
  KeyChooser chooser_;
  WriteLog writes_;
  std::vector<Client> clients_;
  std::unique_ptr<nova::coord::Cluster> cluster_;
};

// ---------------------------------------------------------------------
// Counters read from the layers' public accessors.
// ---------------------------------------------------------------------

struct Counters {
  nova::ltc::RangeStats ltc;
  uint64_t stoc_read_calls = 0;
  uint64_t rdma_sends = 0;
  uint64_t rdma_write_bytes = 0;
  uint64_t dev_reads = 0;
  uint64_t dev_write_bytes = 0;
  uint64_t dev_busy_us = 0;
  uint64_t page_cache_hits = 0;
  uint64_t page_cache_misses = 0;
  uint64_t stored_bytes = 0;
  long nivcsw = 0;
  Clock::time_point at;
};

Counters ReadCounters(nova::coord::Cluster* cluster) {
  Counters c;
  c.at = Clock::now();
  nova::ltc::LtcServer* ltc = cluster->ltc(0);
  c.ltc = ltc->TotalStats();
  c.stoc_read_calls = ltc->stoc_client()->read_block_calls();
  nova::rdma::FabricStats& fs = cluster->fabric()->stats();
  c.rdma_sends = fs.num_sends.load();
  c.rdma_write_bytes = fs.bytes_written.load();
  for (int i = 0; i < cluster->num_stocs(); i++) {
    nova::SimulatedDevice* d = cluster->device(i);
    c.dev_reads += d->num_reads();
    c.dev_write_bytes += d->bytes_written();
    c.dev_busy_us += d->busy_us();
    c.page_cache_hits += cluster->stoc(i)->cache_hits();
    c.page_cache_misses += cluster->stoc(i)->cache_misses();
    c.stored_bytes += cluster->block_store(i)->TotalBytes();
  }
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  c.nivcsw = ru.ru_nivcsw;
  return c;
}

// Mean gauge values sampled while the traced window runs.
class Sampler {
 public:
  explicit Sampler(nova::coord::Cluster* cluster)
      : cluster_(cluster), thread_([this] { Loop(); }) {}
  ~Sampler() { Stop(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) {
      thread_.join();
    }
  }
  double device_queue() const { return Mean(device_queue_); }
  double flush_queue() const { return Mean(flush_queue_); }
  double compaction_queue() const { return Mean(compaction_queue_); }

 private:
  void Loop() {
    nova::ltc::LtcServer* ltc = cluster_->ltc(0);
    while (!stop_.load()) {
      double depth = 0;
      for (int i = 0; i < cluster_->num_stocs(); i++) {
        depth += cluster_->device(i)->QueueDepth();
      }
      device_queue_ += depth / cluster_->num_stocs();
      flush_queue_ += static_cast<double>(ltc->flush_pool()->queue_depth());
      compaction_queue_ +=
          static_cast<double>(ltc->compaction_pool()->queue_depth());
      samples_++;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  double Mean(double sum) const { return samples_ > 0 ? sum / samples_ : 0; }

  nova::coord::Cluster* cluster_;
  std::atomic<bool> stop_{false};
  double device_queue_ = 0;
  double flush_queue_ = 0;
  double compaction_queue_ = 0;
  int samples_ = 0;
  std::thread thread_;  // last: started after the fields it uses
};

// ---------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Percentile(std::vector<uint32_t> v, double p) {
  if (v.empty()) {
    return 0;
  }
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + idx, v.end());
  return v[idx] / 1e3;  // ns -> us
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
  uint64_t samples;
  bool higher_is_better;
};

class Report {
 public:
  void Add(std::string name, double value, const char* unit,
           uint64_t samples = 0, bool higher_is_better = false) {
    metrics_.push_back(
        {std::move(name), value, unit, samples, higher_is_better});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

  void PrintText() const {
    for (const Metric& m : metrics_) {
      printf(m.value == std::floor(m.value) ? "  %-42s %16.0f %-6s"
                                            : "  %-42s %16.6g %-6s",
             m.name.c_str(), m.value, m.unit);
      if (m.samples > 0) {
        printf(" n=%" PRIu64, m.samples);
      }
      printf("\n");
    }
  }

  // {"name": {"value": v, "unit": u}, ...}; with_samples adds "samples".
  std::string Json(bool with_samples = false) const {
    std::string out = "{";
    char buf[256];
    for (size_t i = 0; i < metrics_.size(); i++) {
      const Metric& m = metrics_[i];
      snprintf(buf, sizeof(buf),
               "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"",
               i > 0 ? ", " : "", m.name.c_str(), m.value, m.unit);
      out += buf;
      if (with_samples) {
        out += ", \"samples\": " + std::to_string(m.samples);
      }
      out += "}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

// Per-layer span statistics: p50, p99, and self time per traced op. An
// op's child spans are disjoint and lie inside the op span, so the op
// span's self time is its duration minus theirs; children have no
// children of their own.
void AddSpanMetrics(const PhaseResult& r, Report* report) {
  constexpr int kSlots = 3 + kNumOpTypes;  // op, config, route, engine_<op>
  const char* const names[kSlots] = {"op",             "coord.config",
                                     "ltc.route",      "ltc.engine_get",
                                     "ltc.engine_put", "ltc.engine_scan"};
  std::vector<uint32_t> durations_ns[kSlots];
  double self_ns[kSlots] = {};
  for (const Span& s : r.spans) {
    int64_t d = s.end_ns - s.start_ns;
    int slot = s.name == kSpanEngine ? 3 + s.op : s.name;
    durations_ns[slot].push_back(static_cast<uint32_t>(d));
    self_ns[slot] += static_cast<double>(d);
    if (s.name != kSpanOp) {
      self_ns[0] -= static_cast<double>(d);
    }
  }
  double ops = static_cast<double>(r.traced_ops);
  for (int i = 0; i < kSlots; i++) {
    std::string n = names[i];
    uint64_t count = durations_ns[i].size();
    if (i > 0) {
      report->Add(n + "_us_p50", Percentile(durations_ns[i], 0.50), "us",
                  count);
      report->Add(n + "_us_p99", Percentile(durations_ns[i], 0.99), "us",
                  count);
    }
    report->Add(n + "_self_us_per_op", Ratio(self_ns[i] / 1e3, ops), "us",
                count);
  }
}

void AddLayerMetrics(const Workload& w, nova::coord::Cluster* cluster,
                     const Counters& a, const Counters& b,
                     const PhaseResult& r, const Sampler& sampler,
                     Report* report) {
  const nova::ltc::RangeStats& x = a.ltc;
  const nova::ltc::RangeStats& y = b.ltc;
  double ops = static_cast<double>(r.ops());
  double puts = static_cast<double>(r.completed[kPut]);
  double user_bytes = puts * (kKeySize + kValueSize);
  double window_s = Seconds(b.at - a.at);
  auto d = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };

  report->Add("ltc.stall_us_per_put", Ratio(d(y.stall_us, x.stall_us), puts),
              "us");
  report->Add("ltc.lookup_index_hit_ratio",
              Ratio(d(y.lookup_index_hits, x.lookup_index_hits),
                    d(y.lookup_index_hits + y.lookup_index_misses,
                      x.lookup_index_hits + x.lookup_index_misses)),
              "ratio");
  report->Add("ltc.readahead_hit_ratio",
              Ratio(d(y.readahead_hits, x.readahead_hits),
                    d(y.readahead_issued, x.readahead_issued)),
              "ratio");
  double flushes = d(y.flushes, x.flushes);
  double merges = d(y.memtable_merges, x.memtable_merges);
  double compactions = d(y.compactions, x.compactions);
  report->Add("ltc.memtable_merge_ratio", Ratio(merges, merges + flushes),
              "ratio");
  report->Add("ltc.flushes_per_1k_puts", Ratio(1000 * flushes, puts), "count");
  report->Add("ltc.flushes_in_window", flushes, "count");
  report->Add("ltc.compactions_in_window", compactions, "count");
  report->Add("ltc.compaction_queue_us_per_job",
              Ratio(d(y.compaction_queue_us, x.compaction_queue_us),
                    compactions),
              "us");
  report->Add("ltc.flush_pool_depth", sampler.flush_queue(), "count");
  report->Add("ltc.compaction_pool_depth", sampler.compaction_queue(),
              "count");

  double hot_hits = d(y.block_cache_hits, x.block_cache_hits);
  double hot_misses = d(y.block_cache_misses, x.block_cache_misses);
  double c_hits =
      d(y.block_cache_compressed_hits, x.block_cache_compressed_hits);
  double c_misses =
      d(y.block_cache_compressed_misses, x.block_cache_compressed_misses);
  report->Add("cache.hot_hit_ratio", Ratio(hot_hits, hot_hits + hot_misses),
              "ratio");
  // Compressed-tier lookups happen on hot-tier misses.
  report->Add("cache.compressed_hit_ratio_of_hot_misses",
              Ratio(c_hits, c_hits + c_misses), "ratio");
  report->Add("cache.hot_bytes", static_cast<double>(y.block_cache_bytes),
              "bytes");

  // Cumulative since cluster start: read-skew builds no tables in the
  // window, and the ratio is a property of the data, not of the window.
  report->Add("sstable.compression_ratio",
              Ratio(static_cast<double>(y.sstable_raw_bytes),
                    static_cast<double>(y.sstable_stored_bytes)),
              "ratio");
  report->Add("lsm.write_amp",
              Ratio(d(b.dev_write_bytes, a.dev_write_bytes), user_bytes),
              "ratio");
  report->Add("lsm.compaction_bytes_per_user_byte",
              Ratio(d(y.compaction_bytes_written, x.compaction_bytes_written),
                    user_bytes),
              "ratio");

  report->Add("stoc.reads_per_op",
              Ratio(d(b.stoc_read_calls, a.stoc_read_calls), ops), "count");
  report->Add("stoc.wire_bytes_per_op",
              Ratio(d(y.bytes_over_wire, x.bytes_over_wire), ops), "bytes");
  report->Add("stoc.hedge_win_ratio",
              Ratio(d(y.hedged_won, x.hedged_won),
                    d(y.hedged_issued, x.hedged_issued)),
              "ratio");
  double pc_hits = d(b.page_cache_hits, a.page_cache_hits);
  double pc_misses = d(b.page_cache_misses, a.page_cache_misses);
  report->Add("stoc.server_page_cache_hit_ratio",
              Ratio(pc_hits, pc_hits + pc_misses), "ratio");
  report->Add("rdma.sends_per_op", Ratio(d(b.rdma_sends, a.rdma_sends), ops),
              "count");
  report->Add("rdma.one_sided_write_bytes_per_put",
              Ratio(d(b.rdma_write_bytes, a.rdma_write_bytes), puts), "bytes");

  int stocs = cluster->num_stocs();
  report->Add("storage.device_queue_depth", sampler.device_queue(), "count");
  report->Add("storage.device_utilization",
              Ratio(d(b.dev_busy_us, a.dev_busy_us), window_s * 1e6 * stocs),
              "ratio");
  report->Add("storage.device_reads_per_op",
              Ratio(d(b.dev_reads, a.dev_reads), ops), "count");
  report->Add("storage.space_amp",
              Ratio(static_cast<double>(b.stored_bytes),
                    static_cast<double>(w.num_keys * (kKeySize + kValueSize))),
              "ratio");
  double stoc_util = 0;
  for (int i = 0; i < stocs; i++) {
    stoc_util += cluster->stoc(i)->throttle()->WindowUtilization();
  }
  report->Add("sim.ltc_cpu_util",
              cluster->ltc(0)->throttle()->WindowUtilization(), "ratio");
  report->Add("sim.stoc_cpu_util", stoc_util / stocs, "ratio");
}

// One JSON file per (workload, seed, trace) run: what ran, on what
// configuration, and every figure it produced.
void WriteArtifact(const std::string& path, const Workload& w, uint64_t seed,
                   int trace, const Report& record, const Report& metrics) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  nova::coord::ClusterOptions opt = OptionsFor(w);
  fprintf(f,
          "{\"workload\": \"%s\", \"seed\": %" PRIu64
          ", \"trace\": %d, \"regime\": \"%s\",\n"
          " \"config\": {\"clients\": %d, \"keys\": %" PRIu64
          ", \"value_bytes\": %zu, \"zipf_theta\": %g, \"get_pct\": %d, "
          "\"put_pct\": %d, \"scan_pct\": %d, \"ltcs\": %d, \"stocs\": %d, "
          "\"ranges\": %zu, \"rho\": %d, \"hot_tier_bytes\": %zu, "
          "\"compressed_tier_bytes\": %zu, \"memtable_bytes\": %zu, "
          "\"max_memtables\": %d, \"clusters\": %d},\n"
          " \"record\": %s,\n \"metrics\": %s}\n",
          w.name, seed, trace, w.paper_model ? "paper-model" : "real-cost",
          kClients, w.num_keys, kValueSize, w.zipf_theta, w.pct[kGet],
          w.pct[kPut], w.pct[kScan], opt.num_ltcs, opt.num_stocs,
          opt.split_points.size() + 1, opt.placement.rho,
          opt.ltc.block_cache_bytes, opt.ltc.compressed_cache_bytes,
          opt.range.memtable_size, opt.range.max_memtables, kClusters,
          record.Json(true).c_str(), metrics.Json(true).c_str());
  fclose(f);
}

// Spans of the traced slices, one per line; a child's parent is the op
// span with the same op_id.
void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  fprintf(f, "op_id,span,op,start_ns,end_ns\n");
  for (const Span& s : spans) {
    fprintf(f, "%" PRIu64 ",%s,%s,%" PRId64 ",%" PRId64 "\n", s.op_id,
            kSpanNames[s.name], kOpNames[s.op], s.start_ns, s.end_ns);
  }
  fclose(f);
}

// ---------------------------------------------------------------------
// Main: set up (several times), warm up, measure, verify, report.
// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = atof(v);
    } else if (flag == "--trace") {
      a->trace = atoi(v);
    } else if (flag == "--out") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

struct Totals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  void Add(const PhaseResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    if (first_error.empty()) {
      first_error = r.first_error;
    }
  }
};

constexpr double kWarmupWindow = 1.0;
constexpr double kWarmupMin = 3.0;
constexpr double kWarmupMax = 15.0;
// Levelled off: the figure moved by at most this share between windows.
constexpr double kWarmupTolerance = 0.10;
// Warm-up of a writing workload must see this many compactions.
constexpr uint64_t kWarmupCompactions = 8;

// Warm up until the per-window figure that tracks steady state has
// levelled off: bytes written to the devices per user byte put (writing
// workloads, which must also have run several compaction cycles), or
// StoC block reads per op (read-only: the caches have filled).
double WarmUp(Bench* bench, Totals* totals) {
  nova::coord::Cluster* cluster = bench->cluster();
  bool writes = bench->workload().pct[kPut] > 0;
  Clock::time_point start = Clock::now();
  Counters first = ReadCounters(cluster);
  double prev = -1;
  for (;;) {
    Counters a = ReadCounters(cluster);
    PhaseResult r = bench->RunMix(kWarmupWindow, false);
    totals->Add(r);
    Counters b = ReadCounters(cluster);
    double level =
        writes
            ? Ratio(static_cast<double>(b.dev_write_bytes - a.dev_write_bytes),
                    static_cast<double>(r.completed[kPut]) *
                        (kKeySize + kValueSize))
            : Ratio(static_cast<double>(b.stoc_read_calls - a.stoc_read_calls),
                    static_cast<double>(r.ops()));
    double elapsed = Seconds(Clock::now() - start);
    uint64_t compactions = b.ltc.compactions - first.ltc.compactions;
    bool cycles = !writes || compactions >= kWarmupCompactions;
    bool level_off = prev >= 0 && std::fabs(level - prev) <=
                                      kWarmupTolerance * prev + 1e-3;
    printf("# warmup t=%.2f level=%.4f compactions=%" PRIu64 " ops=%" PRIu64
           "\n",
           elapsed, level, compactions, r.ops());
    prev = level;
    if ((elapsed >= kWarmupMin && cycles && level_off) ||
        elapsed >= kWarmupMax) {
      return elapsed;
    }
  }
}

// End-to-end figures of one window: medians over its sub-windows, each
// carrying the whole window's sample count.
void AddEndToEnd(const PhaseResult& window, double seconds, Report* report) {
  std::vector<double> rate, p50, p99, cpu;
  double sub_s = seconds / static_cast<double>(window.sub_lat_ns.size());
  for (size_t i = 0; i < window.sub_lat_ns.size(); i++) {
    const std::vector<uint32_t>& lat = window.sub_lat_ns[i];
    rate.push_back(static_cast<double>(lat.size()) / sub_s);
    p50.push_back(Percentile(lat, 0.50));
    p99.push_back(Percentile(lat, 0.99));
    cpu.push_back(Ratio(window.sub_cpu_us[i + 1] - window.sub_cpu_us[i],
                        static_cast<double>(lat.size())));
  }
  report->Add("ops_per_s", Median(rate), "1/s", window.ops(), true);
  report->Add("op_p50_us", Median(p50), "us", window.ops());
  report->Add("op_p99_us", Median(p99), "us", window.ops());
  report->Add("cpu_us_per_op", Median(cpu), "us", window.ops());
}

// One set-up and its share of the measured window.
struct ClusterRun {
  double setup_s = 0;
  double warmup_s = 0;
  PhaseResult window;
  Counters before;
  Counters after;
  Report metrics;  // end-to-end or per-layer figures of this cluster
};

// Set up a fresh cluster (timed from `start`), warm it up, measure it for
// `seconds`, read every key back if the workload writes, and stop it.
ClusterRun MeasureCluster(const Workload& w, uint64_t seed, double seconds,
                          bool trace, Clock::time_point start,
                          Totals* totals) {
  ClusterRun run;
  Bench bench(w, seed);
  totals->Add(bench.Load());
  if (w.quiesce_after_load) {
    bench.Quiesce();
  }
  run.warmup_s = WarmUp(&bench, totals);
  run.setup_s = Seconds(Clock::now() - start);

  nova::coord::Cluster* cluster = bench.cluster();
  std::unique_ptr<Sampler> sampler;
  if (trace) {
    cluster->ltc(0)->throttle()->ResetWindow();
    for (int i = 0; i < cluster->num_stocs(); i++) {
      cluster->stoc(i)->throttle()->ResetWindow();
    }
    sampler = std::make_unique<Sampler>(cluster);
  }
  run.before = ReadCounters(cluster);
  run.window = bench.RunMix(seconds, trace);
  run.after = ReadCounters(cluster);
  totals->Add(run.window);
  if (!trace) {
    AddEndToEnd(run.window, seconds, &run.metrics);
  } else {
    sampler->Stop();
    const PhaseResult& r = run.window;
    AddSpanMetrics(r, &run.metrics);
    AddLayerMetrics(w, cluster, run.before, run.after, r, *sampler,
                    &run.metrics);
    double untraced =
        Ratio(static_cast<double>(r.untraced_ops), r.untraced_seconds);
    double traced = Ratio(static_cast<double>(r.traced_ops), r.traced_seconds);
    run.metrics.Add("trace.untraced_ops_per_s", untraced, "1/s",
                    r.untraced_ops);
    run.metrics.Add("trace.traced_ops_per_s", traced, "1/s", r.traced_ops);
    run.metrics.Add("trace.overhead_ratio", Ratio(untraced - traced, untraced),
                    "ratio");
  }
  if (w.pct[kPut] > 0) {
    totals->Add(bench.VerifyAll());
  }
  return run;
}

// Per metric, one figure over the clusters and the sum of their sample
// counts: the best cluster's figure when `best`, else the median. Every
// cluster reports the same metrics in one order.
void AddAcrossClusters(const std::vector<ClusterRun>& runs, bool best,
                       Report* report) {
  const std::vector<Metric>& first = runs[0].metrics.metrics();
  for (size_t m = 0; m < first.size(); m++) {
    std::vector<double> values;
    uint64_t samples = 0;
    for (const ClusterRun& run : runs) {
      values.push_back(run.metrics.metrics()[m].value);
      samples += run.metrics.metrics()[m].samples;
    }
    double value = Median(values);
    if (best) {
      value = first[m].higher_is_better
                  ? *std::max_element(values.begin(), values.end())
                  : *std::min_element(values.begin(), values.end());
    }
    report->Add(first[m].name, value, first[m].unit, samples,
                first[m].higher_is_better);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: nova_perfbench --workload <name> --seed <n> "
            "--seconds <s> --trace <0|1> [--out <dir>]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) {
      w = &cand;
    }
  }
  if (w == nullptr) {
    fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  printf("# nova_perfbench workload=%s seed=%" PRIu64
         " seconds=%g trace=%d regime=%s clients=%d keys=%" PRIu64
         " value_bytes=%zu zipf=%.2f get/put/scan=%d/%d/%d\n",
         w->name, args.seed, args.seconds, args.trace,
         w->paper_model ? "paper-model" : "real-cost", kClients, w->num_keys,
         kValueSize, w->zipf_theta, w->pct[kGet], w->pct[kPut], w->pct[kScan]);
  fflush(stdout);

  // Each cluster gets its own set-up and an equal share of the window.
  // End-to-end figures are the best cluster's: on a shared host,
  // interference from other tenants only ever slows a cluster down, and
  // slow clusters still show in the record. Per-layer figures are the
  // median cluster's.
  bool trace = args.trace == 1;
  Totals totals;
  std::vector<ClusterRun> runs;
  for (int i = 0; i < kClusters; i++) {
    Clock::time_point start = i == 0 ? g_process_start : Clock::now();
    runs.push_back(MeasureCluster(*w, args.seed, args.seconds / kClusters,
                                  trace, start, &totals));
    if (i + 1 < kClusters) {
      // Only the last cluster's spans are written out.
      std::vector<Span>().swap(runs.back().window.spans);
    }
  }
  std::vector<double> setups;
  for (const ClusterRun& run : runs) {
    setups.push_back(run.setup_s);
  }
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);

  Report report;
  if (!trace) {
    report.Add("setup_s", Median(setups), "s", setups.size());
  }
  AddAcrossClusters(runs, /*best=*/!trace, &report);
  if (!trace) {
    report.Add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  }

  // Context kept with the run but not compared across runs: per-cluster
  // figures, per-op-type latency over all windows, errors, and what the
  // host and the background work did.
  Report record;
  std::vector<uint32_t> lat_ns[kNumOpTypes];
  uint64_t ops = 0;
  for (size_t i = 0; i < runs.size(); i++) {
    const ClusterRun& run = runs[i];
    const PhaseResult& win = run.window;
    std::string c = "cluster" + std::to_string(i + 1) + ".";
    record.Add(c + "setup_s", run.setup_s, "s");
    record.Add(c + "warmup_s", run.warmup_s, "s");
    record.Add(c + "window_s", Seconds(run.after.at - run.before.at), "s");
    record.Add(c + "ops_per_s_mean",
               static_cast<double>(win.ops()) * kClusters / args.seconds, "1/s",
               win.ops());
    record.Add(c + "flushes",
               static_cast<double>(run.after.ltc.flushes -
                                   run.before.ltc.flushes),
               "count");
    record.Add(c + "compactions",
               static_cast<double>(run.after.ltc.compactions -
                                   run.before.ltc.compactions),
               "count");
    record.Add(c + "involuntary_ctx_switches",
               static_cast<double>(run.after.nivcsw - run.before.nivcsw),
               "count");
    if (!trace) {
      for (const Metric& m : run.metrics.metrics()) {
        record.Add(c + m.name, m.value, m.unit, m.samples);
      }
    }
    for (int op = 0; op < kNumOpTypes; op++) {
      lat_ns[op].insert(lat_ns[op].end(), win.lat_ns[op].begin(),
                        win.lat_ns[op].end());
    }
    ops += win.ops();
  }
  for (int op = 0; op < kNumOpTypes; op++) {
    if (!lat_ns[op].empty()) {
      std::string n = kOpNames[op];
      record.Add(n + "_p50_us", Percentile(lat_ns[op], 0.50), "us",
                 lat_ns[op].size());
      record.Add(n + "_p99_us", Percentile(lat_ns[op], 0.99), "us",
                 lat_ns[op].size());
    }
  }
  record.Add("error_rate",
             Ratio(static_cast<double>(totals.failed),
                   static_cast<double>(totals.attempted)),
             "ratio", totals.attempted);
  struct sysinfo si;
  sysinfo(&si);
  record.Add("host.load1",
             static_cast<double>(si.loads[0]) / (1 << SI_LOAD_SHIFT), "count");
  record.Add("host.involuntary_ctx_switches",
             static_cast<double>(ru.ru_nivcsw), "count");
  record.PrintText();
  report.PrintText();
  if (!totals.first_error.empty()) {
    printf("# first error: %s\n", totals.first_error.c_str());
  }
  if (!args.out_dir.empty()) {
    char name[96];
    snprintf(name, sizeof(name), "/%s-seed%" PRIu64 "-trace%d.json", w->name,
             args.seed, args.trace);
    WriteArtifact(args.out_dir + name, *w, args.seed, args.trace, record,
                  report);
    if (trace) {
      WriteSpans(args.out_dir + "/" + w->name + ".spans.csv",
                 runs.back().window.spans);
    }
  }

  bool correct = totals.failed == 0 && ops > 0;
  printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
         ", \"metrics\": %s}\n",
         correct ? "true" : "false", totals.attempted, totals.failed,
         report.Json().c_str());
  fflush(stdout);
  return correct ? 0 : 1;
}
