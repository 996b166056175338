#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "util/coding.h"
#include "util/crc32c.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/slab_allocator.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/zipfian.h"

namespace nova {
namespace {

TEST(SliceTest, Basics) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s.ToString(), "hello");
  EXPECT_TRUE(s.starts_with("he"));
  EXPECT_FALSE(s.starts_with("eh"));
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
  EXPECT_LT(Slice("a").compare("b"), 0);
  EXPECT_GT(Slice("b").compare("a"), 0);
  EXPECT_EQ(Slice("ab").compare("ab"), 0);
  EXPECT_LT(Slice("a").compare("ab"), 0);
}

TEST(StatusTest, CodesAndMessages) {
  EXPECT_TRUE(Status::OK().ok());
  Status nf = Status::NotFound("missing");
  EXPECT_TRUE(nf.IsNotFound());
  EXPECT_EQ(nf.ToString(), "NotFound: missing");
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::Busy("x").IsBusy());
}

TEST(CodingTest, FixedRoundTrip) {
  std::string s;
  PutFixed32(&s, 0xdeadbeef);
  PutFixed64(&s, 0x123456789abcdef0ull);
  Slice in(s);
  uint32_t v32;
  uint64_t v64;
  ASSERT_TRUE(GetFixed32(&in, &v32));
  ASSERT_TRUE(GetFixed64(&in, &v64));
  EXPECT_EQ(v32, 0xdeadbeefu);
  EXPECT_EQ(v64, 0x123456789abcdef0ull);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintRoundTrip) {
  std::string s;
  std::vector<uint64_t> values;
  for (uint64_t v = 0; v < 64; v++) {
    values.push_back(v);
    values.push_back(1ull << v);
    values.push_back((1ull << v) - 1);
  }
  for (uint64_t v : values) {
    PutVarint64(&s, v);
  }
  Slice in(s);
  for (uint64_t v : values) {
    uint64_t got;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, Varint32Truncated) {
  std::string s;
  PutVarint32(&s, 1u << 30);
  s.resize(s.size() - 1);  // chop the final byte
  Slice in(s);
  uint32_t v;
  EXPECT_FALSE(GetVarint32(&in, &v));
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string s;
  PutLengthPrefixedSlice(&s, "abc");
  PutLengthPrefixedSlice(&s, "");
  PutLengthPrefixedSlice(&s, std::string(300, 'x'));
  Slice in(s);
  Slice out;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &out));
  EXPECT_EQ(out.ToString(), "abc");
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &out));
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &out));
  EXPECT_EQ(out.size(), 300u);
}

TEST(Crc32cTest, KnownProperties) {
  // Distinct inputs yield distinct CRCs; Extend composes.
  uint32_t a = crc32c::Value("hello", 5);
  uint32_t b = crc32c::Value("world", 5);
  EXPECT_NE(a, b);
  uint32_t ab = crc32c::Value("helloworld", 10);
  EXPECT_EQ(ab, crc32c::Extend(a, "world", 5));
  // Mask/Unmask are inverses and masking changes the value.
  EXPECT_EQ(crc32c::Unmask(crc32c::Mask(a)), a);
  EXPECT_NE(crc32c::Mask(a), a);
}

TEST(Crc32cTest, StandardVector) {
  // CRC32C of "123456789" is 0xE3069283 (iSCSI test vector).
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xE3069283u);
}

TEST(Crc32cTest, Rfc3720Vectors) {
  char buf[32];
  memset(buf, 0, sizeof(buf));
  EXPECT_EQ(crc32c::Value(buf, sizeof(buf)), 0x8A9136AAu);
  memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(crc32c::Value(buf, sizeof(buf)), 0x62A8AB43u);
  for (int i = 0; i < 32; i++) {
    buf[i] = static_cast<char>(i);
  }
  EXPECT_EQ(crc32c::Value(buf, sizeof(buf)), 0x46DD794Eu);
  for (int i = 0; i < 32; i++) {
    buf[i] = static_cast<char>(31 - i);
  }
  EXPECT_EQ(crc32c::Value(buf, sizeof(buf)), 0x113FDB5Cu);
}

/// Bit-at-a-time CRC32C: the definition the table-driven code must match.
uint32_t BitwiseCrc32c(const char* data, size_t n) {
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < n; i++) {
    crc ^= static_cast<uint8_t>(data[i]);
    for (int k = 0; k < 8; k++) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
    }
  }
  return crc ^ 0xffffffffu;
}

TEST(Crc32cTest, EveryLengthAndAlignmentMatchesBitwise) {
  Random rng(3720);
  char buf[64 + 8];
  for (char& b : buf) {
    b = static_cast<char>(rng.Next());
  }
  for (size_t align = 0; align < 8; align++) {
    for (size_t len = 0; len <= 64; len++) {
      EXPECT_EQ(crc32c::Value(buf + align, len),
                BitwiseCrc32c(buf + align, len))
          << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32cTest, ExtendSplitAtEveryPoint) {
  Random rng(9);
  std::string data(100, '\0');
  for (char& b : data) {
    b = static_cast<char>(rng.Next());
  }
  uint32_t whole = crc32c::Value(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); split++) {
    uint32_t head = crc32c::Value(data.data(), split);
    EXPECT_EQ(crc32c::Extend(head, data.data() + split, data.size() - split),
              whole)
        << "split " << split;
  }
}

TEST(RandomTest, UniformBounds) {
  Random rng(42);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(rng.Uniform(17), 17u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, SeedsDiverge) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; i++) {
    if (a.Next64() == b.Next64()) {
      same++;
    }
  }
  EXPECT_LT(same, 5);
}

TEST(ZipfianTest, DefaultConstantIsSkewed) {
  // With theta=0.99 the paper reports ~85% of requests to 10% of keys.
  const uint64_t n = 10000;
  ZipfianGenerator gen(n, 0.99);
  Random rng(7);
  uint64_t hits_in_top10pct = 0;
  const int draws = 200000;
  for (int i = 0; i < draws; i++) {
    if (gen.Next(&rng) < n / 10) {
      hits_in_top10pct++;
    }
  }
  double frac = static_cast<double>(hits_in_top10pct) / draws;
  EXPECT_GT(frac, 0.75);
  EXPECT_LT(frac, 0.95);
}

TEST(ZipfianTest, LowerThetaLessSkewed) {
  const uint64_t n = 10000;
  Random rng(7);
  auto frac_top10 = [&](double theta) {
    ZipfianGenerator gen(n, theta);
    uint64_t hits = 0;
    const int draws = 100000;
    for (int i = 0; i < draws; i++) {
      if (gen.Next(&rng) < n / 10) {
        hits++;
      }
    }
    return static_cast<double>(hits) / draws;
  };
  double f27 = frac_top10(0.27);
  double f73 = frac_top10(0.73);
  double f99 = frac_top10(0.99);
  EXPECT_LT(f27, f73);
  EXPECT_LT(f73, f99);
}

TEST(ZipfianTest, UniformIsEven) {
  const uint64_t n = 1000;
  UniformGenerator gen(n);
  Random rng(3);
  std::vector<int> counts(n, 0);
  for (int i = 0; i < 100000; i++) {
    counts[gen.Next(&rng)]++;
  }
  int min = counts[0], max = counts[0];
  for (int c : counts) {
    min = std::min(min, c);
    max = std::max(max, c);
  }
  EXPECT_GT(min, 30);
  EXPECT_LT(max, 300);
}

TEST(ZipfianTest, ScrambledCoversRange) {
  ScrambledZipfianGenerator gen(1000, 0.99);
  Random rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 5000; i++) {
    uint64_t k = gen.Next(&rng);
    ASSERT_LT(k, 1000u);
    seen.insert(k);
  }
  EXPECT_GT(seen.size(), 50u);
}

TEST(HistogramTest, PercentilesAndMerge) {
  Histogram h;
  for (int i = 1; i <= 1000; i++) {
    h.Add(i);
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.Average(), 500.5, 1.0);
  EXPECT_NEAR(h.Percentile(50), 500, 80);
  EXPECT_NEAR(h.Percentile(99), 990, 160);
  EXPECT_EQ(h.Min(), 1u);
  EXPECT_EQ(h.Max(), 1000u);

  Histogram h2;
  h2.Add(5000);
  h2.Merge(h);
  EXPECT_EQ(h2.count(), 1001u);
  EXPECT_EQ(h2.Max(), 5000u);
  h2.Clear();
  EXPECT_EQ(h2.count(), 0u);
}

TEST(SlabAllocatorTest, AllocFreeReuse) {
  SlabAllocator::Options opt;
  opt.total_bytes = 4 << 20;
  opt.slab_page_bytes = 64 << 10;
  SlabAllocator slab(opt);
  char* a = slab.Allocate(100);
  ASSERT_NE(a, nullptr);
  EXPECT_GE(a, slab.region_base());
  EXPECT_LT(a, slab.region_base() + slab.region_size());
  slab.Free(a, 100);
  char* b = slab.Allocate(100);
  EXPECT_EQ(a, b);  // freed chunk is reused
  slab.Free(b, 100);
  EXPECT_EQ(slab.allocated_bytes(), 0u);
}

TEST(SlabAllocatorTest, SizeClassesGrow) {
  SlabAllocator::Options opt;
  SlabAllocator slab(opt);
  ASSERT_GT(slab.num_size_classes(), 3u);
  for (size_t i = 1; i < slab.num_size_classes(); i++) {
    EXPECT_GT(slab.class_chunk_size(i), slab.class_chunk_size(i - 1));
  }
}

TEST(SlabAllocatorTest, Exhaustion) {
  SlabAllocator::Options opt;
  opt.total_bytes = 128 << 10;
  opt.slab_page_bytes = 64 << 10;
  SlabAllocator slab(opt);
  std::vector<char*> ptrs;
  for (;;) {
    char* p = slab.Allocate(60 << 10);
    if (p == nullptr) {
      break;
    }
    ptrs.push_back(p);
  }
  EXPECT_EQ(ptrs.size(), 2u);  // two 64 KB pages fit
  EXPECT_EQ(slab.Allocate(60 << 10), nullptr);
  for (char* p : ptrs) {
    slab.Free(p, 60 << 10);
  }
  EXPECT_NE(slab.Allocate(60 << 10), nullptr);
}

TEST(SlabAllocatorTest, OversizeRejected) {
  SlabAllocator::Options opt;
  opt.slab_page_bytes = 1 << 20;
  SlabAllocator slab(opt);
  EXPECT_EQ(slab.Allocate(2 << 20), nullptr);
}

TEST(ThreadPoolTest, ExecutesAll) {
  ThreadPool pool("test", 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(pool.Submit([&count] { count.fetch_add(1); }));
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 100);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(ThreadPoolTest, ShutdownFinishesQueued) {
  ThreadPool pool("test", 2);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; i++) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Shutdown();
  EXPECT_EQ(count.load(), 50);
}

}  // namespace
}  // namespace nova
