#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "ltc/drange.h"
#include "ltc/lookup_index.h"
#include "ltc/range_index.h"
#include "util/random.h"
#include "util/zipfian.h"

namespace nova {
namespace ltc {
namespace {

std::string Key(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "user%012llu",
           static_cast<unsigned long long>(i));
  return buf;
}

TEST(DrangeTest, StartsWithOneDrange) {
  DrangeOptions opt;
  DrangeManager mgr("", "", opt);
  EXPECT_EQ(mgr.num_dranges(), 1);
  EXPECT_EQ(mgr.RouteWrite(Key(5)), 0);
  EXPECT_TRUE(mgr.Boundaries().empty());
}

TEST(DrangeTest, MajorReorgBuildsThetaDranges) {
  DrangeOptions opt;
  opt.theta = 8;
  opt.warmup_writes = 512;
  opt.sample_rate = 1;
  DrangeManager mgr("", "", opt);
  Random rng(5);
  for (int i = 0; i < 2000; i++) {
    mgr.RouteWrite(Key(rng.Uniform(10000)));
  }
  ASSERT_TRUE(mgr.NeedsReorg());
  auto changed = mgr.MaybeReorg();
  EXPECT_FALSE(changed.empty());
  EXPECT_GE(mgr.num_dranges(), opt.theta);
  EXPECT_EQ(mgr.num_major_reorgs(), 1u);
  // Every key routes somewhere and boundaries are sorted.
  auto bounds = mgr.Boundaries();
  for (size_t i = 1; i < bounds.size(); i++) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
  for (int i = 0; i < 200; i++) {
    EXPECT_GE(mgr.RouteWrite(Key(rng.Uniform(10000))), 0);
  }
}

TEST(DrangeTest, UniformLoadIsBalancedAfterReorg) {
  DrangeOptions opt;
  opt.theta = 8;
  opt.warmup_writes = 512;
  opt.sample_rate = 1;
  DrangeManager mgr("", "", opt);
  Random rng(6);
  UniformGenerator gen(100000);
  for (int i = 0; i < 4000; i++) {
    mgr.RouteWrite(Key(gen.Next(&rng)));
  }
  mgr.MaybeReorg();
  for (int i = 0; i < 40000; i++) {
    mgr.RouteWrite(Key(gen.Next(&rng)));
  }
  // Paper Section 8.2.1: near-zero imbalance for Uniform.
  EXPECT_LT(mgr.LoadImbalance(), 0.05);
}

TEST(DrangeTest, HotPointKeyGetsDuplicated) {
  DrangeOptions opt;
  opt.theta = 8;
  opt.warmup_writes = 256;
  opt.sample_rate = 1;
  DrangeManager mgr("", "", opt);
  Random rng(7);
  // Key 0 takes ~50% of writes — far more than 2/θ.
  for (int i = 0; i < 4000; i++) {
    if (rng.OneIn(2)) {
      mgr.RouteWrite(Key(0));
    } else {
      mgr.RouteWrite(Key(1 + rng.Uniform(10000)));
    }
  }
  mgr.MaybeReorg();
  EXPECT_GT(mgr.num_duplicated_dranges(), 1);
  // Writes of the hot key spread across the duplicates.
  std::set<int> targets;
  for (int i = 0; i < 200; i++) {
    targets.insert(mgr.RouteWrite(Key(0)));
  }
  EXPECT_GT(targets.size(), 1u);
}

TEST(DrangeTest, MinorReorgMovesTranges) {
  DrangeOptions opt;
  opt.theta = 4;
  opt.gamma = 4;
  opt.warmup_writes = 256;
  opt.sample_rate = 1;
  opt.epsilon = 0.1;
  DrangeManager mgr("", "", opt);
  Random rng(8);
  // Uniform warm-up then a skewed phase concentrated in one drange.
  for (int i = 0; i < 2000; i++) {
    mgr.RouteWrite(Key(rng.Uniform(10000)));
  }
  mgr.MaybeReorg();
  uint64_t majors = mgr.num_major_reorgs();
  for (int i = 0; i < 4000; i++) {
    mgr.RouteWrite(Key(rng.Uniform(2500)));  // first quarter of keyspace
  }
  if (mgr.NeedsReorg()) {
    mgr.MaybeReorg();
  }
  EXPECT_GE(mgr.num_minor_reorgs() + (mgr.num_major_reorgs() - majors), 1u);
}

TEST(DrangeTest, SerializeRoundTrip) {
  DrangeOptions opt;
  opt.theta = 4;
  opt.warmup_writes = 128;
  opt.sample_rate = 1;
  DrangeManager mgr("", "", opt);
  Random rng(9);
  for (int i = 0; i < 1000; i++) {
    mgr.RouteWrite(Key(rng.Uniform(1000)));
  }
  mgr.MaybeReorg();
  std::string state = mgr.Serialize();

  DrangeManager restored("", "", opt);
  ASSERT_TRUE(restored.Deserialize(state));
  EXPECT_EQ(restored.num_dranges(), mgr.num_dranges());
  for (int i = 0; i < mgr.num_dranges(); i++) {
    EXPECT_EQ(restored.DrangeBounds(i), mgr.DrangeBounds(i));
  }
}

TEST(DrangeTest, StaticModeFreezesAfterFirstMajor) {
  DrangeOptions opt;
  opt.theta = 4;
  opt.warmup_writes = 128;
  opt.sample_rate = 1;
  opt.static_after_first_major = true;
  DrangeManager mgr("", "", opt);
  Random rng(10);
  for (int i = 0; i < 1000; i++) {
    mgr.RouteWrite(Key(rng.Uniform(1000)));
  }
  mgr.MaybeReorg();
  EXPECT_EQ(mgr.num_major_reorgs(), 1u);
  // Extreme skew afterwards must not trigger anything.
  for (int i = 0; i < 5000; i++) {
    mgr.RouteWrite(Key(1));
  }
  EXPECT_FALSE(mgr.NeedsReorg());
  EXPECT_TRUE(mgr.MaybeReorg().empty());
}

TEST(LookupIndexTest, UpdateAndLookup) {
  LookupIndex idx;
  idx.Update("a", 1, 10);
  idx.Update("b", 2, 11);
  uint64_t mid, seq;
  ASSERT_TRUE(idx.Lookup("a", &mid, &seq));
  EXPECT_EQ(mid, 1u);
  EXPECT_EQ(seq, 10u);
  EXPECT_FALSE(idx.Lookup("c", &mid, &seq));
  idx.Update("a", 3, 12);  // a newer write re-points the slot
  ASSERT_TRUE(idx.Lookup("a", &mid, &seq));
  EXPECT_EQ(mid, 3u);
  EXPECT_EQ(seq, 12u);
  EXPECT_EQ(idx.size(), 2u);
}

TEST(LookupIndexTest, StaleSequenceNeverOverwrites) {
  LookupIndex idx;
  idx.Update("k", 5, 100);
  idx.Update("k", 3, 50);  // older write racing in late
  uint64_t mid, seq;
  ASSERT_TRUE(idx.Lookup("k", &mid, &seq));
  EXPECT_EQ(mid, 5u);
  EXPECT_EQ(seq, 100u);
}

TEST(MidTableTest, MemtableToFileHandoff) {
  MidTable table;
  InternalKeyComparator icmp;
  auto mem = std::make_shared<MemTable>(icmp, 7);
  table.SetMemtable(7, mem);
  MidTable::Entry e;
  ASSERT_TRUE(table.Get(7, &e));
  EXPECT_FALSE(e.is_file);
  EXPECT_EQ(e.memtable.get(), mem.get());
  table.SetFile(7, 42);
  ASSERT_TRUE(table.Get(7, &e));
  EXPECT_TRUE(e.is_file);
  EXPECT_EQ(e.file_number, 42u);
  EXPECT_EQ(e.memtable, nullptr);
  table.Erase(7);
  EXPECT_FALSE(table.Get(7, &e));
}

TEST(RangeIndexTest, CollectAndSplit) {
  RangeIndex idx("", "");
  idx.AddMemtable(1, "", "");
  idx.AddL0File(100, Key(0), Key(499));
  auto view = idx.Collect(Key(250));
  ASSERT_TRUE(view.valid);
  EXPECT_EQ(view.memtables.size(), 1u);
  EXPECT_EQ(view.l0_files.size(), 1u);

  idx.SplitAt(Key(500));
  EXPECT_EQ(idx.num_partitions(), 2u);
  // Both halves inherited the entries.
  auto left = idx.Collect(Key(100));
  auto right = idx.Collect(Key(900));
  EXPECT_EQ(left.memtables.size(), 1u);
  EXPECT_EQ(right.memtables.size(), 1u);
  EXPECT_EQ(left.upper, Key(500));

  // A new memtable bounded to the right half lands only there.
  idx.AddMemtable(2, Key(500), "");
  left = idx.Collect(Key(100));
  right = idx.Collect(Key(900));
  EXPECT_EQ(left.memtables.size(), 1u);
  EXPECT_EQ(right.memtables.size(), 2u);

  idx.RemoveMemtable(1);
  idx.RemoveL0File(100);
  left = idx.Collect(Key(100));
  EXPECT_TRUE(left.memtables.empty());
  EXPECT_TRUE(left.l0_files.empty());
}

TEST(RangeIndexTest, SplitIsIdempotent) {
  RangeIndex idx("", "");
  idx.SplitAt(Key(100));
  idx.SplitAt(Key(100));
  EXPECT_EQ(idx.num_partitions(), 2u);
}

TEST(RangeIndexTest, CollectOutsideReturnsFirstAfter) {
  RangeIndex idx(Key(100), Key(200));
  auto view = idx.Collect(Key(150));
  EXPECT_TRUE(view.valid);
  view = idx.Collect(Key(500));  // past the end
  EXPECT_FALSE(view.valid);
}

}  // namespace
}  // namespace ltc
}  // namespace nova
