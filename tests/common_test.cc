#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"

namespace obladi {
namespace {

TEST(SerdeTest, RoundTripScalars) {
  BinaryWriter w;
  w.PutU8(0xab);
  w.PutU16(0xbeef);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefull);
  w.PutI64(-42);
  w.PutDouble(3.25);
  w.PutBool(true);
  Bytes buf = w.Take();

  BinaryReader r(buf);
  EXPECT_EQ(r.GetU8(), 0xab);
  EXPECT_EQ(r.GetU16(), 0xbeef);
  EXPECT_EQ(r.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(r.GetU64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.GetI64(), -42);
  EXPECT_EQ(r.GetDouble(), 3.25);
  EXPECT_TRUE(r.GetBool());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SerdeTest, RoundTripStringsAndBytes) {
  BinaryWriter w;
  w.PutString("hello");
  w.PutBytes(Bytes{1, 2, 3});
  w.PutString("");
  Bytes buf = w.Take();

  BinaryReader r(buf);
  EXPECT_EQ(r.GetString(), "hello");
  EXPECT_EQ(r.GetBytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.GetString(), "");
  EXPECT_TRUE(r.ok());
}

TEST(SerdeTest, TruncatedReadSetsNotOk) {
  BinaryWriter w;
  w.PutU32(12);
  Bytes buf = w.Take();
  BinaryReader r(buf);
  r.GetU64();  // more than available
  EXPECT_FALSE(r.ok());
}

TEST(StatusTest, CodesAndMessages) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  Status nf = Status::NotFound("missing row");
  EXPECT_FALSE(nf.ok());
  EXPECT_EQ(nf.code(), StatusCode::kNotFound);
  EXPECT_NE(nf.ToString().find("missing row"), std::string::npos);
}

TEST(StatusOrTest, ValueAndError) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  StatusOr<int> e = Status::Aborted("conflict");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kAborted);
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(1), b(1), c(2);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(RngTest, UniformIsInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(7), 7u);
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformCoversRangeRoughly) {
  Rng rng(4);
  std::vector<int> counts(10, 0);
  const int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    counts[rng.Uniform(10)]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, kSamples / 10 * 0.9);
    EXPECT_LT(c, kSamples / 10 * 1.1);
  }
}

TEST(RngTest, ZipfianSkewsTowardLowRanks) {
  Rng rng(5);
  ZipfianGenerator zipf(1000, 0.99);
  int rank0 = 0, tail = 0;
  for (int i = 0; i < 20000; ++i) {
    uint64_t r = zipf.Next(rng);
    ASSERT_LT(r, 1000u);
    if (r == 0) {
      rank0++;
    }
    if (r >= 500) {
      tail++;
    }
  }
  EXPECT_GT(rank0, tail);  // head rank beats the entire upper half
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(6);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversIndexSpace) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(64, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForRunsEachIndexOnceForAnySizeAndPool) {
  // n below, at, just above and far above the worker count.
  for (size_t workers : {1u, 4u}) {
    ThreadPool pool(workers);
    for (size_t n : {0u, 1u, 3u, 4u, 5u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      pool.ParallelFor(n, [&](size_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "workers=" << workers << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ConcurrentParallelForsOnOnePoolAllComplete) {
  // Retirement and eviction encrypt through the same crypto pool at once.
  ThreadPool pool(4);
  constexpr size_t kN = 500;
  std::vector<std::atomic<int>> a(kN);
  std::vector<std::atomic<int>> b(kN);
  std::thread other([&] { pool.ParallelFor(kN, [&](size_t i) { a[i].fetch_add(1); }); });
  pool.ParallelFor(kN, [&](size_t i) { b[i].fetch_add(1); });
  other.join();
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(a[i].load(), 1);
    EXPECT_EQ(b[i].load(), 1);
  }
}

TEST(ThreadPoolTest, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { return 7 * 6; });
  EXPECT_EQ(f.get(), 42);
}

TEST(HistogramTest, PercentilesAndMean) {
  Histogram h;
  for (uint64_t i = 1; i <= 100; ++i) {
    h.Record(i);
  }
  EXPECT_EQ(h.Count(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), 50.0, 2.0);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.99)), 99.0, 2.0);
  EXPECT_EQ(h.Max(), 100u);
}

TEST(HistogramTest, EmptyHistogramIsZero) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  HistogramSummary s = h.Summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p999, 0u);
}

TEST(HistogramTest, MergeThenQuantileAccessors) {
  // Regression for the quantile accessors across Merge: two disjoint
  // thread-local histograms must yield the same tail as one combined set.
  Histogram a;
  Histogram b;
  for (uint64_t i = 1; i <= 500; ++i) {
    a.Record(i);
  }
  for (uint64_t i = 501; i <= 1000; ++i) {
    b.Record(i);
  }
  a.Merge(b);
  EXPECT_EQ(a.Count(), 1000u);
  EXPECT_NEAR(static_cast<double>(a.P50()), 500.0, 2.0);
  EXPECT_NEAR(static_cast<double>(a.P90()), 900.0, 2.0);
  EXPECT_NEAR(static_cast<double>(a.P99()), 990.0, 2.0);
  EXPECT_NEAR(static_cast<double>(a.P999()), 999.0, 2.0);
  // Merging an empty histogram and self-merge are both no-ops.
  Histogram empty;
  a.Merge(empty);
  a.Merge(a);
  EXPECT_EQ(a.Count(), 1000u);
}

TEST(HistogramTest, SummaryIsOneConsistentCut) {
  Histogram h;
  for (uint64_t i = 1; i <= 1000; ++i) {
    h.Record(i);
  }
  HistogramSummary s = h.Summary();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.sum, 500500u);
  EXPECT_DOUBLE_EQ(s.mean, 500.5);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_NEAR(static_cast<double>(s.p50), 500.0, 2.0);
  EXPECT_NEAR(static_cast<double>(s.p90), 900.0, 2.0);
  EXPECT_NEAR(static_cast<double>(s.p99), 990.0, 2.0);
  EXPECT_NEAR(static_cast<double>(s.p999), 999.0, 2.0);
  // The struct agrees with the per-accessor views taken while quiescent.
  EXPECT_EQ(s.p50, h.P50());
  EXPECT_EQ(s.p999, h.P999());
}

}  // namespace
}  // namespace obladi
