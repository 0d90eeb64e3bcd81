// Unit tests for src/util: RNG, CRC-32, byte IO, strings, tables, result,
// thread pool.

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "util/bounded_queue.h"
#include "util/byte_io.h"
#include "util/sha1.h"
#include "util/crc32.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace apichecker::util {
namespace {

TEST(SplitMix64, IsDeterministicAndMixes) {
  EXPECT_EQ(SplitMix64(0), SplitMix64(0));
  EXPECT_NE(SplitMix64(0), SplitMix64(1));
  // Single-bit input changes flip roughly half the output bits.
  const uint64_t a = SplitMix64(0x1234);
  const uint64_t b = SplitMix64(0x1235);
  const int differing = std::popcount(a ^ b);
  EXPECT_GT(differing, 16);
  EXPECT_LT(differing, 48);
}

TEST(Rng, SameSeedSameStream) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBoundedInRange) {
  Rng rng(3);
  for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(Rng, UniformIntCoversEndpoints) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10'000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20'000; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 20'000.0, 0.3, 0.02);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(23);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(2.0, 3.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(Rng, LogNormalMedian) {
  Rng rng(29);
  std::vector<double> vs;
  for (int i = 0; i < 20'001; ++i) {
    vs.push_back(rng.LogNormal(5.0, 0.7));
  }
  std::nth_element(vs.begin(), vs.begin() + 10'000, vs.end());
  EXPECT_NEAR(vs[10'000], 5.0, 0.25);
}

TEST(Rng, PoissonMean) {
  Rng rng(31);
  for (double mean : {0.5, 4.0, 120.0}) {
    double sum = 0.0;
    for (int i = 0; i < 20'000; ++i) {
      sum += static_cast<double>(rng.Poisson(mean));
    }
    EXPECT_NEAR(sum / 20'000.0, mean, mean * 0.05 + 0.05);
  }
  EXPECT_EQ(rng.Poisson(0.0), 0u);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(37);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 20'000; ++i) {
    ++counts[rng.WeightedIndex(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(41);
  const auto perm = rng.Permutation(257);
  std::set<uint32_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 257u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 256u);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(43);
  const auto sample = rng.SampleWithoutReplacement(100, 30);
  std::set<uint32_t> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 30u);
  for (uint32_t v : seen) {
    EXPECT_LT(v, 100u);
  }
  EXPECT_EQ(rng.SampleWithoutReplacement(5, 10).size(), 5u);
  EXPECT_TRUE(rng.SampleWithoutReplacement(5, 0).empty());
}

TEST(Rng, ForkIsIndependentOfParentState) {
  Rng a(99);
  const Rng fork_before = a.Fork(1);
  a.Next();
  a.Next();
  Rng fork_after = a.Fork(1);
  Rng fork_before_copy = fork_before;
  // Forking depends only on the origin seed and stream id, not on how much
  // of the parent stream was consumed.
  EXPECT_EQ(fork_before_copy.Next(), fork_after.Next());
  EXPECT_NE(a.Fork(1).Next(), a.Fork(2).Next());
}

TEST(ZipfSampler, HeadDominates) {
  ZipfSampler zipf(1000, 1.0);
  Rng rng(47);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 50'000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[500]);
  double pmf_sum = 0.0;
  for (size_t r = 0; r < zipf.size(); ++r) {
    pmf_sum += zipf.Pmf(r);
  }
  EXPECT_NEAR(pmf_sum, 1.0, 1e-9);
}

TEST(Crc32, KnownVector) {
  // The canonical CRC-32 check value: CRC of "123456789" is 0xCBF43926.
  const std::string s = "123456789";
  EXPECT_EQ(Crc32({reinterpret_cast<const uint8_t*>(s.data()), s.size()}), 0xCBF43926u);
}

TEST(Crc32, EmptyInput) {
  EXPECT_EQ(Crc32({}), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  std::vector<uint8_t> data(1000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31);
  }
  uint32_t state = Crc32Init();
  state = Crc32Update(state, std::span<const uint8_t>(data).subspan(0, 100));
  state = Crc32Update(state, std::span<const uint8_t>(data).subspan(100));
  EXPECT_EQ(Crc32Final(state), Crc32(data));
}

TEST(ByteIo, RoundTripsPrimitives) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutU16(0x1234);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutString("hello");
  const auto bytes = w.TakeBytes();
  ByteReader r(bytes);
  EXPECT_EQ(*r.ReadU8(), 0xAB);
  EXPECT_EQ(*r.ReadU16(), 0x1234);
  EXPECT_EQ(*r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(*r.ReadString(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

class Uleb128RoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Uleb128RoundTrip, RoundTrips) {
  ByteWriter w;
  w.PutUleb128(GetParam());
  const auto bytes = w.TakeBytes();
  ByteReader r(bytes);
  EXPECT_EQ(*r.ReadUleb128(), GetParam());
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(EdgeValues, Uleb128RoundTrip,
                         ::testing::Values(0ull, 1ull, 127ull, 128ull, 129ull, 16'383ull,
                                           16'384ull, 0xFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull));

TEST(ByteIo, UnderrunIsError) {
  const std::vector<uint8_t> bytes = {1, 2};
  ByteReader r(bytes);
  EXPECT_FALSE(r.ReadU32().ok());
  ByteReader r2(bytes);
  EXPECT_FALSE(r2.ReadBytes(3).ok());
}

TEST(ByteIo, TruncatedUlebIsError) {
  const std::vector<uint8_t> bytes = {0x80, 0x80};  // Continuation never ends.
  ByteReader r(bytes);
  EXPECT_FALSE(r.ReadUleb128().ok());
}

TEST(ByteIo, PatchU32Overwrites) {
  ByteWriter w;
  w.PutU32(0);
  w.PutU32(42);
  w.PatchU32(0, 0xCAFEBABE);
  ByteReader r(w.bytes());
  EXPECT_EQ(*r.ReadU32(), 0xCAFEBABEu);
  EXPECT_EQ(*r.ReadU32(), 42u);
}

TEST(ByteIo, SeekBoundsChecked) {
  const std::vector<uint8_t> bytes = {1, 2, 3};
  ByteReader r(bytes);
  EXPECT_TRUE(r.Seek(3).ok());
  EXPECT_FALSE(r.Seek(4).ok());
}

TEST(Result, ValueAndError) {
  Result<int> ok = 5;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);
  Result<int> bad = Err("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), "nope");
}

TEST(Strings, FormatAndSplitJoin) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(Split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Join({"a", "b"}, "::"), "a::b");
  EXPECT_TRUE(StartsWith("android.permission.SEND_SMS", "android."));
  EXPECT_TRUE(EndsWith("android.permission.SEND_SMS", "SEND_SMS"));
  EXPECT_FALSE(EndsWith("x", "xyz"));
  EXPECT_EQ(FormatPercent(0.986), "98.6%");
  EXPECT_EQ(FormatCount(42'300'000.0), "42.3M");
  EXPECT_EQ(FormatCount(1'500.0), "1.5K");
}

TEST(Table, RendersAlignedAndCsv) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22,2"});
  std::ostringstream text, csv;
  t.Print(text);
  t.PrintCsv(csv);
  EXPECT_NE(text.str().find("| alpha"), std::string::npos);
  EXPECT_NE(csv.str().find("\"22,2\""), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, SubmitAndWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(Sha1, KnownVectors) {
  const auto hex = [](const char* s) {
    return Sha1Hex(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(s), std::char_traits<char>::length(s)));
  };
  EXPECT_EQ(hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(hex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  // 1000 'a's: exercises multi-block input and the two-block length tail.
  const std::string a1000(1000, 'a');
  EXPECT_EQ(hex(a1000.c_str()), "291e9a6c66994949b57ba5e650361e98fc36b1ba");
}

TEST(Sha1, DistinctInputsDistinctDigests) {
  std::vector<uint8_t> a = {1, 2, 3, 4};
  std::vector<uint8_t> b = {1, 2, 3, 5};
  EXPECT_NE(Sha1Hex(a), Sha1Hex(b));
  EXPECT_EQ(Sha1Hex(a).size(), 2 * kSha1DigestSize);
}

TEST(BoundedQueue, TryPushRejectsWhenFull) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // Backpressure: reject, don't grow.
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.capacity(), 2u);
}

// Priority ordering moved up into serve::SubmissionShards' per-class lanes
// (weighted-fair pop); the queue itself is strict FIFO.
TEST(BoundedQueue, PopsInStrictFifoOrder) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.TryPush(1));
  ASSERT_TRUE(queue.TryPush(2));
  ASSERT_TRUE(queue.TryPush(99));
  EXPECT_EQ(queue.TryPop(), 1);
  EXPECT_EQ(queue.TryPop(), 2);
  EXPECT_EQ(queue.TryPop(), 99);
  EXPECT_EQ(queue.TryPop(), std::nullopt);
}

TEST(BoundedQueue, CloseDrainsRemainingThenReturnsNullopt) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.TryPush(7));
  ASSERT_TRUE(queue.TryPush(8));
  queue.Close();
  EXPECT_TRUE(queue.closed());
  EXPECT_FALSE(queue.TryPush(9));  // No new work after close.
  EXPECT_EQ(queue.TryPop(), 7);    // Existing work still drains.
  EXPECT_EQ(queue.TryPop(), 8);
  EXPECT_EQ(queue.TryPop(), std::nullopt);
  EXPECT_EQ(queue.size(), 0u);
}

// Concurrent producers and consumers on the non-blocking calls, as the shard
// lanes see them: a full queue rejects (the producer retries), an empty one
// returns nullopt, and every item pushed is popped exactly once.
TEST(BoundedQueue, MpmcStressAccountsForEveryItem) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 500;
  BoundedQueue<int> queue(16);
  std::atomic<long> sum{0};
  std::atomic<int> popped{0};
  std::atomic<int> producers_done{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      for (;;) {
        // Read the done count BEFORE the pop: once every producer is done, an
        // empty pop means nothing can arrive any more.
        const bool all_pushed = producers_done.load() == kProducers;
        if (auto item = queue.TryPop()) {
          sum.fetch_add(*item);
          popped.fetch_add(1);
        } else if (all_pushed) {
          return;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        while (!queue.TryPush(p * kPerProducer + i)) {
          std::this_thread::yield();  // Full: backpressure, retry.
        }
      }
      producers_done.fetch_add(1);
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  for (auto& t : consumers) {
    t.join();
  }
  queue.Close();
  constexpr long kTotal = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), kTotal);
  EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2);
  EXPECT_EQ(queue.TryPop(), std::nullopt);
}

}  // namespace
}  // namespace apichecker::util
