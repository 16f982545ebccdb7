#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/blocking_queue.h"
#include "common/clock.h"
#include "common/coding.h"
#include "common/crc32c.h"
#include "common/fair_queue.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/threadpool.h"

namespace logstore {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing block");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing block");
}

TEST(StatusTest, AllFactoriesProduceMatchingPredicates) {
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::TimedOut("x").IsTimedOut());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::IOError("disk gone");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(SliceTest, Basics) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  EXPECT_TRUE(s.starts_with("hel"));
  EXPECT_FALSE(s.starts_with("help"));
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
}

TEST(SliceTest, Compare) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abcd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("a") == Slice("a"));
  EXPECT_TRUE(Slice("a") != Slice("b"));
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeefu);
  PutFixed64(&buf, 0x0123456789abcdefull);
  Slice in(buf);
  uint32_t v32;
  uint64_t v64;
  ASSERT_TRUE(GetFixed32(&in, &v32));
  ASSERT_TRUE(GetFixed64(&in, &v64));
  EXPECT_EQ(v32, 0xdeadbeefu);
  EXPECT_EQ(v64, 0x0123456789abcdefull);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintRoundTripBoundaries) {
  const uint64_t values[] = {0,    1,          127,        128,
                             255,  16383,      16384,      (1ull << 32) - 1,
                             1ull << 32, UINT64_MAX};
  std::string buf;
  for (uint64_t v : values) PutVarint64(&buf, v);
  Slice in(buf);
  for (uint64_t v : values) {
    uint64_t got;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, Varint32RejectsOverflow) {
  std::string buf;
  PutVarint64(&buf, static_cast<uint64_t>(UINT32_MAX) + 1);
  Slice in(buf);
  uint32_t v;
  EXPECT_FALSE(GetVarint32(&in, &v));
}

TEST(CodingTest, VarintTruncatedFails) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  Slice in(buf.data(), buf.size() - 1);
  uint64_t v;
  EXPECT_FALSE(GetVarint64(&in, &v));
}

TEST(CodingTest, ZigZagRoundTrip) {
  const int64_t values[] = {0, -1, 1, -2, 2, INT64_MIN, INT64_MAX, -123456789};
  for (int64_t v : values) {
    EXPECT_EQ(ZigZagDecode64(ZigZagEncode64(v)), v) << v;
  }
  // Small magnitudes encode small.
  EXPECT_EQ(ZigZagEncode64(0), 0u);
  EXPECT_EQ(ZigZagEncode64(-1), 1u);
  EXPECT_EQ(ZigZagEncode64(1), 2u);
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string buf;
  PutLengthPrefixedSlice(&buf, "alpha");
  PutLengthPrefixedSlice(&buf, "");
  PutLengthPrefixedSlice(&buf, "beta");
  Slice in(buf);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &a));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &b));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &c));
  EXPECT_EQ(a.ToString(), "alpha");
  EXPECT_EQ(b.ToString(), "");
  EXPECT_EQ(c.ToString(), "beta");
}

TEST(CodingTest, VarintLengthMatchesEncoding) {
  const uint64_t values[] = {0, 127, 128, 1ull << 35, UINT64_MAX};
  for (uint64_t v : values) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(VarintLength(v), static_cast<int>(buf.size()));
  }
}

using CrcFn = uint32_t (*)(uint32_t, const char*, size_t);

// The standard check value and the RFC 3720 (iSCSI) §B.4 vectors: 32
// bytes of zeros, of ones, and ascending and descending byte values.
void ExpectKnownVectors(CrcFn extend) {
  EXPECT_EQ(extend(0, "123456789", 9), 0xe3069283u);
  char zeros[32] = {0};
  EXPECT_EQ(extend(0, zeros, sizeof(zeros)), 0x8a9136aau);
  char ones[32];
  char ascending[32];
  char descending[32];
  for (int i = 0; i < 32; ++i) {
    ones[i] = static_cast<char>(0xff);
    ascending[i] = static_cast<char>(i);
    descending[i] = static_cast<char>(31 - i);
  }
  EXPECT_EQ(extend(0, ones, sizeof(ones)), 0x62a8ab43u);
  EXPECT_EQ(extend(0, ascending, sizeof(ascending)), 0x46dd794eu);
  EXPECT_EQ(extend(0, descending, sizeof(descending)), 0x113fdb5cu);
}

TEST(Crc32cTest, KnownVectors) {
  ExpectKnownVectors(crc32c::Extend);
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xe3069283u);
}

// Test-only reference: the CRC-32C definition, one bit at a time.
uint32_t BitwiseCrc32c(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = init_crc ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    crc ^= static_cast<unsigned char>(data[i]);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0);
    }
  }
  return crc ^ 0xffffffffu;
}

TEST(Crc32cTest, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0-72 cover the 8-byte main loop with every tail length, and
  // the offsets cover every start alignment of that loop.
  Random rng(3720);
  alignas(8) char buffer[8 + 72];
  for (char& c : buffer) c = static_cast<char>(rng.Uniform(256));
  for (size_t align = 0; align < 8; ++align) {
    for (size_t n = 0; n <= 72; ++n) {
      const char* data = buffer + align;
      ASSERT_EQ(crc32c::Value(data, n), BitwiseCrc32c(0, data, n))
          << "align=" << align << " n=" << n;
      const uint32_t init = static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(crc32c::Extend(init, data, n), BitwiseCrc32c(init, data, n))
          << "align=" << align << " n=" << n;
    }
  }
}

// Each implementation behind crc32c::Extend against the same references;
// the hardware half is skipped on a CPU without the crc32 instruction.
class Crc32cPathTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam() && !crc32c::HasHardware()) {
      GTEST_SKIP() << "this CPU has no SSE4.2 crc32 instruction";
    }
  }
  CrcFn extend() const {
    return GetParam() ? crc32c::ExtendHardware : crc32c::ExtendPortable;
  }
};

TEST_P(Crc32cPathTest, KnownVectors) { ExpectKnownVectors(extend()); }

TEST_P(Crc32cPathTest, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0-300 cross every tail length of an 8-byte loop many times
  // over; offsets 0-15 start it at every alignment of a 16-byte line.
  Random rng(3720);
  alignas(16) char buffer[16 + 300];
  for (char& c : buffer) c = static_cast<char>(rng.Uniform(256));
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t n = 0; n <= 300; ++n) {
      const char* data = buffer + offset;
      ASSERT_EQ(extend()(0, data, n), BitwiseCrc32c(0, data, n))
          << "offset=" << offset << " n=" << n;
      const uint32_t init = static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(extend()(init, data, n), BitwiseCrc32c(init, data, n))
          << "offset=" << offset << " n=" << n << " init=" << init;
    }
  }
}

TEST_P(Crc32cPathTest, MatchesBitwiseReferenceOnOneMebibyte) {
  Random rng(1 << 20);
  std::string data(1 << 20, '\0');
  for (char& c : data) c = static_cast<char>(rng.Uniform(256));
  const uint32_t init = static_cast<uint32_t>(rng.Next());
  EXPECT_EQ(extend()(init, data.data(), data.size()),
            BitwiseCrc32c(init, data.data(), data.size()));
}

INSTANTIATE_TEST_SUITE_P(Paths, Crc32cPathTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "hardware" : "portable";
                         });

TEST(Crc32cTest, ExtendComposes) {
  const std::string data = "hello world, this is logstore";
  const uint32_t whole = crc32c::Value(data.data(), data.size());
  uint32_t partial = crc32c::Value(data.data(), 10);
  partial = crc32c::Extend(partial, data.data() + 10, data.size() - 10);
  EXPECT_EQ(whole, partial);
}

TEST(Crc32cTest, MaskRoundTrip) {
  const uint32_t crc = crc32c::Value("abc", 3);
  EXPECT_NE(crc32c::Mask(crc), crc);
  EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
}

TEST(HashTest, DeterministicAndSeeded) {
  EXPECT_EQ(Hash64("tenant-42"), Hash64("tenant-42"));
  EXPECT_NE(Hash64("tenant-42"), Hash64("tenant-43"));
  EXPECT_NE(Hash64("tenant-42", 1), Hash64("tenant-42", 2));
}

TEST(HashTest, SpreadsLowBits) {
  // Sequential keys should not collide in the low bits used for sharding.
  std::vector<int> bucket_counts(16, 0);
  for (int i = 0; i < 1600; ++i) {
    bucket_counts[Hash64("key" + std::to_string(i)) % 16]++;
  }
  for (int count : bucket_counts) {
    EXPECT_GT(count, 50);  // perfectly uniform would be 100
    EXPECT_LT(count, 150);
  }
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformInRange) {
  Random rng(1234);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    const int64_t r = rng.UniformRange(-5, 5);
    EXPECT_GE(r, -5);
    EXPECT_LE(r, 5);
  }
}

TEST(ManualClockTest, AdvanceAndSleep) {
  ManualClock clock(100);
  EXPECT_EQ(clock.NowMicros(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.NowMicros(), 150);
  clock.SleepMicros(25);  // advances instead of blocking
  EXPECT_EQ(clock.NowMicros(), 175);
  clock.Set(0);
  EXPECT_EQ(clock.NowMicros(), 0);
}

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> q(10, 0);
  ASSERT_TRUE(q.TryPush(1));
  ASSERT_TRUE(q.TryPush(2));
  ASSERT_TRUE(q.TryPush(3));
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_EQ(*q.Pop(), 3);
}

TEST(BlockingQueueTest, ItemLimitRejects) {
  BlockingQueue<int> q(2, 0);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // backpressure
  q.Pop();
  EXPECT_TRUE(q.TryPush(3));
}

TEST(BlockingQueueTest, ByteLimitRejects) {
  BlockingQueue<int> q(0, 100);
  EXPECT_TRUE(q.TryPush(1, 60));
  EXPECT_FALSE(q.TryPush(2, 60));  // 120 > 100
  EXPECT_TRUE(q.TryPush(3, 40));   // exactly at limit
  EXPECT_EQ(q.bytes(), 100u);
}

TEST(BlockingQueueTest, OversizedItemAdmittedWhenEmpty) {
  BlockingQueue<int> q(0, 10);
  // A single item larger than the byte budget must still be admitted,
  // otherwise it could never be processed.
  EXPECT_TRUE(q.TryPush(1, 1000));
  EXPECT_FALSE(q.TryPush(2, 1));
}

TEST(BlockingQueueTest, CloseDrainsThenStops) {
  BlockingQueue<int> q(10, 0);
  q.TryPush(1);
  q.Close();
  EXPECT_FALSE(q.TryPush(2));
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BlockingQueueTest, BlockingPushWakesOnPop) {
  BlockingQueue<int> q(1, 0);
  ASSERT_TRUE(q.TryPush(1));
  std::thread producer([&] { EXPECT_TRUE(q.Push(2)); });
  // Give the producer a moment to block, then free a slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(*q.Pop(), 1);
  producer.join();
  EXPECT_EQ(*q.Pop(), 2);
}

TEST(FairQueueTest, RoundRobinAcrossOwnersFifoWithinOwner) {
  FairQueue<int> queue;
  queue.Push(1, 10);
  queue.Push(1, 11);
  queue.Push(1, 12);
  queue.Push(2, 20);
  queue.Push(3, 30);
  std::vector<int> popped;
  int item = 0;
  while (queue.PopNext(&item)) popped.push_back(item);
  // Owners served 1,2,3,1,1 (wrap), FIFO within owner 1.
  EXPECT_EQ(popped, (std::vector<int>{10, 20, 30, 11, 12}));
  EXPECT_TRUE(queue.empty());
}

TEST(ThreadPoolTest, OwnersTakeTurnsAndKeepTheirOrder) {
  // The only pool thread is held on owner 1's first task while owner 1
  // queues a backlog and owner 2 queues one task. Once the gate opens,
  // owner 2 runs next, not behind the backlog, and owner 1's tasks keep
  // their order.
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool gate_open = false;
  std::vector<int> order;
  auto record = [&](int id) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(id);
  };
  pool.Schedule(1, [&] {
    std::unique_lock<std::mutex> lock(mu);
    order.push_back(10);
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return gate_open; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started; });
  }
  for (int id : {11, 12, 13, 14}) pool.Schedule(1, [&, id] { record(id); });
  pool.Schedule(2, [&] { record(20); });
  EXPECT_EQ(pool.queue_depth(), 5u);
  {
    std::lock_guard<std::mutex> lock(mu);
    gate_open = true;
  }
  cv.notify_all();
  pool.Wait();
  EXPECT_EQ(order, (std::vector<int>{10, 20, 11, 12, 13, 14}));
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.Schedule([&] { counter++; });
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SubmitReturnsFutureValue) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ParallelismIsReal) {
  ThreadPool pool(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 8; ++i) {
    pool.Schedule([&] {
      const int now = ++concurrent;
      int old = peak.load();
      while (now > old && !peak.compare_exchange_weak(old, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      --concurrent;
    });
  }
  pool.Wait();
  EXPECT_GE(peak.load(), 2);
}

}  // namespace
}  // namespace logstore
