// Fault-injection and retry/backoff coverage for the object-store read and
// write paths: the FaultInjectingObjectStore + RetryingObjectStore pair, and
// the end-to-end guarantee that a QueryEngine scan and a DataBuilder pass
// survive a flaky store with correct results.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/data_builder.h"
#include "common/clock.h"
#include "objectstore/fault_injecting_object_store.h"
#include "objectstore/memory_object_store.h"
#include "objectstore/retrying_object_store.h"
#include "query/engine.h"
#include "rowstore/row_store.h"
#include "workload/loggen.h"

namespace logstore::objectstore {
namespace {

// Test double with exact failure control: fails the next `failures` ops
// with `failure_status`, truncates the next `truncations` GetRanges, then
// behaves like the in-memory backend.
class FlakyStore : public ObjectStore {
 public:
  Status Put(const std::string& key, const Slice& data) override {
    if (TakeFailure()) return failure_status_;
    return base_.Put(key, data);
  }
  Result<std::string> Get(const std::string& key) override {
    if (TakeFailure()) return failure_status_;
    return base_.Get(key);
  }
  Result<std::string> GetRange(const std::string& key, uint64_t offset,
                               uint64_t length) override {
    if (TakeFailure()) return failure_status_;
    auto result = base_.GetRange(key, offset, length);
    if (result.ok() && truncations_.fetch_sub(1) > 0 && result->size() > 1) {
      result->resize(result->size() / 2);
    }
    return result;
  }
  Result<uint64_t> Head(const std::string& key) override {
    return base_.Head(key);
  }
  Result<std::vector<std::string>> List(const std::string& prefix) override {
    if (TakeFailure()) return failure_status_;
    return base_.List(prefix);
  }
  Status Delete(const std::string& key) override {
    if (TakeFailure()) return failure_status_;
    return base_.Delete(key);
  }
  ObjectStoreStats& stats() override { return base_.stats(); }

  void FailNext(int n, Status status = Status::IOError("flaky")) {
    failure_status_ = std::move(status);
    failures_.store(n);
  }
  void TruncateNext(int n) { truncations_.store(n); }
  MemoryObjectStore& base() { return base_; }

 private:
  bool TakeFailure() { return failures_.fetch_sub(1) > 0; }

  MemoryObjectStore base_;
  std::atomic<int> failures_{0};
  std::atomic<int> truncations_{0};
  Status failure_status_ = Status::IOError("flaky");
};

RetryOptions FastRetryOptions() {
  RetryOptions options;
  options.max_attempts = 4;
  options.initial_backoff_us = 10;
  options.max_backoff_us = 100;
  options.call_deadline_us = 0;
  return options;
}

TEST(FaultInjectingStoreTest, DeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    MemoryObjectStore base;
    EXPECT_TRUE(base.Put("k", "value-bytes").ok());
    FaultInjectionOptions options;
    options.error_rate = 0.3;
    options.seed = seed;
    FaultInjectingObjectStore store(&base, options);
    std::string pattern;
    for (int i = 0; i < 200; ++i) {
      pattern.push_back(store.Get("k").ok() ? '.' : 'X');
    }
    return pattern;
  };
  const std::string a = run(7), b = run(7), c = run(8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a.find('X'), std::string::npos);
  EXPECT_NE(a.find('.'), std::string::npos);
}

TEST(FaultInjectingStoreTest, ErrorRateApproximatelyHonored) {
  MemoryObjectStore base;
  ASSERT_TRUE(base.Put("k", "v").ok());
  FaultInjectionOptions options;
  options.error_rate = 0.3;
  options.seed = 11;
  FaultInjectingObjectStore store(&base, options);
  int failures = 0;
  for (int i = 0; i < 1000; ++i) {
    if (!store.Get("k").ok()) ++failures;
  }
  EXPECT_GT(failures, 200);
  EXPECT_LT(failures, 400);
  EXPECT_EQ(store.fault_stats().injected_errors.load(),
            static_cast<uint64_t>(failures));
  EXPECT_EQ(store.fault_stats().ops.load(), 1000u);
}

TEST(FaultInjectingStoreTest, ShortReadsReturnStrictPrefix) {
  MemoryObjectStore base;
  ASSERT_TRUE(base.Put("k", "0123456789").ok());
  FaultInjectionOptions options;
  options.short_read_rate = 1.0;
  options.seed = 3;
  FaultInjectingObjectStore store(&base, options);
  for (int i = 0; i < 20; ++i) {
    auto got = store.GetRange("k", 0, 10);
    ASSERT_TRUE(got.ok());
    EXPECT_GE(got->size(), 1u);
    EXPECT_LT(got->size(), 10u);
    EXPECT_EQ(*got, std::string("0123456789").substr(0, got->size()));
  }
  EXPECT_GT(store.fault_stats().injected_short_reads.load(), 0u);
}

TEST(FaultInjectingStoreTest, LatencySpikesAdvanceClock) {
  MemoryObjectStore base;
  ASSERT_TRUE(base.Put("k", "v").ok());
  FaultInjectionOptions options;
  options.latency_spike_rate = 1.0;
  options.latency_spike_us = 500;
  ManualClock clock;
  FaultInjectingObjectStore store(&base, options, &clock);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(store.Get("k").ok());
  EXPECT_EQ(clock.NowMicros(), 1500);
  EXPECT_EQ(store.fault_stats().injected_latency_spikes.load(), 3u);
}

TEST(FaultInjectingStoreTest, MutationsExemptWhenConfigured) {
  MemoryObjectStore base;
  FaultInjectionOptions options;
  options.error_rate = 1.0;
  options.fail_mutations = false;
  FaultInjectingObjectStore store(&base, options);
  EXPECT_TRUE(store.Put("k", "v").ok());
  EXPECT_TRUE(store.Delete("k").ok());
  EXPECT_TRUE(store.Put("k", "v").ok());
  EXPECT_FALSE(store.Get("k").ok());
}

TEST(FaultInjectingStoreTest, BrownoutRejectsEveryOpInWindow) {
  MemoryObjectStore base;
  ASSERT_TRUE(base.Put("k", "v").ok());
  ManualClock clock;
  FaultInjectingObjectStore store(&base, {}, &clock);

  store.SetBrownout(1000, 5000);
  EXPECT_TRUE(store.Get("k").ok());  // before the window
  clock.Advance(1000);
  EXPECT_TRUE(store.Get("k").status().IsUnavailable());
  EXPECT_TRUE(store.Put("k2", "v").IsUnavailable());
  EXPECT_TRUE(store.List("").status().IsUnavailable());
  clock.Advance(4000);
  EXPECT_TRUE(store.Get("k").ok());  // window end is exclusive
  EXPECT_EQ(store.fault_stats().brownout_rejections.load(), 3u);
}

TEST(FaultInjectingStoreTest, BrownoutShorterThanRetryDeadlineRecovers) {
  // The store browns out for 2.5ms; the retry schedule (1ms then 2ms of
  // backoff) outlasts it, so the caller never sees the outage.
  MemoryObjectStore base;
  ASSERT_TRUE(base.Put("k", "payload").ok());
  ManualClock clock;
  FaultInjectingObjectStore faulty(&base, {}, &clock);
  RetryOptions options;
  options.max_attempts = 10;
  options.initial_backoff_us = 1000;
  options.backoff_multiplier = 2.0;
  options.max_backoff_us = 100000;
  options.jitter = 0.0;
  options.call_deadline_us = 1000000;
  RetryingObjectStore store(&faulty, options, &clock);

  faulty.SetBrownout(0, 2500);
  auto got = store.Get("k");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "payload");
  EXPECT_EQ(store.retry_stats().attempts.load(), 3u);  // t=0, t=1ms, t=3ms
  EXPECT_EQ(store.retry_stats().giveups.load(), 0u);
  EXPECT_EQ(faulty.fault_stats().brownout_rejections.load(), 2u);
}

TEST(FaultInjectingStoreTest, BrownoutLongerThanRetryDeadlineSurfaces) {
  // The outage outlasts the caller's deadline: the retry layer gives up and
  // surfaces the brownout's Unavailable instead of masking it forever.
  MemoryObjectStore base;
  ASSERT_TRUE(base.Put("k", "payload").ok());
  ManualClock clock;
  FaultInjectingObjectStore faulty(&base, {}, &clock);
  RetryOptions options;
  options.max_attempts = 10;
  options.initial_backoff_us = 1000;
  options.backoff_multiplier = 2.0;
  options.max_backoff_us = 100000;
  options.jitter = 0.0;
  options.call_deadline_us = 1500;  // fits one 1ms backoff, not 1ms + 2ms
  RetryingObjectStore store(&faulty, options, &clock);

  faulty.SetBrownout(0, 1000000);
  auto got = store.Get("k");
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsUnavailable()) << got.status().ToString();
  EXPECT_EQ(store.retry_stats().attempts.load(), 2u);
  EXPECT_EQ(store.retry_stats().giveups.load(), 1u);
  // The outage ends; the next call succeeds without any reconfiguration.
  clock.Set(1000000);
  EXPECT_TRUE(store.Get("k").ok());
}

TEST(FaultInjectingStoreTest, BlacklistedKeyFailsOthersUnaffected) {
  MemoryObjectStore base;
  ASSERT_TRUE(base.Put("good", "g").ok());
  ASSERT_TRUE(base.Put("bad", "b").ok());
  FaultInjectingObjectStore store(&base, {});

  store.BlacklistKey("bad");
  EXPECT_TRUE(store.Get("bad").status().IsUnavailable());
  EXPECT_TRUE(store.Head("bad").status().IsUnavailable());
  EXPECT_TRUE(store.Delete("bad").IsUnavailable());
  EXPECT_TRUE(store.Get("good").ok());
  EXPECT_EQ(store.fault_stats().blacklist_rejections.load(), 3u);

  store.ClearBlacklist();
  EXPECT_TRUE(store.Get("bad").ok());
}

TEST(FaultInjectingStoreTest, BlacklistExhaustsRetriesOnThatKeyOnly) {
  MemoryObjectStore base;
  ASSERT_TRUE(base.Put("good", "g").ok());
  ASSERT_TRUE(base.Put("bad", "b").ok());
  ManualClock clock;
  FaultInjectingObjectStore faulty(&base, {}, &clock);
  RetryingObjectStore store(&faulty, FastRetryOptions(), &clock);

  faulty.BlacklistKey("bad");
  EXPECT_TRUE(store.Get("bad").status().IsUnavailable());
  EXPECT_EQ(store.retry_stats().giveups.load(), 1u);
  EXPECT_TRUE(store.Get("good").ok());
  EXPECT_EQ(store.retry_stats().giveups.load(), 1u);
}

TEST(RetryingStoreTest, RetriesTransientErrorsUntilSuccess) {
  FlakyStore flaky;
  ASSERT_TRUE(flaky.base().Put("k", "payload").ok());
  ManualClock clock;
  RetryingObjectStore store(&flaky, FastRetryOptions(), &clock);

  flaky.FailNext(2);
  auto got = store.Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "payload");
  EXPECT_EQ(store.retry_stats().attempts.load(), 3u);
  EXPECT_EQ(store.retry_stats().retries.load(), 2u);
  EXPECT_EQ(store.retry_stats().giveups.load(), 0u);
  EXPECT_GT(clock.NowMicros(), 0);  // backoff slept between attempts
}

TEST(RetryingStoreTest, NonRetryableSurfacesImmediately) {
  FlakyStore flaky;
  ManualClock clock;
  RetryingObjectStore store(&flaky, FastRetryOptions(), &clock);

  EXPECT_TRUE(store.Get("missing").status().IsNotFound());
  EXPECT_EQ(store.retry_stats().attempts.load(), 1u);
  EXPECT_EQ(store.retry_stats().retries.load(), 0u);
  EXPECT_EQ(store.retry_stats().giveups.load(), 0u);
  EXPECT_EQ(clock.NowMicros(), 0);  // no backoff sleep
}

TEST(RetryingStoreTest, GivesUpAfterMaxAttempts) {
  FlakyStore flaky;
  ASSERT_TRUE(flaky.base().Put("k", "v").ok());
  ManualClock clock;
  auto options = FastRetryOptions();
  options.max_attempts = 3;
  RetryingObjectStore store(&flaky, options, &clock);

  flaky.FailNext(100, Status::Unavailable("throttled"));
  EXPECT_TRUE(store.Get("k").status().IsUnavailable());
  EXPECT_EQ(store.retry_stats().attempts.load(), 3u);
  EXPECT_EQ(store.retry_stats().retries.load(), 2u);
  EXPECT_EQ(store.retry_stats().giveups.load(), 1u);
}

TEST(RetryingStoreTest, DeadlineBoundsRetries) {
  FlakyStore flaky;
  ASSERT_TRUE(flaky.base().Put("k", "v").ok());
  ManualClock clock;
  RetryOptions options;
  options.max_attempts = 10;
  options.initial_backoff_us = 1000;
  options.backoff_multiplier = 2.0;
  options.max_backoff_us = 100000;
  options.jitter = 0.0;
  options.call_deadline_us = 1500;  // fits one 1000us backoff, not two
  RetryingObjectStore store(&flaky, options, &clock);

  flaky.FailNext(100);
  EXPECT_FALSE(store.Get("k").ok());
  EXPECT_EQ(store.retry_stats().attempts.load(), 2u);
  EXPECT_EQ(store.retry_stats().giveups.load(), 1u);
  EXPECT_EQ(clock.NowMicros(), 1000);
}

TEST(RetryingStoreTest, ShortReadDetectedAndRetried) {
  FlakyStore flaky;
  ASSERT_TRUE(flaky.base().Put("k", "0123456789").ok());
  ManualClock clock;
  RetryingObjectStore store(&flaky, FastRetryOptions(), &clock);

  flaky.TruncateNext(1);
  auto got = store.GetRange("k", 0, 10);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "0123456789");
  EXPECT_EQ(store.retry_stats().short_reads.load(), 1u);
  EXPECT_EQ(store.retry_stats().retries.load(), 1u);
  EXPECT_EQ(store.retry_stats().giveups.load(), 0u);
}

TEST(RetryingStoreTest, ShortReadAtEndOfObjectIsLegitimate) {
  FlakyStore flaky;
  ASSERT_TRUE(flaky.base().Put("k", "12345").ok());
  ManualClock clock;
  RetryingObjectStore store(&flaky, FastRetryOptions(), &clock);

  auto got = store.GetRange("k", 2, 100);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "345");
  EXPECT_EQ(store.retry_stats().attempts.load(), 1u);
  EXPECT_EQ(store.retry_stats().short_reads.load(), 0u);
}

}  // namespace
}  // namespace logstore::objectstore

namespace logstore::query {
namespace {

// End-to-end acceptance: a full QueryEngine scan over LogBlocks behind a
// store with a 20% injected GetRange failure rate must complete with
// byte-identical results, >0 retries and 0 giveups.
class FaultEndToEndTest : public ::testing::Test {
 protected:
  static constexpr int64_t kHistory = 4ll * 3600 * 1'000'000;
  static constexpr uint64_t kTenant = 1;

  void SetUp() override {
    store_ = std::make_unique<objectstore::MemoryObjectStore>();
    cluster::DataBuilderOptions builder_options;
    builder_options.max_rows_per_logblock = 2000;
    builder_options.block_options.rows_per_block = 256;
    cluster::DataBuilder builder(store_.get(), &map_, builder_options);
    rowstore::RowStore rows(logblock::RequestLogSchema());
    workload::LogGenerator gen(17);
    for (uint64_t tenant = 0; tenant < 3; ++tenant) {
      rows.Append(tenant, gen.Generate(tenant, 5000, 0, kHistory));
    }
    ASSERT_TRUE(builder.BuildOnce(&rows).ok());
  }

  static LogQuery FullScan() {
    LogQuery query;
    query.tenant_id = kTenant;
    query.ts_min = 0;
    query.ts_max = kHistory;
    query.select_columns = {"ts", "ip", "log"};
    return query;
  }

  static std::multiset<std::string> Flatten(const QueryResult& result) {
    std::multiset<std::string> rows;
    for (const auto& row : result.rows) {
      std::string flat;
      for (const auto& value : row) {
        flat += value.type == logblock::ColumnType::kInt64
                    ? std::to_string(value.i)
                    : value.s;
        flat += '|';
      }
      rows.insert(flat);
    }
    return rows;
  }

  EngineOptions FaultTolerantOptions() {
    EngineOptions options;
    options.prefetch_threads = 4;
    options.io_block_size = 4096;
    options.cache_options.memory_capacity_bytes = 8 << 20;
    options.cache_options.ssd_dir.clear();
    return options;
  }

  // 20% error rate with 8 attempts: giveup odds per call ~0.2^8.
  static objectstore::RetryOptions EightAttempts() {
    objectstore::RetryOptions retry;
    retry.max_attempts = 8;
    retry.initial_backoff_us = 50;
    retry.max_backoff_us = 1000;
    return retry;
  }

  std::unique_ptr<objectstore::MemoryObjectStore> store_;
  logblock::LogBlockMap map_;
};

TEST_F(FaultEndToEndTest, ScanSurvivesInjectedGetRangeFailures) {
  // Baseline over the clean store.
  auto clean_engine = QueryEngine::Open(store_.get(), FaultTolerantOptions());
  ASSERT_TRUE(clean_engine.ok());
  auto expected = (*clean_engine)->Execute(FullScan(), map_);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_GT(expected->rows.size(), 0u);

  objectstore::FaultInjectionOptions faults;
  faults.error_rate = 0.2;
  faults.short_read_rate = 0.1;
  faults.seed = 29;
  objectstore::FaultInjectingObjectStore faulty(store_.get(), faults);

  // The injector draws each operation's fate from (seed, op index), and
  // for seed 29 the first error falls on operation 6. With prefetch, how
  // many reads the scan issues depends on how thread timing coalesces
  // them, and a run of 6 or fewer meets no fault. Demand reads alone are
  // the same reads on every run, more than 6 of them, so a fault is
  // certain.
  objectstore::RetryingObjectStore retrying(&faulty, EightAttempts());
  EngineOptions options = FaultTolerantOptions();
  options.use_prefetch = false;
  auto engine = QueryEngine::Open(&retrying, options);
  ASSERT_TRUE(engine.ok());
  auto result = (*engine)->Execute(FullScan(), map_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Flatten(*result), Flatten(*expected));

  const objectstore::RetryStats& stats = retrying.retry_stats();
  EXPECT_GT(stats.retries.load(), 0u);
  EXPECT_EQ(stats.giveups.load(), 0u);
  EXPECT_GT(faulty.fault_stats().injected_errors.load(), 0u);
}

TEST_F(FaultEndToEndTest, DataBuilderUploadsSurviveInjectedPutFailures) {
  objectstore::FaultInjectionOptions faults;
  faults.error_rate = 0.3;
  faults.seed = 31;
  objectstore::MemoryObjectStore clean;
  objectstore::FaultInjectingObjectStore faulty(&clean, faults);
  objectstore::RetryingObjectStore retrying(&faulty, EightAttempts());

  logblock::LogBlockMap map;
  cluster::DataBuilderOptions options;
  options.max_rows_per_logblock = 1000;
  options.block_options.rows_per_block = 128;
  cluster::DataBuilder builder(&retrying, &map, options);

  rowstore::RowStore rows(logblock::RequestLogSchema());
  workload::LogGenerator gen(23);
  rows.Append(5, gen.Generate(5, 4000, 0, kHistory));
  auto built = builder.BuildOnce(&rows);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(*built, 4);
  EXPECT_EQ(clean.object_count(), 4u);  // all uploads landed despite faults

  const objectstore::RetryStats& stats = retrying.retry_stats();
  EXPECT_GT(stats.retries.load(), 0u);
  EXPECT_EQ(stats.giveups.load(), 0u);
}

}  // namespace
}  // namespace logstore::query
