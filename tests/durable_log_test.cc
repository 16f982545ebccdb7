// Unit coverage for the durable segmented WAL: append/recover round trips,
// suffix truncation, segment rotation, the four crash modes with torn-tail
// repair, and watermark-driven prefix GC.

#include "consensus/durable_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32c.h"
#include "consensus/raft.h"

namespace logstore::consensus {
namespace {

namespace fs = std::filesystem;

class DurableLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("durable_log_test_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::unique_ptr<DurableLog> MustOpen(DurableLogOptions options = {}) {
    auto log = DurableLog::Open(dir_.string(), options);
    EXPECT_TRUE(log.ok()) << log.status().ToString();
    return std::move(log).value();
  }

  static LogEntry Entry(uint64_t term, const std::string& payload) {
    LogEntry entry;
    entry.term = term;
    entry.payload = payload;
    return entry;
  }

  fs::path dir_;
};

TEST_F(DurableLogTest, FreshDirectoryRecoversEmpty) {
  auto log = MustOpen();
  EXPECT_EQ(log->recovered().term, 0u);
  EXPECT_EQ(log->recovered().voted_for, -1);
  EXPECT_EQ(log->recovered().base_index, 0u);
  EXPECT_TRUE(log->recovered().entries.empty());
  EXPECT_EQ(log->recovered().repaired_tail_bytes, 0u);
}

TEST_F(DurableLogTest, HardStateAndEntriesSurviveReopen) {
  {
    auto log = MustOpen();
    ASSERT_TRUE(log->PersistHardState(3, 1).ok());
    ASSERT_TRUE(log->AppendEntry(1, Entry(2, "alpha")).ok());
    ASSERT_TRUE(log->AppendEntry(2, Entry(3, "beta")).ok());
  }
  auto log = MustOpen();
  EXPECT_EQ(log->recovered().term, 3u);
  EXPECT_EQ(log->recovered().voted_for, 1);
  ASSERT_EQ(log->recovered().entries.size(), 2u);
  EXPECT_EQ(log->recovered().entries[0].term, 2u);
  EXPECT_EQ(log->recovered().entries[0].payload, "alpha");
  EXPECT_EQ(log->recovered().entries[1].payload, "beta");
  // Appends continue at the recovered end.
  EXPECT_TRUE(log->AppendEntry(3, Entry(3, "gamma")).ok());
}

TEST_F(DurableLogTest, NonContiguousAppendRejected) {
  auto log = MustOpen();
  ASSERT_TRUE(log->AppendEntry(1, Entry(1, "a")).ok());
  EXPECT_TRUE(log->AppendEntry(3, Entry(1, "c")).IsInvalidArgument());
}

TEST_F(DurableLogTest, TruncateSuffixSurvivesReopen) {
  {
    auto log = MustOpen();
    for (uint64_t i = 1; i <= 5; ++i) {
      ASSERT_TRUE(log->AppendEntry(i, Entry(1, "old" + std::to_string(i))).ok());
    }
    ASSERT_TRUE(log->TruncateSuffix(3).ok());
    ASSERT_TRUE(log->AppendEntry(3, Entry(2, "new3")).ok());
    ASSERT_TRUE(log->AppendEntry(4, Entry(2, "new4")).ok());
  }
  auto log = MustOpen();
  ASSERT_EQ(log->recovered().entries.size(), 4u);
  EXPECT_EQ(log->recovered().entries[1].payload, "old2");
  EXPECT_EQ(log->recovered().entries[2].payload, "new3");
  EXPECT_EQ(log->recovered().entries[3].payload, "new4");
}

TEST_F(DurableLogTest, RotationSpreadsEntriesAcrossSegments) {
  DurableLogOptions options;
  options.segment_target_bytes = 256;  // force frequent rotation
  {
    auto log = MustOpen(options);
    for (uint64_t i = 1; i <= 50; ++i) {
      ASSERT_TRUE(
          log->AppendEntry(i, Entry(1, std::string(20, 'x'))).ok());
    }
    EXPECT_GT(log->segments().size(), 2u);
  }
  auto log = MustOpen(options);
  EXPECT_EQ(log->recovered().entries.size(), 50u);
}

TEST_F(DurableLogTest, SegmentBytesArePinned) {
  // A fixed sequence of every record kind across several rotations. The
  // digest covers each segment file's name and bytes, in name order; it
  // was computed when records were still framed through intermediate
  // copies, so any change to the bytes the log writes fails here.
  DurableLogOptions options;
  options.sync_policy = SyncPolicy::kNever;
  options.segment_target_bytes = 512;
  {
    auto log = MustOpen(options);
    ASSERT_TRUE(log->PersistHardState(1, 0).ok());
    for (uint64_t i = 1; i <= 40; ++i) {
      std::string payload;
      for (uint64_t k = 0; k < (i * 37) % 300; ++k) {
        payload.push_back(static_cast<char>('a' + (i + k) % 26));
      }
      ASSERT_TRUE(log->AppendEntry(i, Entry(1, payload)).ok());
    }
    ASSERT_TRUE(log->AppendEntry(41, Entry(1, std::string(2000, 'z'))).ok());
    ASSERT_TRUE(log->TruncateSuffix(38).ok());
    ASSERT_TRUE(log->PersistHardState(2, 1).ok());
    for (uint64_t i = 38; i <= 45; ++i) {
      ASSERT_TRUE(
          log->AppendEntry(i, Entry(2, "t2-" + std::to_string(i))).ok());
    }
    ASSERT_TRUE(log->PersistWatermark(12, 1, 99).ok());
    ASSERT_TRUE(log->AppendEntry(46, Entry(2, "")).ok());
  }
  std::vector<std::string> names;
  for (const auto& file : fs::directory_iterator(dir_)) {
    names.push_back(file.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  uint32_t digest = 0;
  for (const std::string& name : names) {
    std::ifstream in(dir_ / name, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    digest = crc32c::Extend(digest, name.data(), name.size());
    digest = crc32c::Extend(digest, bytes.data(), bytes.size());
  }
  EXPECT_EQ(names.size(), 10u);
  EXPECT_EQ(digest, 0x0e129126u);
}

TEST_F(DurableLogTest, DropUnsyncedLosesExactlyTheUnsyncedSuffix) {
  DurableLogOptions options;
  options.sync_policy = SyncPolicy::kOnSync;
  {
    auto log = MustOpen(options);
    for (uint64_t i = 1; i <= 3; ++i) {
      ASSERT_TRUE(log->AppendEntry(i, Entry(1, "synced")).ok());
    }
    ASSERT_TRUE(log->Sync().ok());
    // Crash between append and fsync: these two never reach the disk.
    ASSERT_TRUE(log->AppendEntry(4, Entry(1, "lost")).ok());
    ASSERT_TRUE(log->AppendEntry(5, Entry(1, "lost")).ok());
    ASSERT_GT(log->unsynced_bytes(), 0u);
    ASSERT_TRUE(log->SimulateCrash(CrashMode::kDropUnsynced, 7).ok());
    // The object is dead after the crash.
    EXPECT_FALSE(log->AppendEntry(6, Entry(1, "x")).ok());
  }
  auto log = MustOpen(options);
  EXPECT_EQ(log->recovered().entries.size(), 3u);
}

TEST_F(DurableLogTest, TornWriteTruncatesAtRecordBoundary) {
  DurableLogOptions options;
  options.sync_policy = SyncPolicy::kOnSync;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    fs::remove_all(dir_);
    {
      auto log = MustOpen(options);
      for (uint64_t i = 1; i <= 3; ++i) {
        ASSERT_TRUE(log->AppendEntry(i, Entry(1, "synced")).ok());
      }
      ASSERT_TRUE(log->Sync().ok());
      ASSERT_TRUE(log->AppendEntry(4, Entry(1, "maybe-torn")).ok());
      ASSERT_TRUE(log->SimulateCrash(CrashMode::kTornWrite, seed).ok());
    }
    auto log = MustOpen(options);
    // Whatever the cut point, recovery lands on a record boundary: either
    // the unsynced entry survived whole or it is gone entirely.
    const size_t n = log->recovered().entries.size();
    ASSERT_TRUE(n == 3 || n == 4) << "seed " << seed << " recovered " << n;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(log->recovered().entries[i].payload,
                i < 3 ? "synced" : "maybe-torn");
    }
    // The repair is persistent: a second recovery sees a clean log.
    log.reset();
    auto again = MustOpen(options);
    EXPECT_EQ(again->recovered().entries.size(), n);
    EXPECT_EQ(again->recovered().repaired_tail_bytes, 0u);
  }
}

TEST_F(DurableLogTest, BitFlipInTailRecordDropsIt) {
  {
    auto log = MustOpen();
    ASSERT_TRUE(log->AppendEntry(1, Entry(1, "keep-one")).ok());
    ASSERT_TRUE(log->AppendEntry(2, Entry(1, "keep-two")).ok());
    ASSERT_TRUE(log->AppendEntry(3, Entry(1, "flipped!")).ok());
    ASSERT_TRUE(log->SimulateCrash(CrashMode::kBitFlipTail, 11).ok());
  }
  auto log = MustOpen();
  // The CRC catches the flip; the log truncates at the last valid boundary.
  ASSERT_EQ(log->recovered().entries.size(), 2u);
  EXPECT_EQ(log->recovered().entries[1].payload, "keep-two");
  EXPECT_GT(log->recovered().repaired_tail_bytes, 0u);
}

TEST_F(DurableLogTest, HalvedTailRecordDropsIt) {
  {
    auto log = MustOpen();
    ASSERT_TRUE(log->AppendEntry(1, Entry(1, "keep")).ok());
    ASSERT_TRUE(log->AppendEntry(2, Entry(1, "half-written-record")).ok());
    ASSERT_TRUE(log->SimulateCrash(CrashMode::kHalveTailRecord, 13).ok());
  }
  auto log = MustOpen();
  ASSERT_EQ(log->recovered().entries.size(), 1u);
  EXPECT_EQ(log->recovered().entries[0].payload, "keep");
  EXPECT_GT(log->recovered().repaired_tail_bytes, 0u);
}

TEST_F(DurableLogTest, CrashDuringRotationKeepsSealedSegments) {
  DurableLogOptions options;
  options.segment_target_bytes = 128;
  options.sync_policy = SyncPolicy::kOnSync;
  uint64_t appended = 0;
  {
    auto log = MustOpen(options);
    // Enough appends that several rotations happen with unsynced bytes in
    // flight; the crash then tears the freshly-started segment.
    for (uint64_t i = 1; i <= 30; ++i) {
      ASSERT_TRUE(log->AppendEntry(i, Entry(1, std::string(40, 'r'))).ok());
      appended = i;
    }
    ASSERT_GE(log->segments().size(), 2u);
    ASSERT_TRUE(log->SimulateCrash(CrashMode::kTornWrite, 17).ok());
  }
  auto log = MustOpen(options);
  // Rotation seals the previous segment durably (fsync before close), so
  // only entries in the active segment can be missing.
  const size_t recovered = log->recovered().entries.size();
  EXPECT_LE(recovered, appended);
  for (size_t i = 0; i < recovered; ++i) {
    EXPECT_EQ(log->recovered().entries[i].payload, std::string(40, 'r'));
  }
  // And every sealed segment survived intact: recovery reaches at least
  // the entries of all non-active segments.
  uint64_t sealed_max = 0;
  for (const auto& segment : log->segments()) {
    if (!segment.active) {
      sealed_max = std::max(sealed_max, segment.max_entry_index);
    }
  }
  EXPECT_GE(recovered, sealed_max);
}

TEST_F(DurableLogTest, WatermarkGcDeletesWholeArchivedSegments) {
  DurableLogOptions options;
  options.segment_target_bytes = 128;
  {
    auto log = MustOpen(options);
    for (uint64_t i = 1; i <= 30; ++i) {
      ASSERT_TRUE(log->AppendEntry(i, Entry(1, std::string(40, 'g'))).ok());
    }
    const auto before = log->segments();
    ASSERT_GT(before.size(), 2u);

    ASSERT_TRUE(log->PersistWatermark(20, 1, 777).ok());
    // Segments wholly at or below the watermark are gone; every surviving
    // non-active segment still carries entries above it.
    for (const auto& segment : log->segments()) {
      if (!segment.active && segment.max_entry_index != 0) {
        EXPECT_GT(segment.max_entry_index, 20u) << segment.path;
      }
      EXPECT_TRUE(fs::exists(segment.path));
    }
    for (const auto& segment : before) {
      if (segment.max_entry_index != 0 && segment.max_entry_index <= 20 &&
          !segment.active) {
        EXPECT_FALSE(fs::exists(segment.path)) << segment.path;
      }
    }
  }
  // The retained suffix is self-describing: recovery reloads the watermark
  // (with its aux cookie) and exactly the entries above it.
  auto log = MustOpen(options);
  EXPECT_EQ(log->recovered().base_index, 20u);
  EXPECT_EQ(log->recovered().watermark_aux, 777u);
  EXPECT_EQ(log->recovered().entries.size(), 10u);
}

TEST_F(DurableLogTest, HardStateSurvivesGcViaSegmentHeaders) {
  DurableLogOptions options;
  options.segment_target_bytes = 128;
  {
    auto log = MustOpen(options);
    ASSERT_TRUE(log->PersistHardState(9, 2).ok());
    for (uint64_t i = 1; i <= 30; ++i) {
      ASSERT_TRUE(log->AppendEntry(i, Entry(9, std::string(40, 'h'))).ok());
    }
    ASSERT_TRUE(log->PersistWatermark(30, 9, 5).ok());
    // Everything is archived: every sealed segment is deleted. The hard
    // state persisted long ago must still be recoverable from the active
    // segment's header.
    for (const auto& segment : log->segments()) {
      EXPECT_TRUE(segment.active);
    }
  }
  auto log = MustOpen(options);
  EXPECT_EQ(log->recovered().term, 9u);
  EXPECT_EQ(log->recovered().voted_for, 2);
  EXPECT_EQ(log->recovered().base_index, 30u);
  EXPECT_TRUE(log->recovered().entries.empty());
  // Life goes on after GC: the next entry index continues from the base.
  EXPECT_TRUE(log->AppendEntry(31, Entry(10, "after-gc")).ok());
}

// --- Group-commit fsync batching ---

TEST_F(DurableLogTest, RedundantSyncsShareOneFsync) {
  DurableLogOptions options;
  options.sync_policy = SyncPolicy::kOnSync;
  auto log = MustOpen(options);
  ASSERT_TRUE(log->AppendEntry(1, Entry(1, "a")).ok());
  ASSERT_TRUE(log->AppendEntry(2, Entry(1, "b")).ok());
  ASSERT_TRUE(log->AppendEntry(3, Entry(1, "c")).ok());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(log->Sync().ok());
  // One flush covered all three records; the four extra Syncs found
  // nothing new to write and issued no fsync of their own.
  EXPECT_EQ(log->fsyncs_issued(), 1u);
  ASSERT_TRUE(log->AppendEntry(4, Entry(1, "d")).ok());
  ASSERT_TRUE(log->Sync().ok());
  ASSERT_TRUE(log->Sync().ok());
  EXPECT_EQ(log->fsyncs_issued(), 2u);
  EXPECT_EQ(log->unsynced_bytes(), 0u);
}

TEST_F(DurableLogTest, ConcurrentSyncersBatchBehindTheWriter) {
  // One writer appends while several committers hammer Sync — the Worker's
  // SyncAll-before-ack pattern. Every fsync must cover new bytes, so the
  // flush count is bounded by the append count no matter how the threads
  // interleave, and the recovered log must be complete.
  DurableLogOptions options;
  options.sync_policy = SyncPolicy::kOnSync;
  constexpr int kAppends = 100;
  {
    auto log = MustOpen(options);
    std::atomic<bool> done{false};
    std::vector<std::thread> syncers;
    for (int t = 0; t < 4; ++t) {
      syncers.emplace_back([&log, &done] {
        while (!done.load()) {
          ASSERT_TRUE(log->Sync().ok());
        }
      });
    }
    for (int i = 1; i <= kAppends; ++i) {
      ASSERT_TRUE(log->AppendEntry(i, Entry(1, "payload-" +
                                                   std::to_string(i))).ok());
    }
    done.store(true);
    for (auto& t : syncers) t.join();
    ASSERT_TRUE(log->Sync().ok());
    EXPECT_LE(log->fsyncs_issued(), static_cast<uint64_t>(kAppends) + 1);
    EXPECT_EQ(log->unsynced_bytes(), 0u);
  }
  auto log = MustOpen(options);
  ASSERT_EQ(log->recovered().entries.size(), static_cast<size_t>(kAppends));
  EXPECT_EQ(log->recovered().entries.back().payload,
            "payload-" + std::to_string(kAppends));
}

// --- Append / fsync error paths ---

TEST_F(DurableLogTest, FailedAppendIsNotAckedAndIsRetryable) {
  DurableLogOptions options;
  options.sync_policy = SyncPolicy::kOnSync;
  {
    auto log = MustOpen(options);
    ASSERT_TRUE(log->AppendEntry(1, Entry(1, "kept")).ok());
    log->InjectAppendErrors(1, /*partial_write=*/false);
    EXPECT_TRUE(log->AppendEntry(2, Entry(1, "refused")).IsIOError());
    // The index was not consumed: the same append retries cleanly.
    ASSERT_TRUE(log->AppendEntry(2, Entry(1, "retried")).ok());
    ASSERT_TRUE(log->Sync().ok());
  }
  auto log = MustOpen(options);
  ASSERT_EQ(log->recovered().entries.size(), 2u);
  EXPECT_EQ(log->recovered().entries[1].payload, "retried");
  EXPECT_EQ(log->recovered().repaired_tail_bytes, 0u);
}

TEST_F(DurableLogTest, PartialWriteRollsBackToRecordBoundary) {
  // ENOSPC strikes halfway through a record: the half-written frame must
  // be rolled back so the next append starts at a clean boundary — with no
  // torn-tail repair needed at recovery (the segment never tore).
  DurableLogOptions options;
  options.sync_policy = SyncPolicy::kOnSync;
  {
    auto log = MustOpen(options);
    ASSERT_TRUE(log->AppendEntry(1, Entry(1, "kept")).ok());
    log->InjectAppendErrors(1, /*partial_write=*/true);
    EXPECT_TRUE(
        log->AppendEntry(2, Entry(1, "half-written-victim")).IsIOError());
    ASSERT_TRUE(log->AppendEntry(2, Entry(1, "clean")).ok());
    ASSERT_TRUE(log->Sync().ok());
  }
  auto log = MustOpen(options);
  ASSERT_EQ(log->recovered().entries.size(), 2u);
  EXPECT_EQ(log->recovered().entries[0].payload, "kept");
  EXPECT_EQ(log->recovered().entries[1].payload, "clean");
  EXPECT_EQ(log->recovered().repaired_tail_bytes, 0u);
}

TEST_F(DurableLogTest, FsyncFailureWedgesTheLogUntilReopen) {
  DurableLogOptions options;
  options.sync_policy = SyncPolicy::kOnSync;
  {
    auto log = MustOpen(options);
    ASSERT_TRUE(log->AppendEntry(1, Entry(1, "acked")).ok());
    ASSERT_TRUE(log->Sync().ok());
    ASSERT_TRUE(log->AppendEntry(2, Entry(1, "doomed")).ok());
    log->InjectSyncErrors(1);
    EXPECT_TRUE(log->Sync().IsIOError());
    // EIO on fsync is fail-stop: the kernel may have dropped the dirty
    // pages, so no later call may pretend to succeed.
    EXPECT_TRUE(log->Sync().IsIOError());
    EXPECT_TRUE(log->AppendEntry(3, Entry(1, "rejected")).IsIOError());
  }
  // Reopen recovers a valid record-bounded prefix and accepts appends.
  auto log = MustOpen(options);
  ASSERT_GE(log->recovered().entries.size(), 1u);
  EXPECT_EQ(log->recovered().entries[0].payload, "acked");
  const uint64_t next =
      log->recovered().base_index + log->recovered().entries.size() + 1;
  EXPECT_TRUE(log->AppendEntry(next, Entry(2, "after-reopen")).ok());
}

}  // namespace
}  // namespace logstore::consensus
