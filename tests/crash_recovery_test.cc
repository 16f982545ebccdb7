// Deterministic crash/torn-write harness for the durable write path.
//
// Each seed drives several crash+recover cycles against a replicated Worker
// whose three Raft replicas persist to durable WALs. Every cycle writes
// acknowledged batches (each carrying a unique marker string), optionally
// leaves un-acknowledged proposals in flight, optionally runs an archive
// pass (sometimes "crashing" in the window between upload completion and
// watermark persist), then kills the process at an injected point:
//
//   - drop the un-fsynced suffix (crash between append and fsync)
//   - tear the tail at a random byte (torn write, possibly mid-rotation)
//   - bit-flip or halve the tail record on ONE replica (media corruption;
//     the quorum on the other two replicas must heal it)
//
// After every recovery the harness asserts the worker's core promise: every
// acknowledged write is present — in the recovered row store or in archived
// LogBlocks — the WALs reopen cleanly (torn tails truncated at a record
// boundary), and no surviving WAL segment lies wholly below that replica's
// archived watermark.
//
// Seeds default to a quick smoke count; CI sets CRASH_RECOVERY_SEEDS=100.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/worker.h"
#include "common/random.h"
#include "core/logstore.h"
#include "logblock/logblock_reader.h"
#include "objectstore/memory_object_store.h"
#include "rowstore/wal.h"
#include "test_env.h"

namespace logstore {
namespace {

namespace fs = std::filesystem;

using cluster::Worker;
using cluster::WorkerOptions;
using consensus::CrashMode;
using consensus::SyncPolicy;
using logblock::RowBatch;
using logblock::Value;
using testenv::MarkerRow;

constexpr size_t kLogColumn = testenv::kMarkerColumn;  // marker rides in `log`

int SeedCount() {
  return testenv::SeedCount("CRASH_RECOVERY_SEEDS", 12);  // CI runs 100
}

// Collects every marker string reachable after recovery: the real-time row
// store plus every archived LogBlock (read back through the actual reader,
// not the map's bookkeeping).
void CollectVisibleMarkers(Worker& worker,
                           objectstore::MemoryObjectStore& store,
                           logblock::LogBlockMap& map,
                           std::set<std::string>* markers) {
  for (uint64_t tenant : {uint64_t{1}, uint64_t{2}}) {
    const RowBatch realtime =
        worker.ScanRealtime(tenant, INT64_MIN, INT64_MAX);
    for (uint32_t r = 0; r < realtime.num_rows(); ++r) {
      markers->insert(realtime.StringAt(kLogColumn, r));
    }
    for (const auto& entry : map.TenantBlocks(tenant)) {
      auto data = store.Get(entry.object_key);
      ASSERT_TRUE(data.ok()) << entry.object_key;
      auto reader = logblock::LogBlockReader::Open(
          std::make_shared<logblock::StringSource>(*std::move(data)));
      ASSERT_TRUE(reader.ok()) << reader.status().ToString();
      const size_t blocks =
          (*reader)->meta().columns[kLogColumn].blocks.size();
      for (size_t b = 0; b < blocks; ++b) {
        auto decoded = (*reader)->ReadColumnBlock(kLogColumn, b);
        ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
        for (std::string_view s : decoded->strs) markers->emplace(s);
      }
    }
  }
}

// Asserts the WAL GC invariant on every replica: every surviving segment
// file is really on disk, and the leading entry-bearing sealed segment
// holds entries above that replica's recovered watermark (GC deletes a
// prefix of sealed segments; a fully-archived segment may only survive
// behind one that still carries live entries, which happens after suffix
// truncations).
void CheckSegmentInvariant(Worker& worker) {
  for (int node = 0; node < 3; ++node) {
    consensus::DurableLog* wal = worker.wal(node);
    ASSERT_NE(wal, nullptr);
    const uint64_t base = wal->recovered().base_index;
    bool leading = true;
    for (const auto& segment : wal->segments()) {
      EXPECT_TRUE(fs::exists(segment.path)) << segment.path;
      if (segment.active || segment.max_entry_index == 0) continue;
      if (leading) {
        EXPECT_GT(segment.max_entry_index, base)
            << "node " << node << " kept fully-archived segment "
            << segment.path;
        leading = false;
      }
    }
  }
}

void RunWorkerSeed(uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  Random rng(seed * 2654435761 + 1);

  const fs::path dir =
      fs::temp_directory_path() / ("crash_recovery_" + std::to_string(seed));
  fs::remove_all(dir);

  // The object store and LogBlock map model remote services: they survive
  // worker crashes.
  objectstore::MemoryObjectStore store;
  logblock::LogBlockMap map;

  WorkerOptions options;
  options.schema = logblock::RequestLogSchema();
  options.replicated = true;
  options.wal_dir = dir.string();
  options.wal.sync_policy =
      rng.OneIn(2) ? SyncPolicy::kPerRecord : SyncPolicy::kOnSync;
  options.wal.segment_target_bytes = 256 + rng.Uniform(1024);

  std::set<std::string> acked;
  uint64_t next_marker = 0;
  const int rounds = 4;

  for (int round = 0; round <= rounds; ++round) {
    auto worker = std::make_unique<Worker>(1, &store, &map, options);
    ASSERT_TRUE(worker->wal_status().ok())
        << "round " << round << ": " << worker->wal_status().ToString();

    // Every previously acknowledged write survived the crash.
    std::set<std::string> visible;
    CollectVisibleMarkers(*worker, store, map, &visible);
    if (::testing::Test::HasFatalFailure()) return;
    for (const std::string& marker : acked) {
      ASSERT_TRUE(visible.count(marker))
          << "round " << round << " lost acknowledged write " << marker;
    }
    CheckSegmentInvariant(*worker);
    if (round == rounds) break;

    // Acknowledged writes: Write() returning OK is the durability promise
    // under test.
    const int writes = 3 + static_cast<int>(rng.Uniform(6));
    for (int w = 0; w < writes; ++w) {
      const uint64_t tenant = 1 + rng.Uniform(2);
      const std::string marker = "seed" + std::to_string(seed) + "-r" +
                                 std::to_string(round) + "-w" +
                                 std::to_string(next_marker++);
      ASSERT_TRUE(
          worker->Write(tenant, MarkerRow(tenant, 1000 + w, marker)).ok());
      acked.insert(marker);
    }

    // Crash-mode choice up front: media-corruption modes can destroy
    // fsynced bytes, so they are confined to a single replica (the quorum
    // heals it) and never follow a watermark persist in the same round
    // (corrupting the sole copy of a just-GCed watermark models a
    // double-fault — lost replica — not a crash).
    const uint32_t mode_pick = rng.Uniform(4);
    const bool corruption = mode_pick >= 2;

    if (!corruption && rng.OneIn(2)) {
      // Archive pass; one third of these "crash" before the watermark
      // persists, so recovery re-archives those entries (at-least-once).
      const bool advance = !rng.OneIn(3);
      auto built = worker->RunBuildPass(advance);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
    }

    if (rng.OneIn(3)) {
      // Un-acknowledged in-flight proposal: may commit in memory, may
      // reach disk, may vanish with the crash — all legal outcomes.
      const int leader = worker->raft()->WaitForLeader();
      ASSERT_GE(leader, 0);
      worker->raft()
          ->node(leader)
          .Propose(rowstore::EncodeWalRecord(
              1, MarkerRow(1, 9999, "unacked-" + std::to_string(round))))
          .IgnoreError();
      worker->raft()->Tick(1 + static_cast<int>(rng.Uniform(3)));
    }

    if (corruption) {
      const CrashMode mode = mode_pick == 2 ? CrashMode::kBitFlipTail
                                            : CrashMode::kHalveTailRecord;
      const int victim = static_cast<int>(rng.Uniform(3));
      for (int node = 0; node < 3; ++node) {
        ASSERT_TRUE(worker->wal(node)
                        ->SimulateCrash(node == victim
                                            ? mode
                                            : CrashMode::kDropUnsynced,
                                        rng.Next())
                        .ok());
      }
    } else {
      const CrashMode mode = mode_pick == 0 ? CrashMode::kDropUnsynced
                                            : CrashMode::kTornWrite;
      for (int node = 0; node < 3; ++node) {
        ASSERT_TRUE(worker->wal(node)->SimulateCrash(mode, rng.Next()).ok());
      }
    }
    // worker destructs here = the process dies.
  }

  fs::remove_all(dir);
}

TEST(CrashRecoveryTest, WorkerSurvivesSeededCrashCycles) {
  const int seeds = SeedCount();
  for (int seed = 1; seed <= seeds; ++seed) {
    RunWorkerSeed(static_cast<uint64_t>(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// InstallSnapshot catch-up: a dead replica must not pin WAL growth, and must
// catch up from shared storage once the log prefix it needs is gone.
// ---------------------------------------------------------------------------

TEST(CrashRecoveryTest, DeadReplicaDoesNotPinWalGcAndCatchesUpViaSnapshot) {
  const fs::path dir =
      fs::temp_directory_path() / "crash_recovery_snapshot_catchup";
  fs::remove_all(dir);
  objectstore::MemoryObjectStore store;
  logblock::LogBlockMap map;

  WorkerOptions options;
  options.schema = logblock::RequestLogSchema();
  options.replicated = true;
  options.wal_dir = dir.string();
  options.wal.sync_policy = SyncPolicy::kOnSync;
  options.wal.segment_target_bytes = 512;  // tiny: every round rotates

  auto worker = std::make_unique<Worker>(1, &store, &map, options);
  ASSERT_TRUE(worker->wal_status().ok());

  std::set<std::string> acked;
  uint64_t next_marker = 0;
  auto write_acked = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const uint64_t tenant = 1 + (next_marker % 2);
      const std::string marker = "snap-m" + std::to_string(next_marker++);
      ASSERT_TRUE(
          worker->Write(tenant, MarkerRow(tenant, 100 + i, marker)).ok());
      acked.insert(marker);
    }
  };

  write_acked(4);
  const int victim = 1;
  ASSERT_TRUE(
      worker->CrashReplica(victim, CrashMode::kDropUnsynced, 7).ok());
  const uint64_t victim_log_end = worker->raft()->node(victim).log_size();

  // The group keeps writing and archiving with one replica dead. Live
  // replicas' WAL GC must keep advancing — the dead member pins nothing.
  for (int round = 0; round < 8; ++round) {
    write_acked(3);
    auto built = worker->RunBuildPass();
    ASSERT_TRUE(built.ok()) << built.status().ToString();
  }
  for (int node = 0; node < 3; ++node) {
    if (node == victim) continue;
    // Everything is archived, so retention is capped by the snapshot: the
    // dozens of rotated-out segments this run produced are gone.
    EXPECT_LE(worker->wal(node)->segments().size(), 4u) << "node " << node;
  }
  const int leader = worker->raft()->WaitForLeader();
  ASSERT_GE(leader, 0);
  ASSERT_GT(worker->raft()->node(leader).log_base_index(), victim_log_end)
      << "GC did not pass the dead replica's log; snapshot not required";

  // The restarted replica's log now ends below every live log's base, so
  // AppendEntries cannot repair it: it must take an InstallSnapshot.
  ASSERT_TRUE(worker->RecoverReplica(victim).ok());
  write_acked(2);
  worker->raft()->Tick(2000);

  EXPECT_GE(worker->raft()->node(victim).snapshots_installed(), 1u);
  EXPECT_EQ(worker->raft()->node(victim).last_applied(),
            worker->raft()->node(0).last_applied());

  // Nothing acknowledged was lost across the whole episode — including
  // after a final full process restart.
  worker = std::make_unique<Worker>(1, &store, &map, options);
  ASSERT_TRUE(worker->wal_status().ok());
  std::set<std::string> visible;
  CollectVisibleMarkers(*worker, store, map, &visible);
  if (::testing::Test::HasFatalFailure()) return;
  for (const std::string& marker : acked) {
    ASSERT_TRUE(visible.count(marker)) << "lost " << marker;
  }
  CheckSegmentInvariant(*worker);
  worker.reset();
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Rolling restarts: kill and recover each replica in turn, under write load,
// with occasional archive passes forcing snapshot catch-up. Seeded.
// ---------------------------------------------------------------------------

void RunRollingRestartSeed(uint64_t seed) {
  SCOPED_TRACE("rolling seed " + std::to_string(seed));
  Random rng(seed * 0x9e3779b9 + 17);

  const fs::path dir =
      fs::temp_directory_path() / ("crash_recovery_rolling_" +
                                   std::to_string(seed));
  fs::remove_all(dir);
  objectstore::MemoryObjectStore store;
  logblock::LogBlockMap map;

  WorkerOptions options;
  options.schema = logblock::RequestLogSchema();
  options.replicated = true;
  options.wal_dir = dir.string();
  options.wal.sync_policy =
      rng.OneIn(2) ? SyncPolicy::kPerRecord : SyncPolicy::kOnSync;
  options.wal.segment_target_bytes = 256 + rng.Uniform(768);

  auto worker = std::make_unique<Worker>(1, &store, &map, options);
  ASSERT_TRUE(worker->wal_status().ok());

  std::set<std::string> acked;
  uint64_t next_marker = 0;
  auto write_acked = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const uint64_t tenant = 1 + rng.Uniform(2);
      const std::string marker = "roll" + std::to_string(seed) + "-m" +
                                 std::to_string(next_marker++);
      ASSERT_TRUE(
          worker->Write(tenant, MarkerRow(tenant, 100 + i, marker)).ok());
      acked.insert(marker);
    }
  };

  write_acked(2 + static_cast<int>(rng.Uniform(3)));
  // Two full rolling sweeps: every replica (primary, second full copy,
  // WAL-only) dies and returns once per sweep, in a seed-shuffled order.
  for (int sweep = 0; sweep < 2; ++sweep) {
    const int first = static_cast<int>(rng.Uniform(3));
    for (int k = 0; k < 3; ++k) {
      const int victim = (first + k) % 3;
      const CrashMode mode =
          rng.OneIn(2) ? CrashMode::kDropUnsynced : CrashMode::kTornWrite;
      ASSERT_TRUE(worker->CrashReplica(victim, mode, rng.Next()).ok());

      // While the victim is down: the surviving majority keeps acking
      // (never when the primary row store itself is the victim — its
      // worker cannot serve), and sometimes archives, advancing WAL GC
      // past what the victim holds so its return needs a snapshot.
      if (victim != 0) {
        write_acked(1 + static_cast<int>(rng.Uniform(4)));
        if (rng.OneIn(2)) {
          auto built = worker->RunBuildPass();
          ASSERT_TRUE(built.ok()) << built.status().ToString();
        }
      }

      ASSERT_TRUE(worker->RecoverReplica(victim).ok());
      write_acked(1);  // pumps ticks; drives catch-up (or InstallSnapshot)
      worker->raft()->Tick(500);

      std::set<std::string> visible;
      CollectVisibleMarkers(*worker, store, map, &visible);
      if (::testing::Test::HasFatalFailure()) return;
      for (const std::string& marker : acked) {
        ASSERT_TRUE(visible.count(marker))
            << "sweep " << sweep << " victim " << victim << " lost "
            << marker;
      }
    }
  }

  // Full process restart at the end: recovery from disk alone.
  worker = std::make_unique<Worker>(1, &store, &map, options);
  ASSERT_TRUE(worker->wal_status().ok());
  std::set<std::string> visible;
  CollectVisibleMarkers(*worker, store, map, &visible);
  if (::testing::Test::HasFatalFailure()) return;
  for (const std::string& marker : acked) {
    ASSERT_TRUE(visible.count(marker)) << "restart lost " << marker;
  }
  CheckSegmentInvariant(*worker);
  worker.reset();
  fs::remove_all(dir);
}

TEST(CrashRecoveryTest, RollingReplicaRestartsLoseNoAckedWrites) {
  const int seeds = SeedCount();
  for (int seed = 1; seed <= seeds; ++seed) {
    RunRollingRestartSeed(static_cast<uint64_t>(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Disk-full / IO-error injection: a write the WAL refused must never be
// acked, must never wedge the group permanently, and must leave every
// segment parseable.
// ---------------------------------------------------------------------------

TEST(CrashRecoveryTest, EnospcOnReplicaAppendFailsTheAckUntilRepaired) {
  const fs::path dir = fs::temp_directory_path() / "crash_recovery_enospc";
  fs::remove_all(dir);
  objectstore::MemoryObjectStore store;
  logblock::LogBlockMap map;

  WorkerOptions options;
  options.schema = logblock::RequestLogSchema();
  options.replicated = true;
  options.wal_dir = dir.string();
  options.wal.sync_policy = SyncPolicy::kOnSync;

  auto worker = std::make_unique<Worker>(1, &store, &map, options);
  ASSERT_TRUE(worker->wal_status().ok());
  ASSERT_TRUE(worker->Write(1, MarkerRow(1, 100, "pre-enospc")).ok());

  // ENOSPC mid-record on one replica's journal. The entry may still reach
  // the in-memory logs, but SyncAll must surface the journaling failure:
  // the client never sees an ack it could rely on.
  const int victim = 2;  // WAL-only replica: pure journal, no row store
  worker->wal(victim)->InjectAppendErrors(1, /*partial_write=*/true);
  EXPECT_FALSE(worker->Write(1, MarkerRow(1, 101, "refused-1")).ok());
  // The replica's memory and disk diverged; it stays fail-stop (every
  // later ack attempt fails) until repaired by a restart of that replica.
  EXPECT_FALSE(worker->Write(1, MarkerRow(1, 102, "refused-2")).ok());

  worker->raft()->Disconnect(victim);  // model the operator killing it
  ASSERT_TRUE(worker->RecoverReplica(victim).ok());
  ASSERT_TRUE(worker->Write(1, MarkerRow(1, 103, "post-repair")).ok());

  // Across a full restart: both acked writes present, torn nothing.
  worker = std::make_unique<Worker>(1, &store, &map, options);
  ASSERT_TRUE(worker->wal_status().ok());
  std::set<std::string> visible;
  CollectVisibleMarkers(*worker, store, map, &visible);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_TRUE(visible.count("pre-enospc"));
  EXPECT_TRUE(visible.count("post-repair"));
  for (int node = 0; node < 3; ++node) {
    EXPECT_EQ(worker->wal(node)->recovered().repaired_tail_bytes, 0u)
        << "ENOSPC rollback left a torn record on node " << node;
  }
  worker.reset();
  fs::remove_all(dir);
}

TEST(CrashRecoveryTest, EioOnFsyncWedgesReplicaUntilRepaired) {
  const fs::path dir = fs::temp_directory_path() / "crash_recovery_eio";
  fs::remove_all(dir);
  objectstore::MemoryObjectStore store;
  logblock::LogBlockMap map;

  WorkerOptions options;
  options.schema = logblock::RequestLogSchema();
  options.replicated = true;
  options.wal_dir = dir.string();
  options.wal.sync_policy = SyncPolicy::kOnSync;

  auto worker = std::make_unique<Worker>(1, &store, &map, options);
  ASSERT_TRUE(worker->wal_status().ok());
  ASSERT_TRUE(worker->Write(1, MarkerRow(1, 100, "pre-eio")).ok());

  const int victim = 1;
  worker->wal(victim)->InjectSyncErrors(1);
  // EIO at the group-commit fsync: no ack, and the wedge is sticky (a
  // failed fsync cannot be retried into success).
  EXPECT_FALSE(worker->Write(1, MarkerRow(1, 101, "refused-1")).ok());
  EXPECT_FALSE(worker->Write(1, MarkerRow(1, 102, "refused-2")).ok());

  worker->raft()->Disconnect(victim);
  ASSERT_TRUE(worker->RecoverReplica(victim).ok());
  ASSERT_TRUE(worker->Write(1, MarkerRow(1, 103, "post-repair")).ok());

  worker = std::make_unique<Worker>(1, &store, &map, options);
  ASSERT_TRUE(worker->wal_status().ok());
  std::set<std::string> visible;
  CollectVisibleMarkers(*worker, store, map, &visible);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_TRUE(visible.count("pre-eio"));
  EXPECT_TRUE(visible.count("post-repair"));
  worker.reset();
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Multi-worker cluster: rolling worker-process restarts over per-worker
// durable WAL directories.
// ---------------------------------------------------------------------------

TEST(CrashRecoveryTest, ClusterRollingWorkerRestartsLoseNoAckedWrites) {
  const fs::path dir =
      fs::temp_directory_path() / "crash_recovery_cluster_rolling";
  fs::remove_all(dir);
  objectstore::MemoryObjectStore store;

  cluster::ClusterDeploymentOptions options;
  options.num_workers = 2;
  options.shards_per_worker = 2;
  options.worker.schema = logblock::RequestLogSchema();
  options.worker.replicated = true;
  options.worker.wal_dir = dir.string();
  options.worker.wal.sync_policy = SyncPolicy::kOnSync;
  options.worker.wal.segment_target_bytes = 1024;

  auto cluster = cluster::Cluster::Open(&store, options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  std::set<std::string> acked;
  uint64_t next_marker = 0;
  auto write_acked = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const uint64_t tenant = 1 + (next_marker % 2);
      const std::string marker = "cluster-m" + std::to_string(next_marker++);
      ASSERT_TRUE(
          (*cluster)->Write(tenant, MarkerRow(tenant, 500 + i, marker)).ok());
      acked.insert(marker);
    }
  };

  write_acked(6);
  auto built = (*cluster)->RunBuildPass();
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  // Restart every worker in turn, writing between restarts so each one
  // recovers while its peers carry live, partially archived state.
  for (uint32_t w = 0; w < (*cluster)->num_workers(); ++w) {
    ASSERT_TRUE((*cluster)->RestartWorker(w).ok()) << "worker " << w;
    write_acked(4);
  }

  std::set<std::string> visible;
  logblock::LogBlockMap* map = (*cluster)->controller()->metadata();
  for (uint32_t w = 0; w < (*cluster)->num_workers(); ++w) {
    CollectVisibleMarkers(*(*cluster)->worker(w), store, *map, &visible);
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (const std::string& marker : acked) {
    EXPECT_TRUE(visible.count(marker)) << "lost " << marker;
  }
  cluster->reset();
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// LogStore facade: single-node WAL mode. Appends survive a crash before
// Flush; Flush advances the watermark so a later crash replays only the
// un-archived suffix.
// ---------------------------------------------------------------------------

class LogStoreCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = fs::temp_directory_path() /
            ("logstore_crash_" + std::to_string(::testing::UnitTest::
                                                    GetInstance()
                                                        ->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    fs::remove_all(base_);
    fs::create_directories(base_);
  }
  void TearDown() override { fs::remove_all(base_); }

  LogStoreOptions Options() {
    LogStoreOptions options;
    options.storage_dir = (base_ / "objects").string();
    options.wal_dir = (base_ / "wal").string();
    return options;
  }

  size_t QueryCount(LogStore& db, uint64_t tenant) {
    query::LogQuery query;
    query.tenant_id = tenant;
    auto result = db.Query(query);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->rows.size() : 0;
  }

  fs::path base_;
};

TEST_F(LogStoreCrashTest, UnflushedAppendsReplayOnReopen) {
  {
    auto db = LogStore::Open(Options());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          (*db)->Append(1, MarkerRow(1, 100 + i, "pre-crash")).ok());
    }
    // No Flush, no clean shutdown: the row store content exists only in
    // the WAL when the process dies here.
  }
  auto db = LogStore::Open(Options());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->GetStats().rows_in_rowstore, 5u);
  EXPECT_EQ(QueryCount(**db, 1), 5u);
}

TEST_F(LogStoreCrashTest, FlushAdvancesWatermarkAndReplaysOnlySuffix) {
  {
    auto db = LogStore::Open(Options());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE((*db)->Append(1, MarkerRow(1, 100 + i, "archived")).ok());
    }
    ASSERT_TRUE((*db)->Flush().ok());  // archives + advances the watermark
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*db)->Append(1, MarkerRow(1, 200 + i, "tail")).ok());
    }
  }
  auto db = LogStore::Open(Options());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // Only the post-flush suffix replays into the row store; the archived
  // rows come back through LogBlocks. Nothing is lost, nothing doubled.
  EXPECT_EQ((*db)->GetStats().rows_in_rowstore, 3u);
  EXPECT_EQ(QueryCount(**db, 1), 7u);
}

TEST_F(LogStoreCrashTest, TornWalTailRecoversCleanly) {
  auto options = Options();
  options.wal.sync_policy = SyncPolicy::kOnSync;
  uint64_t synced_rows = 0;
  {
    auto db = LogStore::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE((*db)->Append(1, MarkerRow(1, 100 + i, "acked")).ok());
    }
    synced_rows = 6;  // facade Append syncs before acknowledging
    ASSERT_TRUE((*db)->wal()->SimulateCrash(CrashMode::kTornWrite, 42).ok());
  }
  auto db = LogStore::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->GetStats().rows_in_rowstore, synced_rows);
}

}  // namespace
}  // namespace logstore
