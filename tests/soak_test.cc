// Long-soak availability harness + chaos rungs for the autonomous control
// plane (§13).
//
// Four rung families, each its own test:
//
//   1. AvailabilityFloorUnderContinuousLoadAndFaults — continuous Zipfian
//      write+query load against the LIVE monitor for a wall-clock budget
//      (SOAK_SECONDS), every write attempt sampled into SOAK_BUCKET_MS time
//      buckets. Scheduled faults (replica wedge, process kill, object-store
//      brownout, rejoin) each open a fault window; outside those windows
//      every bucket's write-success rate must hold the Taurus-style
//      availability floor (>= 99%). The harness's own attempt/success/
//      unavailable/error tallies must equal the cluster.availability.*
//      registry cells exactly — the cells are the soak's export surface
//      (bench_soak commits them), so they must count precisely the
//      client-facing dispatches and nothing else (tail replay is excluded).
//
//   2. SnapshotTransfer*MidStream — partitions, follower restarts and
//      leader kills injected while a chunked InstallSnapshot is provably
//      mid-stream (0 < chunks_received < total) at cluster scale, with
//      exact chunk/rewind accounting and archived-manifest verification.
//      The snapshot blob here is real: the worker ships its builder's
//      archived-key manifest, and the installing replica probes every key
//      against shared storage (snapshot_manifest_keys_* counters).
//
//   3. BrownoutDuringFailoverTailReplay — the object store browns out
//      (kUnavailable) across a worker kill + failover tail replay + rejoin.
//      The tail replay reads local WALs, so zero acked rows are lost; reads
//      and build passes degrade to retryable kUnavailable, never a silent
//      partial result; everything heals once the brownout lifts.
//
//   4. SplitBrainControlPlanes — a test thread hammers RunControlCycle
//      while the live monitor thread runs and a pause/resume storm races
//      both. Epoch fencing must hold: exactly one failover per kill (no
//      double-failover), every placement snapshot internally consistent
//      (shards owned by live workers), epochs monotonic.
//
// Plus the monitor wake-contract regression (PauseMonitor/ResumeMonitor/
// StopMonitor timing, see the contract on Cluster::PauseMonitor): with a
// huge poll interval the loop must run zero cycles until kicked, run
// exactly one cycle per resume-kick, honor nested pauses, and stop
// promptly even while paused.
//
// SOAK_SECONDS / SOAK_SEEDS / SOAK_BUCKET_MS / SOAK_WORKERS size the run;
// local defaults stay small so tier-1 stays fast, CI raises them.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/controller.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/random.h"
#include "consensus/durable_log.h"
#include "objectstore/fault_injecting_object_store.h"
#include "objectstore/memory_object_store.h"
#include "test_env.h"
#include "workload/zipfian.h"

namespace logstore::cluster {
namespace {

namespace fs = std::filesystem;

using consensus::CrashMode;
using consensus::SyncPolicy;
using testenv::EnvInt;
using testenv::MarkerRow;
using testenv::Oracle;
using testenv::SeedCount;

class SoakTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (cluster_ != nullptr) cluster_->StopMonitor();
    cluster_.reset();
    fault_store_.reset();
    base_store_.reset();
    registry_.reset();  // after the cluster: its cells are still referenced
    if (!dir_.empty()) fs::remove_all(dir_);
  }

  // A durable replicated deployment behind a fault-injecting store wrapper
  // (pass-through until a test arms a brownout). `tweak` adjusts the
  // options before Open (chunk sizes, retry deadlines).
  void OpenCluster(
      uint32_t num_workers, uint64_t seed,
      const std::function<void(ClusterDeploymentOptions*)>& tweak = {}) {
    dir_ = testenv::UniqueTempDir("soak", seed);
    // Fresh registry per deployment so availability-cell comparisons see
    // exactly this run's counters.
    registry_ = std::make_unique<metrics::MetricRegistry>();
    base_store_ = std::make_unique<objectstore::MemoryObjectStore>(registry_.get());
    objectstore::FaultInjectionOptions fault;
    fault.seed = seed;
    fault.registry = registry_.get();
    fault_store_ = std::make_unique<objectstore::FaultInjectingObjectStore>(
        base_store_.get(), fault);
    ClusterDeploymentOptions options;
    options.num_workers = num_workers;
    options.shards_per_worker = 2;
    options.worker.schema = logblock::RequestLogSchema();
    options.worker.replicated = true;
    options.worker.wal_dir = dir_.string();
    options.worker.wal.sync_policy = SyncPolicy::kOnSync;
    options.worker.wal.segment_target_bytes = 512;
    options.registry = registry_.get();
    if (tweak) tweak(&options);
    auto cluster = Cluster::Open(fault_store_.get(), options);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(cluster).value();
  }

  // Shrinks the deployment's object-store retry budget so a brownout
  // longer than the deadline surfaces as kUnavailable instead of being
  // silently retried through (the default 5 s call deadline would wait out
  // any test-sized brownout).
  static void ShortRetryDeadlines(ClusterDeploymentOptions* options) {
    options->retry.max_attempts = 2;
    options->retry.initial_backoff_us = 5'000;
    options->retry.max_backoff_us = 20'000;
    options->retry.call_deadline_us = 100'000;
  }

  // The worker currently serving `tenant` (first shard of its route).
  uint32_t WorkerOfTenant(uint64_t tenant) {
    cluster_->controller()->EnsureTenantRoute(tenant);
    const flow::RouteTable routes = cluster_->controller()->routes();
    const auto* weights = routes.Get(tenant);
    EXPECT_NE(weights, nullptr);
    EXPECT_FALSE(weights->empty());
    return cluster_->controller()->WorkerForShard(weights->begin()->first);
  }

  uint32_t LiveWorkers() const {
    uint32_t live = 0;
    for (uint32_t id = 0; id < cluster_->num_workers(); ++id) {
      if (cluster_->worker(id) != nullptr) ++live;
    }
    return live;
  }

  std::string NextMarker() { return "soak-m" + std::to_string(next_marker_++); }

  // One write that must succeed (quiescent setup phases).
  void WriteAcked(uint64_t tenant) {
    const std::string marker = NextMarker();
    const Status status = cluster_->Write(
        tenant, MarkerRow(tenant, 1000 + static_cast<int64_t>(next_marker_),
                          marker));
    ASSERT_TRUE(status.ok()) << status.ToString();
    oracle_[tenant].insert(marker);
  }

  // One write retried through transient unavailability (fault phases).
  // Acked -> oracle (must be visible forever). Never acked -> maybe (fate
  // indeterminate: replication may have happened before the error).
  void WriteRetry(uint64_t tenant) {
    const std::string marker = NextMarker();
    const int64_t ts = 1000 + static_cast<int64_t>(next_marker_);
    for (int attempt = 0; attempt < 200; ++attempt) {
      if (cluster_->Write(tenant, MarkerRow(tenant, ts, marker)).ok()) {
        oracle_[tenant].insert(marker);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    maybe_[tenant].insert(marker);
  }

  // Placement invariants at a quiescent point: every shard and route
  // targets a live worker, the epoch never moved backwards.
  void CheckPlacement(const std::string& context) {
    Controller* controller = cluster_->controller();
    const uint64_t epoch = controller->placement_epoch();
    EXPECT_GE(epoch, last_epoch_) << context << ": placement epoch went back";
    last_epoch_ = epoch;
    for (uint32_t s = 0; s < controller->num_shards(); ++s) {
      EXPECT_TRUE(controller->WorkerAlive(controller->WorkerForShard(s)))
          << context << ": shard " << s << " owned by dead worker";
    }
  }

  // Waits for the monitor to converge the fleet back to all-healthy,
  // rejoining failed-over workers along the way.
  bool AwaitConvergence(int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      for (uint32_t id = 0; id < cluster_->num_workers(); ++id) {
        if (cluster_->worker(id) == nullptr &&
            !cluster_->controller()->WorkerAlive(id)) {
          const Status status = cluster_->RestartWorker(id);
          EXPECT_TRUE(status.ok()) << status.ToString();
        }
      }
      bool healthy = true;
      for (const WorkerHealth& health : cluster_->HarvestHealth()) {
        if (!health.CanAck()) {
          healthy = false;
          break;
        }
      }
      if (healthy && LiveWorkers() == cluster_->num_workers()) {
        bool all_loaded = true;
        for (uint32_t id = 0; id < cluster_->num_workers(); ++id) {
          if (cluster_->controller()->ShardsOfWorker(id).empty()) {
            all_loaded = false;
            break;
          }
        }
        if (all_loaded) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  // Zero acked-row loss, nothing fabricated beyond indeterminate writes.
  // Issues queries, so in tests that compare the availability cells this
  // must run AFTER the registry comparison.
  void SweepOracle() {
    for (const auto& [tenant, expected] : oracle_) {
      query::LogQuery query;
      query.tenant_id = tenant;
      query.select_columns = {"log"};
      auto result = cluster_->Query(query);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      std::multiset<std::string> visible;
      for (const auto& row : result->rows) visible.insert(row[0].s);
      for (const auto& marker : expected) {
        EXPECT_GT(visible.count(marker), 0u)
            << "tenant " << tenant << " lost acked " << marker;
      }
      const auto maybe_it = maybe_.find(tenant);
      for (const auto& marker : visible) {
        const bool allowed =
            expected.count(marker) > 0 ||
            (maybe_it != maybe_.end() && maybe_it->second.count(marker) > 0);
        EXPECT_TRUE(allowed) << "tenant " << tenant << " fabricated " << marker;
      }
    }
  }

  // --- Chunked-snapshot-transfer scaffolding ---

  struct TransferSetup {
    Worker* worker = nullptr;
    int victim = 1;
    uint64_t total_chunks = 0;   // exact ceil(manifest blob / chunk bytes)
    size_t manifest_keys = 0;    // archived keys the manifest carries
  };

  static constexpr size_t kChunkBytes = 8;
  static constexpr char kManifestHeader[] = "logstore-manifest-v1\n";

  // Crashes replica `victim` of a one-worker deployment, archives the
  // group's log past the victim's end (so catch-up REQUIRES a chunked
  // InstallSnapshot of the archived-key manifest), restarts the victim and
  // ticks until the transfer is provably mid-stream:
  // 0 < chunks_received < total_chunks, nothing installed yet.
  void ForceMidStreamTransfer(uint64_t seed, TransferSetup* setup) {
    OpenCluster(/*num_workers=*/1, seed, [](ClusterDeploymentOptions* o) {
      // Tiny chunks so the manifest spans far more chunks than one message
      // cascade (~32 round-trips) can deliver — the transfer is guaranteed
      // to be interruptible between Tick steps.
      o->worker.raft.snapshot_chunk_bytes = kChunkBytes;
      o->worker.wal.segment_target_bytes = 256;
    });
    if (::testing::Test::HasFatalFailure()) return;
    Worker* worker = cluster_->worker(0);
    ASSERT_NE(worker, nullptr);
    setup->worker = worker;

    for (int i = 0; i < 4; ++i) WriteAcked(1 + (i % 2));
    ASSERT_TRUE(
        worker->CrashReplica(setup->victim, CrashMode::kDropUnsynced, seed)
            .ok());
    const uint64_t victim_log_end =
        worker->raft()->node(setup->victim).log_size();

    // The survivors keep writing and archiving; WAL GC advances the log
    // base past everything the dead replica holds.
    for (int round = 0; round < 12; ++round) {
      for (int i = 0; i < 3; ++i) WriteAcked(1 + (i % 2));
      auto built = cluster_->RunBuildPass();
      ASSERT_TRUE(built.ok()) << built.status().ToString();
    }
    const int leader = worker->raft()->WaitForLeader();
    ASSERT_GE(leader, 0);
    ASSERT_GT(worker->raft()->node(leader).log_base_index(), victim_log_end)
        << "GC did not pass the dead replica's log; no snapshot required";

    // Exact expected accounting: the snapshot blob is the archived-key
    // manifest (header + one key per line), split into kChunkBytes chunks.
    const std::vector<std::string> keys = worker->builder().ArchivedKeys();
    size_t blob_bytes = sizeof(kManifestHeader) - 1;
    for (const std::string& key : keys) blob_bytes += key.size() + 1;
    setup->manifest_keys = keys.size();
    setup->total_chunks = (blob_bytes + kChunkBytes - 1) / kChunkBytes;
    // Must be well past one delivery cascade, or the stream could complete
    // before the fault lands.
    ASSERT_GE(setup->total_chunks, 40u);

    ASSERT_TRUE(worker->RecoverReplica(setup->victim).ok());
    uint64_t received = 0;
    for (int i = 0; i < 400; ++i) {
      received = worker->raft()->node(setup->victim).snapshot_chunks_received();
      if (received > 0 && received < setup->total_chunks) break;
      worker->raft()->Tick(1);
    }
    ASSERT_GT(received, 0u) << "transfer never started";
    ASSERT_LT(received, setup->total_chunks) << "transfer completed too fast";
    ASSERT_EQ(worker->raft()->node(setup->victim).snapshots_installed(), 0u);
  }

  void DriveUntilInstalled(Worker* worker, int victim, int max_ms = 20000) {
    for (int elapsed = 0; elapsed < max_ms; elapsed += 20) {
      if (worker->raft()->node(victim).snapshots_installed() >= 1) return;
      worker->raft()->Tick(20);
    }
  }

  std::unique_ptr<metrics::MetricRegistry> registry_;
  fs::path dir_;
  std::unique_ptr<objectstore::MemoryObjectStore> base_store_;
  std::unique_ptr<objectstore::FaultInjectingObjectStore> fault_store_;
  std::unique_ptr<Cluster> cluster_;
  Oracle oracle_;
  Oracle maybe_;
  uint64_t next_marker_ = 0;
  uint64_t last_epoch_ = 0;
};

constexpr char SoakTest::kManifestHeader[];

// ---------------------------------------------------------------------------
// Monitor wake contract (regression for the PauseMonitor/StopMonitor timing
// flake): with a huge poll interval, the loop must be entirely kick-driven.
// ---------------------------------------------------------------------------

TEST_F(SoakTest, MonitorWakeContractKicksPromptly) {
  OpenCluster(/*num_workers=*/2, /*seed=*/11);
  if (::testing::Test::HasFatalFailure()) return;
  for (uint64_t t = 1; t <= 2; ++t) WriteAcked(t);

  // A poll interval of an hour: any cycle that runs below is kick-driven,
  // not timer-driven. The loop waits FIRST, so zero cycles until a kick.
  ASSERT_TRUE(cluster_->StartMonitor({/*poll_interval_ms=*/3'600'000}).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(cluster_->monitor_stats().cycles, 0u)
      << "monitor cycled before the poll interval without a kick";

  auto await_cycles = [&](uint64_t want, int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (cluster_->monitor_stats().cycles < want &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return cluster_->monitor_stats().cycles;
  };

  // One pause/resume = one kick = exactly one prompt cycle.
  cluster_->PauseMonitor();
  cluster_->ResumeMonitor();
  EXPECT_EQ(await_cycles(1, 5000), 1u)
      << "resume-kick did not wake the loop promptly";
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(cluster_->monitor_stats().cycles, 1u)
      << "a single kick ran more than one cycle";

  // Nested pauses: the inner resume must NOT re-arm the monitor while the
  // outer pause still holds its quiescent window.
  cluster_->PauseMonitor();
  cluster_->PauseMonitor();
  cluster_->ResumeMonitor();  // depth 2 -> 1: still paused, no kick
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(cluster_->monitor_stats().cycles, 1u)
      << "inner resume re-armed the monitor inside the outer pause window";
  cluster_->ResumeMonitor();  // depth 1 -> 0: kick
  EXPECT_EQ(await_cycles(2, 5000), 2u)
      << "last resume did not kick the loop";

  // Stop outranks pause and must return promptly despite the huge poll
  // interval (join of a loop that wakes on monitor_stop_).
  cluster_->PauseMonitor();
  const auto stop_start = std::chrono::steady_clock::now();
  cluster_->StopMonitor();
  const auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - stop_start)
                           .count();
  EXPECT_LT(stop_ms, 2000) << "StopMonitor slept out the poll interval";
  EXPECT_FALSE(cluster_->monitor_running());
  cluster_->StopMonitor();  // idempotent
}

// ---------------------------------------------------------------------------
// Rung family 1: the availability floor under continuous load and faults.
// ---------------------------------------------------------------------------

TEST_F(SoakTest, AvailabilityFloorUnderContinuousLoadAndFaults) {
  const int soak_seconds = EnvInt("SOAK_SECONDS", 2);
  const int num_seeds = SeedCount("SOAK_SEEDS", 1);
  const int64_t bucket_ms = std::max(10, EnvInt("SOAK_BUCKET_MS", 100));
  const uint32_t num_workers =
      static_cast<uint32_t>(EnvInt("SOAK_WORKERS", 6));
  const uint64_t num_tenants = 8;
  const int64_t duration_ms = static_cast<int64_t>(soak_seconds) * 1000;

  for (int s = 0; s < num_seeds; ++s) {
    const uint64_t seed = 4200 + static_cast<uint64_t>(s);
    SCOPED_TRACE("seed " + std::to_string(seed));
    TearDown();
    oracle_.clear();
    maybe_.clear();
    next_marker_ = 0;
    last_epoch_ = 0;
    OpenCluster(num_workers, seed, &SoakTest::ShortRetryDeadlines);
    if (::testing::Test::HasFatalFailure()) return;

    struct Bucket {
      int64_t attempts = 0;
      int64_t successes = 0;
    };
    std::vector<Bucket> buckets(duration_ms / bucket_ms + 2);
    struct Window {
      int64_t start_ms = 0;
      int64_t end_ms = -1;  // -1: still open
      const char* kind = "";
    };
    std::vector<Window> windows;
    // Harness-side tallies, compared against the cluster.availability.*
    // cells at the end: the cells must count exactly the client-facing
    // dispatches this loop makes, nothing more (tail replay, control
    // cycles and convergence probes must not pollute them).
    int64_t w_attempts = 0, w_successes = 0, w_unavailable = 0, w_errors = 0;
    int64_t q_attempts = 0, q_successes = 0, q_unavailable = 0, q_errors = 0;

    // Seed every tenant's route before the clock starts.
    for (uint64_t t = 1; t <= num_tenants; ++t) {
      const std::string marker = NextMarker();
      const Status status =
          cluster_->Write(t, MarkerRow(t, 1000, marker));
      ++w_attempts;
      if (status.ok()) {
        ++w_successes;
        oracle_[t].insert(marker);
      } else {
        ASSERT_TRUE(false) << "pre-fault seed write failed: "
                           << status.ToString();
      }
    }
    ASSERT_TRUE(cluster_->StartMonitor({/*poll_interval_ms=*/5}).ok());

    Random rng(seed);
    workload::ZipfianGenerator tenants(num_tenants, 0.9, seed);
    const auto start = std::chrono::steady_clock::now();
    auto elapsed_ms = [&] {
      return std::chrono::duration_cast<std::chrono::milliseconds>(
                 std::chrono::steady_clock::now() - start)
          .count();
    };

    enum FaultKind { kWedge, kKill, kBrownout, kRejoin };
    struct Event {
      double fraction;
      FaultKind kind;
      bool fired = false;
    };
    std::vector<Event> events = {{0.15, kWedge},
                                 {0.35, kKill},
                                 {0.55, kBrownout},
                                 {0.75, kRejoin}};
    int consecutive_ok = 0;
    int64_t brownout_end_us = 0;
    int iteration = 0;

    // True when the control plane has visibly finished repairing: every
    // shard owned by a live worker whose process is up. (A success streak
    // alone can close a window prematurely when the Zipfian draw skips the
    // broken worker's tenants for a stretch.)
    auto placement_healthy = [&] {
      const Controller::PlacementView view =
          cluster_->controller()->PlacementSnapshot();
      for (const uint32_t owner : view.shard_to_worker) {
        if (owner >= view.worker_alive.size() || !view.worker_alive[owner] ||
            cluster_->worker(owner) == nullptr) {
          return false;
        }
      }
      return true;
    };

    while (elapsed_ms() < duration_ms) {
      // Fire any scheduled fault whose time has come; each opens a window.
      for (Event& event : events) {
        if (event.fired ||
            elapsed_ms() < static_cast<int64_t>(event.fraction * duration_ms)) {
          continue;
        }
        event.fired = true;
        switch (event.kind) {
          case kWedge: {
            // Wedge a replica of the hot tenant's worker (guaranteed
            // traffic, so the monitor's in-place repair rung observably
            // runs) and open a window until it heals.
            windows.push_back({elapsed_ms(), -1, "wedge"});
            const uint32_t target = WorkerOfTenant(1);
            cluster_->PauseMonitor();
            Worker* worker = cluster_->worker(target);
            if (worker != nullptr) {
              worker->InjectReplicaSyncError(static_cast<int>(rng.Uniform(3)))
                  .IgnoreError();
            }
            cluster_->ResumeMonitor();
            break;
          }
          case kKill: {
            if (LiveWorkers() <= num_workers / 2 + 1) break;
            uint32_t victim = rng.Uniform(num_workers);
            for (uint32_t probe = 0; probe < num_workers; ++probe) {
              const uint32_t id = (victim + probe) % num_workers;
              if (cluster_->worker(id) != nullptr) {
                victim = id;
                break;
              }
            }
            windows.push_back({elapsed_ms(), -1, "kill"});
            EXPECT_TRUE(cluster_->KillWorker(victim).ok());
            break;
          }
          case kBrownout: {
            // Shared storage browns out for 150 ms: writes never touch it
            // (raft + local WAL), archive passes fail fast and keep their
            // rows, queries needing LogBlocks degrade to kUnavailable.
            windows.push_back({elapsed_ms(), -1, "brownout"});
            const int64_t now_us = SystemClock::Default()->NowMicros();
            brownout_end_us = now_us + 150'000;
            fault_store_->SetBrownout(now_us, brownout_end_us);
            cluster_->RunBuildPass().status().IgnoreError();
            break;
          }
          case kRejoin: {
            windows.push_back({elapsed_ms(), -1, "rejoin"});
            for (uint32_t id = 0; id < num_workers; ++id) {
              if (cluster_->worker(id) == nullptr &&
                  !cluster_->controller()->WorkerAlive(id)) {
                EXPECT_TRUE(cluster_->RestartWorker(id).ok());
              }
            }
            break;
          }
        }
      }

      // One sampled write attempt (no retry: the bucket IS the retry view).
      const uint64_t tenant = 1 + tenants.Next();
      const std::string marker = NextMarker();
      const int64_t t_ms = elapsed_ms();
      const Status status = cluster_->Write(
          tenant,
          MarkerRow(tenant, 1000 + static_cast<int64_t>(next_marker_), marker));
      ++w_attempts;
      const size_t bucket = std::min<size_t>(
          static_cast<size_t>(t_ms / bucket_ms), buckets.size() - 1);
      ++buckets[bucket].attempts;
      if (status.ok()) {
        ++buckets[bucket].successes;
        ++w_successes;
        oracle_[tenant].insert(marker);
        ++consecutive_ok;
      } else {
        if (status.IsUnavailable()) {
          ++w_unavailable;
        } else {
          ++w_errors;
        }
        maybe_[tenant].insert(marker);
        consecutive_ok = 0;
      }

      // Close open windows once service is provably restored: a success
      // streak AND a healthy placement (brownouts additionally wait out
      // their clock window).
      for (Window& window : windows) {
        if (window.end_ms >= 0) continue;
        if (std::string_view(window.kind) == "brownout" &&
            SystemClock::Default()->NowMicros() < brownout_end_us) {
          continue;
        }
        if (consecutive_ok >= 24 && placement_healthy()) {
          window.end_ms = elapsed_ms();
        }
      }

      // Interleaved read load (availability tracked, no floor: the write
      // floor is the ISSUE's metric; queries are asserted non-partial by
      // the final sweep and the brownout rung).
      if (++iteration % 40 == 0) {
        query::LogQuery query;
        query.tenant_id = 1 + tenants.Next();
        query.select_columns = {"log"};
        const auto result = cluster_->Query(query);
        ++q_attempts;
        if (result.ok()) {
          ++q_successes;
        } else if (result.status().IsUnavailable()) {
          ++q_unavailable;
        } else {
          ++q_errors;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (::testing::Test::HasFatalFailure()) return;
    // Anything still open rode into the end of the run.
    for (Window& window : windows) {
      if (window.end_ms < 0) window.end_ms = duration_ms;
    }

    // The storm schedule must actually have fired its rungs.
    EXPECT_GE(windows.size(), 4u);

    ASSERT_TRUE(AwaitConvergence(/*timeout_ms=*/30000))
        << "fleet did not converge after the soak";
    cluster_->PauseMonitor();
    CheckPlacement("post-soak");

    const MonitorStats stats = cluster_->monitor_stats();
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_EQ(stats.cycle_errors, 0u);
    EXPECT_EQ(stats.tails_lost, 0u)
        << "a healthy-kill failover declared a tail lost";
    EXPECT_GE(stats.failovers, 1u) << "the kill rung never failed over";

    // The availability cells are the export surface (bench_soak commits
    // them): they must match the harness's own tallies EXACTLY. Compared
    // before SweepOracle, whose queries would advance the query cells.
    const auto snap = registry_->SnapshotMap();
    EXPECT_EQ(snap.at("cluster.availability.write_attempts"), w_attempts);
    EXPECT_EQ(snap.at("cluster.availability.write_successes"), w_successes);
    EXPECT_EQ(snap.at("cluster.availability.write_unavailable"),
              w_unavailable);
    EXPECT_EQ(snap.at("cluster.availability.write_errors"), w_errors);
    EXPECT_EQ(snap.at("cluster.availability.query_attempts"), q_attempts);
    EXPECT_EQ(snap.at("cluster.availability.query_successes"), q_successes);
    EXPECT_EQ(snap.at("cluster.availability.query_unavailable"),
              q_unavailable);
    EXPECT_EQ(snap.at("cluster.availability.query_errors"), q_errors);

    // The floor: outside fault windows (padded by one bucket on each side),
    // every sampled bucket must hold >= 99% write success.
    auto in_fault_window = [&](int64_t from_ms, int64_t to_ms) {
      for (const Window& window : windows) {
        if (from_ms < window.end_ms + bucket_ms &&
            to_ms > window.start_ms - bucket_ms) {
          return true;
        }
      }
      return false;
    };
    int64_t clean_buckets = 0;
    int64_t clean_attempts = 0, clean_successes = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
      if (buckets[i].attempts == 0) continue;
      const int64_t from_ms = static_cast<int64_t>(i) * bucket_ms;
      if (in_fault_window(from_ms, from_ms + bucket_ms)) continue;
      ++clean_buckets;
      clean_attempts += buckets[i].attempts;
      clean_successes += buckets[i].successes;
      const double rate = static_cast<double>(buckets[i].successes) /
                          static_cast<double>(buckets[i].attempts);
      EXPECT_GE(rate, 0.99)
          << "bucket " << i << " [" << from_ms << "ms," << from_ms + bucket_ms
          << "ms) fell below the availability floor outside fault windows ("
          << buckets[i].successes << "/" << buckets[i].attempts << ")";
    }
    EXPECT_GT(clean_buckets, 0) << "every bucket overlapped a fault window; "
                                   "the floor was never measured";
    if (clean_attempts > 0) {
      EXPECT_GE(static_cast<double>(clean_successes) /
                    static_cast<double>(clean_attempts),
                0.99);
    }

    // Zero acked-row loss across the whole soak.
    SweepOracle();
    cluster_->StopMonitor();
  }
}

// ---------------------------------------------------------------------------
// Rung family 2: faults while a chunked InstallSnapshot is mid-stream.
// ---------------------------------------------------------------------------

TEST_F(SoakTest, SnapshotTransferResumesAcrossPartitionMidStream) {
  TransferSetup setup;
  ForceMidStreamTransfer(/*seed=*/21, &setup);
  if (::testing::Test::HasFatalFailure()) return;
  consensus::RaftCluster* raft = setup.worker->raft();
  const uint64_t received_at_cut =
      raft->node(setup.victim).snapshot_chunks_received();

  // Partition the catching-up follower mid-stream; the leader's sends go
  // into the void and the follower's staging freezes where it was.
  raft->Disconnect(setup.victim);
  raft->Tick(100);
  EXPECT_EQ(raft->node(setup.victim).snapshot_chunks_received(),
            received_at_cut);
  raft->Reconnect(setup.victim);
  DriveUntilInstalled(setup.worker, setup.victim);

  // Resume, not restart: the follower's cursor is authoritative, duplicate
  // chunks re-ack without re-staging, so the fresh-chunk count is EXACTLY
  // ceil(blob / chunk) — and nothing was rewound.
  ASSERT_GE(raft->node(setup.victim).snapshots_installed(), 1u);
  EXPECT_EQ(raft->node(setup.victim).snapshot_chunks_received(),
            setup.total_chunks);
  const int leader = raft->leader();
  ASSERT_GE(leader, 0);
  EXPECT_EQ(raft->node(leader).snapshot_chunk_rewinds(), 0u);
  EXPECT_EQ(raft->node(setup.victim).last_applied(),
            raft->node(leader).last_applied());

  // The installer verified every archived key of the manifest against
  // shared storage, and every probe confirmed.
  EXPECT_EQ(setup.worker->snapshot_manifest_keys_checked(),
            setup.manifest_keys);
  EXPECT_EQ(setup.worker->snapshot_manifest_keys_unverified(), 0u);

  for (int i = 0; i < 2; ++i) WriteAcked(1 + (i % 2));
  SweepOracle();
}

TEST_F(SoakTest, SnapshotTransferFollowerRestartMidStreamRewinds) {
  TransferSetup setup;
  ForceMidStreamTransfer(/*seed=*/22, &setup);
  if (::testing::Test::HasFatalFailure()) return;
  consensus::RaftCluster* raft = setup.worker->raft();

  // Crash the follower mid-stream (staging dies with the process) and
  // restart it. The leader resumes at its old offset; the fresh follower
  // has no staging for that transfer, so the mid-blob chunk is refused
  // (stale rejection), the leader rewinds to zero, and the whole blob
  // streams again into the fresh counter.
  ASSERT_TRUE(setup.worker
                  ->CrashReplica(setup.victim, CrashMode::kDropUnsynced,
                                 /*seed=*/220)
                  .ok());
  ASSERT_TRUE(setup.worker->RecoverReplica(setup.victim).ok());
  DriveUntilInstalled(setup.worker, setup.victim);

  ASSERT_GE(raft->node(setup.victim).snapshots_installed(), 1u);
  EXPECT_EQ(raft->node(setup.victim).snapshot_chunks_received(),
            setup.total_chunks);
  EXPECT_GE(raft->node(setup.victim).snapshot_stale_rejections(), 1u)
      << "the restarted follower never refused the mid-blob chunk";
  const int leader = raft->leader();
  ASSERT_GE(leader, 0);
  EXPECT_GE(raft->node(leader).snapshot_chunk_rewinds(), 1u)
      << "the leader never rewound to the follower's (empty) cursor";
  EXPECT_EQ(raft->node(setup.victim).last_applied(),
            raft->node(leader).last_applied());
  EXPECT_EQ(setup.worker->snapshot_manifest_keys_checked(),
            setup.manifest_keys);
  EXPECT_EQ(setup.worker->snapshot_manifest_keys_unverified(), 0u);

  for (int i = 0; i < 2; ++i) WriteAcked(1 + (i % 2));
  SweepOracle();
}

TEST_F(SoakTest, SnapshotTransferSurvivesLeaderKillMidStream) {
  TransferSetup setup;
  ForceMidStreamTransfer(/*seed=*/23, &setup);
  if (::testing::Test::HasFatalFailure()) return;
  consensus::RaftCluster* raft = setup.worker->raft();
  const int old_leader = raft->leader();
  ASSERT_GE(old_leader, 0);
  ASSERT_NE(old_leader, setup.victim);

  // Kill the sending leader mid-stream. The third replica wins the
  // election (the mid-catch-up victim's log cannot), starts a fresh
  // transfer at offset zero — higher term, different identity, so it
  // REPLACES the dead leader's staged bytes instead of splicing into them
  // — and completes the install.
  ASSERT_TRUE(setup.worker
                  ->CrashReplica(old_leader, CrashMode::kDropUnsynced,
                                 /*seed=*/230)
                  .ok());
  const int new_leader = raft->WaitForLeader();
  ASSERT_GE(new_leader, 0);
  ASSERT_NE(new_leader, old_leader);
  ASSERT_NE(new_leader, setup.victim);
  DriveUntilInstalled(setup.worker, setup.victim);

  ASSERT_GE(raft->node(setup.victim).snapshots_installed(), 1u);
  // Partial old-transfer bytes plus the full new stream: at least one full
  // blob's worth of fresh chunks landed.
  EXPECT_GE(raft->node(setup.victim).snapshot_chunks_received(),
            setup.total_chunks);
  EXPECT_EQ(raft->node(setup.victim).last_applied(),
            raft->node(new_leader).last_applied());
  EXPECT_EQ(setup.worker->snapshot_manifest_keys_checked(),
            setup.manifest_keys);
  EXPECT_EQ(setup.worker->snapshot_manifest_keys_unverified(), 0u);

  // The two-replica majority (victim + new leader) still acknowledges.
  for (int i = 0; i < 2; ++i) WriteAcked(1 + (i % 2));
  SweepOracle();
}

// ---------------------------------------------------------------------------
// Rung family 3: object-store brownout across failover tail replay.
// ---------------------------------------------------------------------------

TEST_F(SoakTest, BrownoutDuringFailoverTailReplay) {
  const uint64_t num_tenants = 6;
  OpenCluster(/*num_workers=*/4, /*seed=*/31, &SoakTest::ShortRetryDeadlines);
  if (::testing::Test::HasFatalFailure()) return;

  // Archived history plus an un-archived tail on every tenant.
  for (uint64_t t = 1; t <= num_tenants; ++t) {
    for (int i = 0; i < 4; ++i) WriteAcked(t);
  }
  auto built = cluster_->RunBuildPass();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_GT(*built, 0);
  for (uint64_t t = 1; t <= num_tenants; ++t) {
    for (int i = 0; i < 2; ++i) WriteAcked(t);
  }
  const uint32_t victim = WorkerOfTenant(1);

  // Brownout with no scheduled end: everything below runs inside the
  // window by construction, with zero wall-clock timing assumptions.
  const int64_t now_us = SystemClock::Default()->NowMicros();
  fault_store_->SetBrownout(now_us, now_us + 3'600'000'000LL);

  // Kill + failover DURING the brownout. The tail replay reads the dead
  // worker's local replica WALs and re-ingests through the broker — no
  // object-store dependency — so the brownout must not cost a single
  // acked row.
  ASSERT_TRUE(cluster_->KillWorker(victim).ok());
  auto cycle = cluster_->RunControlCycle();
  ASSERT_TRUE(cycle.ok()) << cycle.status().ToString();
  ASSERT_EQ(cycle->failovers.size(), 1u);
  EXPECT_EQ(cycle->failovers[0].worker, victim);
  EXPECT_FALSE(cycle->failovers[0].tail_lost)
      << "brownout must not make an intact local tail unrecoverable";
  EXPECT_GT(cycle->failovers[0].tail_rows_recovered, 0u);

  // Reads during the brownout: cold caches force LogBlock fetches, which
  // the shrunk retry budget turns into kUnavailable — retryable, never a
  // silent partial result. A query that does succeed (everything it needs
  // cached/realtime) must be COMPLETE.
  cluster_->ClearQueryCaches();
  int unavailable = 0;
  for (uint64_t t = 1; t <= num_tenants; ++t) {
    query::LogQuery query;
    query.tenant_id = t;
    query.select_columns = {"log"};
    const auto result = cluster_->Query(query);
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsUnavailable())
          << result.status().ToString();
      ++unavailable;
      continue;
    }
    std::multiset<std::string> visible;
    for (const auto& row : result->rows) visible.insert(row[0].s);
    for (const auto& marker : oracle_[t]) {
      EXPECT_GT(visible.count(marker), 0u)
          << "tenant " << t << ": query during brownout returned a partial "
          << "result (missing " << marker << ") instead of kUnavailable";
    }
  }
  EXPECT_GT(unavailable, 0)
      << "no query degraded to kUnavailable during the brownout";

  // Archive passes during the brownout fail fast and keep their rows
  // (truncate-after-upload contract), and the rejoined worker comes back
  // even while shared storage is dark (rejoin is WAL-local).
  EXPECT_FALSE(cluster_->RunBuildPass().ok());
  ASSERT_TRUE(cluster_->RestartWorker(victim).ok());
  EXPECT_GT(fault_store_->fault_stats().brownout_rejections.load(), 0u);

  // Brownout lifts: the deferred archive pass succeeds (the rejoined
  // worker's build path included) and every acked row is visible, scatter
  // and single-engine agreeing byte-for-byte.
  fault_store_->SetBrownout(0, 0);
  auto heal_cycle = cluster_->RunControlCycle();
  ASSERT_TRUE(heal_cycle.ok()) << heal_cycle.status().ToString();
  for (uint64_t t = 1; t <= num_tenants; ++t) WriteAcked(t);
  auto rebuilt = cluster_->RunBuildPass();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  cluster_->ClearQueryCaches();
  for (uint64_t t = 1; t <= num_tenants; ++t) {
    query::LogQuery query;
    query.tenant_id = t;
    query.select_columns = {"log"};
    const auto scattered = cluster_->Query(query);
    ASSERT_TRUE(scattered.ok()) << scattered.status().ToString();
    const auto single = cluster_->QuerySingleEngine(query);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    ASSERT_EQ(scattered->rows.size(), single->rows.size());
    for (size_t r = 0; r < scattered->rows.size(); ++r) {
      EXPECT_EQ(scattered->rows[r][0].s, single->rows[r][0].s);
    }
  }
  SweepOracle();
}

// ---------------------------------------------------------------------------
// Rung family 4: monitor-vs-monitor split brain.
// ---------------------------------------------------------------------------

TEST_F(SoakTest, SplitBrainControlPlanesFenceByEpoch) {
  const uint32_t num_workers = 6;
  const int storm_ms = EnvInt("SOAK_SPLITBRAIN_MS", 1500);
  OpenCluster(num_workers, /*seed=*/41);
  if (::testing::Test::HasFatalFailure()) return;
  const uint64_t num_tenants = 8;
  for (uint64_t t = 1; t <= num_tenants; ++t) WriteAcked(t);

  // The live monitor is one control plane; a test thread running
  // RunControlCycle in a loop is the second; a pause/resume storm races
  // both. Epoch fencing must make them cooperate: a kill is failed over by
  // EXACTLY one of them.
  ASSERT_TRUE(cluster_->StartMonitor({/*poll_interval_ms=*/1}).ok());

  std::atomic<bool> done{false};
  // gtest assertions are not thread-safe off the main thread; worker
  // threads collect violations as strings and the main thread asserts.
  std::mutex violations_mu;
  std::vector<std::string> violations;
  auto report = [&](std::string v) {
    std::lock_guard<std::mutex> lock(violations_mu);
    violations.push_back(std::move(v));
  };

  std::atomic<uint64_t> direct_failovers{0};
  std::atomic<uint64_t> direct_cycle_errors{0};
  std::thread rival([&] {
    while (!done.load()) {
      const auto cycle = cluster_->RunControlCycle();
      if (cycle.ok()) {
        direct_failovers.fetch_add(cycle->failovers.size());
      } else {
        direct_cycle_errors.fetch_add(1);
        report("rival cycle error: " + cycle.status().ToString());
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  std::thread storm([&] {
    while (!done.load()) {
      cluster_->PauseMonitor();
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      cluster_->ResumeMonitor();
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  std::thread sampler([&] {
    uint64_t last_epoch = 0;
    while (!done.load()) {
      const Controller::PlacementView view =
          cluster_->controller()->PlacementSnapshot();
      if (view.epoch < last_epoch) {
        report("epoch went backwards: " + std::to_string(view.epoch) +
               " < " + std::to_string(last_epoch));
      }
      last_epoch = view.epoch;
      // Mutex-consistent view: every shard's owner must be alive IN THE
      // SAME snapshot — dual ownership / orphaned shards would show here
      // the instant a double-failover interleaved.
      for (size_t shard = 0; shard < view.shard_to_worker.size(); ++shard) {
        const uint32_t owner = view.shard_to_worker[shard];
        if (owner >= view.worker_alive.size() || !view.worker_alive[owner]) {
          report("epoch " + std::to_string(view.epoch) + ": shard " +
                 std::to_string(shard) + " owned by dead worker " +
                 std::to_string(owner));
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // The fault script: healthy kills (WALs intact, tails fully
  // recoverable) under continuous traffic, rejoining as failovers land.
  Random rng(41);
  workload::ZipfianGenerator tenants(num_tenants, 0.9, 41);
  uint64_t kills = 0;
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  int event = 0;
  while (elapsed() < storm_ms) {
    for (int i = 0; i < 4; ++i) WriteRetry(1 + tenants.Next());
    if (event % 3 == 0 && LiveWorkers() > num_workers / 2 + 1) {
      uint32_t victim = rng.Uniform(num_workers);
      for (uint32_t probe = 0; probe < num_workers; ++probe) {
        const uint32_t id = (victim + probe) % num_workers;
        if (cluster_->worker(id) != nullptr &&
            cluster_->controller()->WorkerAlive(id)) {
          victim = id;
          if (cluster_->KillWorker(victim).ok()) ++kills;
          break;
        }
      }
    }
    if (event % 3 == 2) {
      for (uint32_t id = 0; id < num_workers; ++id) {
        if (cluster_->worker(id) == nullptr &&
            !cluster_->controller()->WorkerAlive(id)) {
          EXPECT_TRUE(cluster_->RestartWorker(id).ok());
        }
      }
    }
    ++event;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  done.store(true);
  rival.join();
  storm.join();
  sampler.join();

  ASSERT_TRUE(AwaitConvergence(/*timeout_ms=*/30000))
      << "fleet did not converge after the split-brain storm";
  cluster_->PauseMonitor();
  CheckPlacement("post-storm");

  {
    std::lock_guard<std::mutex> lock(violations_mu);
    EXPECT_TRUE(violations.empty())
        << violations.size() << " invariant violations, first: "
        << violations.front();
  }

  // The split-brain invariant: with two control planes racing, every kill
  // was failed over EXACTLY once — the rival seeing a worker the monitor
  // already condemned (or vice versa) must skip it, never re-fence.
  const MonitorStats stats = cluster_->monitor_stats();
  EXPECT_GT(kills, 0u) << "the storm never killed a worker";
  EXPECT_EQ(stats.failovers + direct_failovers.load(), kills)
      << "double failover (or a missed one): monitor=" << stats.failovers
      << " rival=" << direct_failovers.load() << " kills=" << kills;
  EXPECT_EQ(stats.cycle_errors, 0u);
  EXPECT_EQ(direct_cycle_errors.load(), 0u);
  EXPECT_EQ(stats.tails_lost, 0u);

  SweepOracle();
  cluster_->StopMonitor();
}

}  // namespace
}  // namespace logstore::cluster
