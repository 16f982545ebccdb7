// Soak-availability emitter: a miniature version of the soak harness
// (tests/soak_test.cc) that runs continuous Zipfian write load against a
// durable replicated deployment with the live monitor on, injects the
// chaos rungs (replica wedge, process kill, object-store brownout,
// rejoin), buckets every write attempt by wall clock, and commits the
// resulting availability profile:
//
//   BENCH_soak.json          — per-bucket attempts/successes/rate with
//                              fault-window annotations, plus the
//                              aggregate availability inside and outside
//                              the injected fault windows
//   BENCH_soak.metrics.json  — the default metric registry, including the
//                              cluster.availability.* cells the buckets
//                              are sampled against
//
// The committed numbers are the §13 acceptance artifact: availability
// outside injected fault windows must stay >= 99% (Taurus-style floor);
// the process exits non-zero if it does not, so CI gates on it.
//
// SOAK_SECONDS / SOAK_BUCKET_MS / SOAK_WORKERS resize the run;
// BENCH_SMOKE=1 shrinks it to a fast regression smoke.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/random.h"
#include "consensus/durable_log.h"
#include "logblock/row_batch.h"
#include "logblock/schema.h"
#include "objectstore/fault_injecting_object_store.h"
#include "objectstore/memory_object_store.h"
#include "workload/zipfian.h"

namespace {

using namespace logstore;
using logstore::bench::BenchSmoke;
using logstore::bench::JsonNum;

int EnvInt(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env != nullptr && *env != '\0') return std::atoi(env);
  return fallback;
}

logblock::RowBatch OneRow(uint64_t tenant, int64_t ts) {
  logblock::RowBatch batch(logblock::RequestLogSchema());
  batch.AddRow({logblock::Value::Int64(static_cast<int64_t>(tenant)),
                logblock::Value::Int64(ts),
                logblock::Value::String("10.0.0.1"),
                logblock::Value::Int64(5), logblock::Value::String("false"),
                logblock::Value::String("soak")});
  return batch;
}

struct Bucket {
  int64_t attempts = 0;
  int64_t successes = 0;
};

struct Window {
  int64_t start_ms = 0;
  int64_t end_ms = -1;
  const char* kind = "";
};

}  // namespace

int main() {
  const int soak_seconds = BenchSmoke() ? 2 : EnvInt("SOAK_SECONDS", 8);
  const int64_t bucket_ms = std::max(10, EnvInt("SOAK_BUCKET_MS", 100));
  const uint32_t num_workers =
      static_cast<uint32_t>(EnvInt("SOAK_WORKERS", 6));
  const uint64_t num_tenants = 8;
  const uint64_t seed = 4242;
  const int64_t duration_ms = static_cast<int64_t>(soak_seconds) * 1000;

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "bench_soak_wal";
  std::filesystem::remove_all(dir);

  // Default registry, so WriteBenchJson's metrics dump carries the
  // cluster.availability.* cells alongside every other layer's counters.
  objectstore::MemoryObjectStore base_store;
  objectstore::FaultInjectionOptions fault;
  fault.seed = seed;
  objectstore::FaultInjectingObjectStore store(&base_store, fault);

  cluster::ClusterDeploymentOptions options;
  options.num_workers = num_workers;
  options.shards_per_worker = 2;
  options.worker.schema = logblock::RequestLogSchema();
  options.worker.replicated = true;
  options.worker.wal_dir = dir.string();
  options.worker.wal.sync_policy = consensus::SyncPolicy::kOnSync;
  options.worker.wal.segment_target_bytes = 512;
  // Short object-store retry budget: a brownout must surface as
  // kUnavailable inside its window, not stall the load loop for the
  // default 5 s call deadline.
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_us = 5'000;
  options.retry.max_backoff_us = 20'000;
  options.retry.call_deadline_us = 100'000;
  auto opened = cluster::Cluster::Open(&store, options);
  if (!opened.ok()) {
    std::fprintf(stderr, "cluster open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<cluster::Cluster> cluster = std::move(opened).value();

  for (uint64_t t = 1; t <= num_tenants; ++t) {
    if (!cluster->Write(t, OneRow(t, 1000)).ok()) {
      std::fprintf(stderr, "seed write failed\n");
      return 1;
    }
  }
  if (!cluster->StartMonitor({/*poll_interval_ms=*/5}).ok()) {
    std::fprintf(stderr, "monitor start failed\n");
    return 1;
  }

  std::vector<Bucket> buckets(duration_ms / bucket_ms + 2);
  std::vector<Window> windows;
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
  std::vector<Event> events = {
      {0.15, kWedge}, {0.35, kKill}, {0.55, kBrownout}, {0.75, kRejoin}};
  auto live_worker = [&](uint32_t from) {
    for (uint32_t probe = 0; probe < num_workers; ++probe) {
      const uint32_t id = (from + probe) % num_workers;
      if (cluster->worker(id) != nullptr) return id;
    }
    return from;
  };
  auto placement_healthy = [&] {
    const cluster::Controller::PlacementView view =
        cluster->controller()->PlacementSnapshot();
    for (const uint32_t owner : view.shard_to_worker) {
      if (owner >= view.worker_alive.size() || !view.worker_alive[owner] ||
          cluster->worker(owner) == nullptr) {
        return false;
      }
    }
    return true;
  };

  int consecutive_ok = 0;
  int64_t brownout_end_us = 0;
  int64_t next_ts = 2000;
  while (elapsed_ms() < duration_ms) {
    for (Event& event : events) {
      if (event.fired ||
          elapsed_ms() < static_cast<int64_t>(event.fraction * duration_ms)) {
        continue;
      }
      event.fired = true;
      switch (event.kind) {
        case kWedge: {
          windows.push_back({elapsed_ms(), -1, "wedge"});
          const uint32_t target = live_worker(rng.Uniform(num_workers));
          cluster->PauseMonitor();
          cluster::Worker* worker = cluster->worker(target);
          if (worker != nullptr) {
            worker->InjectReplicaSyncError(static_cast<int>(rng.Uniform(3)))
                .IgnoreError();
          }
          cluster->ResumeMonitor();
          break;
        }
        case kKill: {
          windows.push_back({elapsed_ms(), -1, "kill"});
          cluster->KillWorker(live_worker(rng.Uniform(num_workers)))
              .IgnoreError();
          break;
        }
        case kBrownout: {
          windows.push_back({elapsed_ms(), -1, "brownout"});
          const int64_t now_us = SystemClock::Default()->NowMicros();
          brownout_end_us = now_us + 150'000;
          store.SetBrownout(now_us, brownout_end_us);
          cluster->RunBuildPass().status().IgnoreError();
          break;
        }
        case kRejoin: {
          windows.push_back({elapsed_ms(), -1, "rejoin"});
          for (uint32_t id = 0; id < num_workers; ++id) {
            if (cluster->worker(id) == nullptr &&
                !cluster->controller()->WorkerAlive(id)) {
              cluster->RestartWorker(id).IgnoreError();
            }
          }
          break;
        }
      }
    }

    const uint64_t tenant = 1 + tenants.Next();
    const int64_t t_ms = elapsed_ms();
    const Status status = cluster->Write(tenant, OneRow(tenant, next_ts++));
    const size_t bucket = std::min<size_t>(
        static_cast<size_t>(t_ms / bucket_ms), buckets.size() - 1);
    ++buckets[bucket].attempts;
    if (status.ok()) {
      ++buckets[bucket].successes;
      ++consecutive_ok;
    } else {
      consecutive_ok = 0;
    }
    for (Window& window : windows) {
      if (window.end_ms >= 0) continue;
      if (std::string(window.kind) == "brownout" &&
          SystemClock::Default()->NowMicros() < brownout_end_us) {
        continue;
      }
      if (consecutive_ok >= 24 && placement_healthy()) {
        window.end_ms = elapsed_ms();
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (Window& window : windows) {
    if (window.end_ms < 0) window.end_ms = duration_ms;
  }
  cluster->StopMonitor();

  // Aggregate availability, overall and outside the (bucket-padded) fault
  // windows — the committed acceptance number.
  auto in_fault_window = [&](int64_t from_ms, int64_t to_ms) {
    for (const Window& window : windows) {
      if (from_ms < window.end_ms + bucket_ms &&
          to_ms > window.start_ms - bucket_ms) {
        return true;
      }
    }
    return false;
  };
  int64_t total_attempts = 0, total_successes = 0;
  int64_t clean_attempts = 0, clean_successes = 0;
  std::string bucket_json;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i].attempts == 0) continue;
    const int64_t from_ms = static_cast<int64_t>(i) * bucket_ms;
    const bool faulted = in_fault_window(from_ms, from_ms + bucket_ms);
    total_attempts += buckets[i].attempts;
    total_successes += buckets[i].successes;
    if (!faulted) {
      clean_attempts += buckets[i].attempts;
      clean_successes += buckets[i].successes;
    }
    if (!bucket_json.empty()) bucket_json += ",\n";
    bucket_json += "    {\"t_ms\": " + std::to_string(from_ms) +
                   ", \"attempts\": " + std::to_string(buckets[i].attempts) +
                   ", \"successes\": " + std::to_string(buckets[i].successes) +
                   ", \"rate\": " +
                   JsonNum(static_cast<double>(buckets[i].successes) /
                           static_cast<double>(buckets[i].attempts)) +
                   ", \"in_fault_window\": " + (faulted ? "true" : "false") +
                   "}";
  }
  std::string window_json;
  for (const Window& window : windows) {
    if (!window_json.empty()) window_json += ",\n";
    window_json += "    {\"kind\": \"" + std::string(window.kind) +
                   "\", \"start_ms\": " + std::to_string(window.start_ms) +
                   ", \"end_ms\": " + std::to_string(window.end_ms) + "}";
  }
  const double availability_overall =
      total_attempts == 0 ? 0.0
                          : static_cast<double>(total_successes) /
                                static_cast<double>(total_attempts);
  const double availability_outside =
      clean_attempts == 0 ? 0.0
                          : static_cast<double>(clean_successes) /
                                static_cast<double>(clean_attempts);

  char overall_buf[32], outside_buf[32];
  std::snprintf(overall_buf, sizeof(overall_buf), "%.4f",
                availability_overall);
  std::snprintf(outside_buf, sizeof(outside_buf), "%.4f",
                availability_outside);
  std::string json = "{\n  \"bench\": \"soak\",\n";
  json += "  \"soak_seconds\": " + std::to_string(soak_seconds) + ",\n";
  json += "  \"bucket_ms\": " + std::to_string(bucket_ms) + ",\n";
  json += "  \"workers\": " + std::to_string(num_workers) + ",\n";
  json += "  \"write_attempts\": " + std::to_string(total_attempts) + ",\n";
  json += "  \"write_successes\": " + std::to_string(total_successes) + ",\n";
  json += "  \"availability_overall\": " + std::string(overall_buf) + ",\n";
  json += "  \"availability_outside_faults\": " + std::string(outside_buf) +
          ",\n";
  json += "  \"fault_windows\": [\n" + window_json + "\n  ],\n";
  json += "  \"buckets\": [\n" + bucket_json + "\n  ]\n}";
  logstore::bench::WriteBenchJson("BENCH_soak.json", json);

  std::printf("availability overall: %s, outside fault windows: %s\n",
              overall_buf, outside_buf);
  cluster.reset();
  std::filesystem::remove_all(dir);
  if (availability_outside < 0.99) {
    std::fprintf(stderr,
                 "availability outside fault windows %.4f below the 0.99 "
                 "floor\n",
                 availability_outside);
    return 1;
  }
  return 0;
}
