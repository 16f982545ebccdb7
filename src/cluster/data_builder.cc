#include "cluster/data_builder.h"

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <limits>
#include <thread>

#include "common/threadpool.h"

namespace logstore::cluster {

namespace {

// The pool every build pass of the process shares: one thread per hardware
// thread, created on first use and never destroyed (like
// MetricRegistry::Default()), so a process gains these threads once however
// many builders it runs.
ThreadPool* BuildPool() {
  static ThreadPool* pool = new ThreadPool(
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  return pool;
}

// Job-claiming state of one RunJobs call. Helper tasks hold it by
// shared_ptr, so a helper that reaches the pool after the call has returned
// still finds it, sees nothing left to claim, and exits.
struct JobQueue {
  std::mutex mu;
  std::condition_variable drained;
  size_t num_jobs = 0;
  size_t next = 0;      // next job to claim
  size_t finished = 0;  // claimed jobs that have ended
  size_t failed = std::numeric_limits<size_t>::max();  // lowest failed job
  Status error;                                         // its status
  // Called only on a claimed job, so only while RunJobs is still waiting.
  const std::function<Status(size_t)>* run = nullptr;
};

// Claims and runs jobs until every job is claimed or one has failed.
void Drain(JobQueue* q) {
  std::unique_lock<std::mutex> lock(q->mu);
  while (q->failed == std::numeric_limits<size_t>::max() &&
         q->next < q->num_jobs) {
    const size_t job = q->next++;
    lock.unlock();
    Status status = (*q->run)(job);
    lock.lock();
    ++q->finished;
    if (!status.ok() && job < q->failed) {
      q->failed = job;
      q->error = std::move(status);
    }
  }
  if (q->finished == q->next) q->drained.notify_all();
}

// Runs run(0) .. run(num_jobs - 1) on the calling thread and the build
// pool, claiming jobs in index order; no job starts after one has failed.
// Returns the status of the lowest failed job, or OK. The caller waits for
// the jobs that started, never for a helper task, so passes that share a
// busy pool cannot deadlock; at most pool threads + 1 jobs run at once.
Status RunJobs(size_t num_jobs, const std::function<Status(size_t)>& run) {
  auto q = std::make_shared<JobQueue>();
  q->num_jobs = num_jobs;
  q->run = &run;
  ThreadPool* pool = BuildPool();
  const size_t executors =
      std::min(num_jobs, static_cast<size_t>(pool->num_threads()) + 1);
  for (size_t h = 1; h < executors; ++h) {
    pool->Schedule([q] { Drain(q.get()); });
  }
  Drain(q.get());
  std::unique_lock<std::mutex> lock(q->mu);
  q->drained.wait(lock, [&] { return q->finished == q->next; });
  return q->error;
}

}  // namespace

DataBuilder::DataBuilder(objectstore::ObjectStore* store,
                         logblock::LogBlockMap* map,
                         DataBuilderOptions options)
    : store_(store), map_(map), options_(std::move(options)) {}

Result<int> DataBuilder::BuildOnce(rowstore::RowStore* row_store) {
  const rowstore::RowStore::BuildSnapshot snapshot =
      row_store->SnapshotForBuild(options_.max_rows_per_build);
  if (snapshot.total_rows == 0) return 0;

  // Plan: the snapshot divides the time-ordered row store into per-tenant
  // columnar batches (§3.1); large tenants are split further. Keys take
  // consecutive sequence numbers in snapshot order.
  struct Job {
    const logblock::RowBatch* batch;
    uint32_t begin;
    uint32_t end;
    logblock::LogBlockEntry entry;  // tenant and key now, the rest once built
  };
  std::vector<Job> jobs;
  for (const auto& [tenant, batch] : snapshot.per_tenant) {
    for (uint32_t begin = 0; begin < batch.num_rows();
         begin += options_.max_rows_per_logblock) {
      const uint32_t end = std::min(begin + options_.max_rows_per_logblock,
                                    batch.num_rows());
      jobs.push_back({&batch, begin, end, {}});
      jobs.back().entry.tenant_id = tenant;
    }
  }
  uint64_t sequence = sequence_.fetch_add(jobs.size());
  for (Job& job : jobs) {
    job.entry.object_key = options_.key_prefix +
                           std::to_string(job.entry.tenant_id) + "/" +
                           options_.key_salt + std::to_string(sequence++) +
                           ".tar";
  }

  // Build and upload on the shared pool. Each job drops its LogBlock bytes
  // as soon as its upload ends.
  const Status status = RunJobs(jobs.size(), [&](size_t i) -> Status {
    Job& job = jobs[i];
    const logblock::RowBatch& batch = *job.batch;
    // Re-slice the batch when splitting.
    const logblock::RowBatch* to_build = &batch;
    logblock::RowBatch slice(batch.schema());
    if (job.begin != 0 || job.end != batch.num_rows()) {
      slice.AppendRows(batch, job.begin, job.end);
      to_build = &slice;
    }

    auto block = logblock::BuildLogBlock(*to_build, job.entry.tenant_id,
                                         options_.block_options);
    if (!block.ok()) return block.status();
    LOGSTORE_RETURN_IF_ERROR(store_->Put(job.entry.object_key, block->data));
    job.entry.min_ts = block->meta.min_ts;
    job.entry.max_ts = block->meta.max_ts;
    job.entry.size_bytes = block->data.size();
    job.entry.row_count = block->meta.row_count;
    return Status::OK();
  });
  // All or none: a failed pass registers nothing and keeps its rows, so the
  // next pass archives them once. Objects it uploaded stay unreferenced.
  if (!status.ok()) return status;

  {
    std::lock_guard<std::mutex> lock(keys_mu_);
    for (const Job& job : jobs) archived_keys_.push_back(job.entry.object_key);
  }
  for (Job& job : jobs) {
    bytes_uploaded_ += job.entry.size_bytes;
    map_->Add(std::move(job.entry));
  }
  blocks_built_ += jobs.size();
  rows_archived_ += snapshot.total_rows;
  // Checkpoint: drop archived rows from the real-time store.
  row_store->TruncateUpTo(snapshot.end_seq);
  return static_cast<int>(jobs.size());
}

std::vector<std::string> DataBuilder::ArchivedKeys() const {
  std::lock_guard<std::mutex> lock(keys_mu_);
  return archived_keys_;
}

}  // namespace logstore::cluster
